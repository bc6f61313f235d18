package cluster_test

// Pins of the /v1/ API surface: every documented route is mounted under /v1
// and nowhere else, snapshot ETags are derived from payload content (a
// restarted node with identical state answers 304), the delta negotiation
// of GET /v1/snapshot round-trips over real HTTP, and the structured error
// envelope ({"error": message, "code": machine-code}) is uniform across
// every cluster handler.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"quantilelb/internal/cluster"
	"quantilelb/internal/encoding"
	"quantilelb/internal/gk"
	"quantilelb/internal/kll"
	"quantilelb/internal/sharded"
	"quantilelb/internal/store"
	"quantilelb/internal/stream"
)

// rawResponse is the full comparable shape of one HTTP exchange.
type rawResponse struct {
	status      int
	contentType string
	etag        string
	body        []byte
}

func doRaw(t *testing.T, method, url string, body []byte, contentType string) rawResponse {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rawResponse{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		etag:        resp.Header.Get("ETag"),
		body:        data,
	}
}

// v1TestStack is one writer node (single-stream + keyed) with deterministic
// ingested state, plus an aggregator and keyed aggregator pulled over it.
type v1TestStack struct {
	server, agg, keyedAgg *httptest.Server
}

func newV1TestStack(t *testing.T) *v1TestStack {
	t.Helper()
	items := stream.NewGenerator(5).Shuffled(4000).Items()
	s := sharded.New(func() *gk.Summary[float64] { return gk.NewFloat64(0.01) }, 1)
	s.UpdateBatch(items)
	s.Refresh()
	st := store.New(store.Config{Eps: 0.02})
	st.UpdateBatch("lat.api", items[:2000])
	st.UpdateBatch("lat.db", items[2000:])
	srv := httptest.NewServer(cluster.NewStoreServerHandler(s, st))
	t.Cleanup(srv.Close)

	agg := cluster.New(&cluster.HTTPSource{URL: srv.URL})
	if err := agg.PullOnce(context.Background()); err != nil {
		t.Fatalf("aggregator pull: %v", err)
	}
	aggSrv := httptest.NewServer(cluster.NewAggregatorHandler(agg))
	t.Cleanup(aggSrv.Close)

	kagg := cluster.NewKeyed(&cluster.HTTPSource{URL: srv.URL, Path: "/v1/store/snapshot"})
	if err := kagg.PullOnce(context.Background()); err != nil {
		t.Fatalf("keyed aggregator pull: %v", err)
	}
	kaggSrv := httptest.NewServer(cluster.NewKeyedAggregatorHandler(kagg))
	t.Cleanup(kaggSrv.Close)

	return &v1TestStack{server: srv, agg: aggSrv, keyedAgg: kaggSrv}
}

// TestV1RouteTable: every documented route answers on its tier under /v1,
// and its unversioned spelling is not mounted (the mux answers 404).
func TestV1RouteTable(t *testing.T) {
	stack := newV1TestStack(t)
	child := cluster.NewPushSource("leaf-a")
	root, err := cluster.NewTree(cluster.TreeConfig{Eps: 0.02, Height: 2, Level: 2}, child)
	if err != nil {
		t.Fatal(err)
	}
	treeSrv := httptest.NewServer(cluster.NewTreeAggregatorHandler(root, child))
	defer treeSrv.Close()
	tiers := map[string]*httptest.Server{
		"server": stack.server, "agg": stack.agg, "keyedAgg": stack.keyedAgg, "tree": treeSrv,
	}

	g := gk.NewFloat64(0.01)
	g.UpdateBatch(stream.NewGenerator(6).Shuffled(500).Items())
	payload, err := encoding.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	storePayload, err := encoding.EncodeStore([]encoding.KeyedPayload{{Key: "lat.api", Payload: payload}})
	if err != nil {
		t.Fatal(err)
	}
	routes := []struct {
		tier, method, route string
		body                []byte
	}{
		{"server", "POST", "/update", []byte("1 2 3")},
		{"server", "GET", "/quantile?phi=0.5", nil},
		{"server", "GET", "/rank?q=1200", nil},
		{"server", "GET", "/cdf?q=100", nil},
		{"server", "GET", "/stats", nil},
		{"server", "GET", "/snapshot", nil},
		{"server", "POST", "/merge", payload},
		{"server", "POST", "/k/lat.api/update", []byte("6 7")},
		{"server", "GET", "/k/lat.api/quantile?phi=0.9", nil},
		{"server", "GET", "/k/lat.api/rank?q=500", nil},
		{"server", "GET", "/k/lat.db/cdf?q=2500", nil},
		{"server", "GET", "/keys", nil},
		{"server", "GET", "/store/stats", nil},
		{"server", "GET", "/store/snapshot", nil},
		{"server", "POST", "/store/merge", storePayload},
		{"agg", "GET", "/quantile?phi=0.5", nil},
		{"agg", "GET", "/rank?q=1200", nil},
		{"agg", "GET", "/cdf?q=100", nil},
		{"agg", "GET", "/stats", nil},
		{"agg", "GET", "/snapshot", nil},
		{"agg", "POST", "/pull", nil},
		{"keyedAgg", "GET", "/k/lat.api/quantile?phi=0.5", nil},
		{"keyedAgg", "GET", "/k/lat.api/rank?q=500", nil},
		{"keyedAgg", "GET", "/k/lat.db/cdf?q=2500", nil},
		{"keyedAgg", "GET", "/keys", nil},
		{"keyedAgg", "GET", "/stats", nil},
		{"keyedAgg", "GET", "/store/snapshot", nil},
		{"keyedAgg", "POST", "/pull", nil},
		{"tree", "POST", "/child/leaf-a/snapshot", payload},
	}
	for _, tc := range routes {
		srv := tiers[tc.tier]
		if got := doRaw(t, tc.method, srv.URL+"/v1"+tc.route, tc.body, ""); got.status != 200 {
			t.Errorf("%s %s /v1%s: status %d, want 200 (body %s)", tc.tier, tc.method, tc.route, got.status, got.body)
		}
		if got := doRaw(t, tc.method, srv.URL+tc.route, tc.body, ""); got.status != http.StatusNotFound {
			t.Errorf("%s %s %s: status %d, want 404 for the unversioned spelling", tc.tier, tc.method, tc.route, got.status)
		}
	}
}

// TestSnapshotETagSurvivesRestart pins the content-hash ETag bugfix: a node
// rebuilt from scratch with identical state (a restart that replayed its
// input) must answer 304 to an ETag obtained before the restart — the old
// per-boot nonce ETag forced a full refetch of unchanged bytes from every
// child of a restarted combiner.
func TestSnapshotETagSurvivesRestart(t *testing.T) {
	items := stream.NewGenerator(17).Shuffled(3000).Items()
	boot := func() *httptest.Server {
		s := sharded.New(func() *gk.Summary[float64] { return gk.NewFloat64(0.01) }, 1)
		s.UpdateBatch(items)
		s.Refresh()
		return httptest.NewServer(cluster.NewServerHandler(s))
	}
	before := boot()
	defer before.Close()
	first := doRaw(t, "GET", before.URL+"/v1/snapshot", nil, "")
	if first.status != 200 || first.etag == "" {
		t.Fatalf("pre-restart snapshot: status %d, etag %q", first.status, first.etag)
	}

	after := boot() // the "restarted" process: fresh handler, same state
	defer after.Close()
	req, _ := http.NewRequest("GET", after.URL+"/v1/snapshot", nil)
	req.Header.Set("If-None-Match", first.etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("post-restart revalidation: status %d, want 304 (etag %q vs %q)",
			resp.StatusCode, resp.Header.Get("ETag"), first.etag)
	}
}

// TestSnapshotDeltaNegotiation drives GET /v1/snapshot?mode=delta over real
// HTTP: a client holding a recent base receives a KindDelta payload that
// applies to its base and reconstructs the current full snapshot; unknown
// bases fall back to full payloads.
func TestSnapshotDeltaNegotiation(t *testing.T) {
	items := stream.NewGenerator(23).Shuffled(50_000).Items()
	s := sharded.New(func() *gk.Summary[float64] { return gk.NewFloat64(0.005) }, 1)
	s.UpdateBatch(items[:49_000])
	s.Refresh()
	srv := httptest.NewServer(cluster.NewServerHandler(s))
	defer srv.Close()

	base := doRaw(t, "GET", srv.URL+"/v1/snapshot", nil, "")
	if base.status != 200 || base.etag == "" {
		t.Fatalf("base snapshot: status %d, etag %q", base.status, base.etag)
	}

	s.UpdateBatch(items[49_000:])
	s.Refresh()
	full := doRaw(t, "GET", srv.URL+"/v1/snapshot?mode=full", nil, "")
	if full.status != 200 || full.etag == base.etag {
		t.Fatalf("head snapshot: status %d, etag %q (unchanged?)", full.status, full.etag)
	}

	delta := doRaw(t, "GET", srv.URL+"/v1/snapshot?mode=delta&base="+strings.Trim(base.etag, `"`), nil, "")
	if delta.status != 200 {
		t.Fatalf("delta snapshot: status %d", delta.status)
	}
	// The ?base= value is the quoted ETag; clients pass it verbatim. Retry
	// with the exact quoted form, which is what HTTPSource sends.
	if !encoding.IsDelta(delta.body) {
		delta = doRaw(t, "GET", srv.URL+"/v1/snapshot?mode=delta&base="+base.etag, nil, "")
	}
	if !encoding.IsDelta(delta.body) {
		t.Fatalf("mode=delta with a known base served a full payload (%d bytes)", len(delta.body))
	}
	if delta.etag != full.etag {
		t.Fatalf("delta response ETag %q, want the head's %q", delta.etag, full.etag)
	}
	if len(delta.body) >= len(full.body) {
		t.Fatalf("delta (%d bytes) not smaller than full (%d bytes)", len(delta.body), len(full.body))
	}
	rebuilt, err := encoding.ApplyDelta(base.body, delta.body)
	if err != nil {
		t.Fatalf("applying served delta: %v", err)
	}
	if !bytes.Equal(rebuilt, full.body) {
		t.Fatal("served delta does not reconstruct the full snapshot")
	}

	// Unknown base: full payload, no Delta-Base header, same ETag.
	unknown := doRaw(t, "GET", srv.URL+`/v1/snapshot?mode=delta&base="nope"`, nil, "")
	if unknown.status != 200 || encoding.IsDelta(unknown.body) || !bytes.Equal(unknown.body, full.body) {
		t.Fatalf("unknown base: status %d, delta=%v", unknown.status, encoding.IsDelta(unknown.body))
	}
}

// TestErrorEnvelope pins the unified error shape across every cluster
// handler: each non-2xx response decodes to {"error": non-empty message,
// "code": the closed machine-readable code for its status}.
func TestErrorEnvelope(t *testing.T) {
	stack := newV1TestStack(t)

	// A kll node makes the 409 merge-conflict path reachable: kll summaries
	// with different k refuse to COMBINE.
	kllS := sharded.New(func() *kll.Sketch[float64] { return kll.NewFloat64(0.01, kll.WithSeed(3)) }, 1)
	kllS.UpdateBatch(stream.NewGenerator(2).Shuffled(1000).Items())
	kllSrv := httptest.NewServer(cluster.NewServerHandler(kllS))
	defer kllSrv.Close()
	coarse := kll.NewFloat64(0.1, kll.WithSeed(4))
	coarse.UpdateBatch(stream.NewGenerator(2).Shuffled(1000).Items())
	conflictPayload, err := encoding.Encode(coarse)
	if err != nil {
		t.Fatal(err)
	}

	// An aggregator over an unreachable peer makes the 502 path reachable.
	deadAgg := httptest.NewServer(cluster.NewAggregatorHandler(
		cluster.New(&cluster.HTTPSource{URL: "http://127.0.0.1:1/nope"})))
	defer deadAgg.Close()

	cases := []struct {
		name        string
		method, url string
		body        []byte
		contentType string
		status      int
		code        string
	}{
		{"missing phi", "GET", stack.server.URL + "/v1/quantile", nil, "", 400, "bad_request"},
		{"phi out of range", "GET", stack.server.URL + "/v1/quantile?phi=2", nil, "", 400, "bad_request"},
		{"phi NaN", "GET", stack.server.URL + "/v1/quantile?phi=NaN", nil, "", 400, "bad_request"},
		{"keyed phi NaN", "GET", stack.server.URL + "/v1/k/lat.api/quantile?phi=NaN", nil, "", 400, "bad_request"},
		{"agg phi NaN", "GET", stack.agg.URL + "/v1/quantile?phi=NaN", nil, "", 400, "bad_request"},
		{"keyed agg phi NaN", "GET", stack.keyedAgg.URL + "/v1/k/lat.api/quantile?phi=NaN", nil, "", 400, "bad_request"},
		{"bad rank q", "GET", stack.server.URL + "/v1/rank?q=NaN", nil, "", 400, "bad_request"},
		{"update NaN", "POST", stack.server.URL + "/v1/update?x=NaN", nil, "", 400, "bad_request"},
		{"update bad JSON", "POST", stack.server.URL + "/v1/update", []byte(`[1,"x"]`), "application/json", 400, "bad_request"},
		{"update null element", "POST", stack.server.URL + "/v1/update", []byte(`[1,null]`), "application/json", 400, "bad_request"},
		{"weighted NaN weight", "POST", stack.server.URL + "/v1/update", []byte(`[{"v":1,"w":-2}]`), "application/json", 400, "bad_request"},
		{"merge garbage", "POST", stack.server.URL + "/v1/merge", []byte("junk"), "", 400, "bad_request"},
		{"merge conflict", "POST", kllSrv.URL + "/v1/merge", conflictPayload, "", 409, "conflict"},
		{"bad snapshot mode", "GET", stack.server.URL + "/v1/snapshot?mode=zip", nil, "", 400, "bad_request"},
		{"unknown key", "GET", stack.server.URL + "/v1/k/absent/quantile?phi=0.5", nil, "", 404, "not_found"},
		{"oversized key", "GET", stack.server.URL + "/v1/k/" + strings.Repeat("x", 300) + "/quantile?phi=0.5", nil, "", 400, "bad_request"},
		{"keyed update bad weight", "POST", stack.server.URL + "/v1/k/lat.api/update", []byte(`[{"v":1,"w":0.5}]`), "application/json", 400, "bad_request"},
		{"store merge garbage", "POST", stack.server.URL + "/v1/store/merge", []byte("junk"), "", 400, "bad_request"},
		{"agg missing phi", "GET", stack.agg.URL + "/v1/quantile", nil, "", 400, "bad_request"},
		{"keyed agg unknown key", "GET", stack.keyedAgg.URL + "/v1/k/absent/quantile?phi=0.5", nil, "", 404, "not_found"},
		{"pull all peers down", "POST", deadAgg.URL + "/v1/pull", nil, "", 502, "bad_gateway"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := doRaw(t, tc.method, tc.url, tc.body, tc.contentType)
			if got.status != tc.status {
				t.Fatalf("status %d, want %d (body %s)", got.status, tc.status, got.body)
			}
			if !strings.HasPrefix(got.contentType, "application/json") {
				t.Fatalf("content type %q, want JSON", got.contentType)
			}
			var envelope struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if err := json.Unmarshal(got.body, &envelope); err != nil {
				t.Fatalf("decoding envelope: %v (body %s)", err, got.body)
			}
			if envelope.Error == "" {
				t.Fatalf("empty error message: %s", got.body)
			}
			if envelope.Code != tc.code {
				t.Fatalf("code %q, want %q (body %s)", envelope.Code, tc.code, got.body)
			}
		})
	}
}
