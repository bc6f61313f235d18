package cluster_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"quantilelb/internal/cluster"
	"quantilelb/internal/store"
)

// get decodes a JSON response body into a generic map, failing on non-2xx
// unless wantStatus says otherwise.
func doJSON(t *testing.T, method, url string, body []byte, contentType string, wantStatus int) map[string]any {
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
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d", method, url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding body: %v", method, url, err)
	}
	return out
}

func TestKeyedServerEndpoints(t *testing.T) {
	st := store.New(store.Config{Eps: 0.02})
	srv := httptest.NewServer(cluster.NewKeyedServerHandler(st))
	defer srv.Close()

	// Ingest through every body format.
	out := doJSON(t, "POST", srv.URL+"/v1/k/lat.api/update", []byte("1 2 3, 4\n5"), "", 200)
	if out["accepted"].(float64) != 5 {
		t.Fatalf("plain-text accepted = %v", out["accepted"])
	}
	out = doJSON(t, "POST", srv.URL+"/v1/k/lat.api/update", []byte("[6,7,8]"), "application/json", 200)
	if out["accepted"].(float64) != 3 || out["n"].(float64) != 8 {
		t.Fatalf("JSON batch: %v", out)
	}
	doJSON(t, "POST", srv.URL+"/v1/k/lat.db/update?x=10&x=20", nil, "", 200)

	// Per-key reads are isolated.
	out = doJSON(t, "GET", srv.URL+"/v1/k/lat.api/quantile?phi=1", nil, "", 200)
	results := out["results"].([]any)
	if v := results[0].(map[string]any)["value"].(float64); v != 8 {
		t.Fatalf("api max = %v, want 8", v)
	}
	out = doJSON(t, "GET", srv.URL+"/v1/k/lat.db/rank?q=15", nil, "", 200)
	if out["rank"].(float64) != 1 || out["n"].(float64) != 2 {
		t.Fatalf("db rank: %v", out)
	}
	out = doJSON(t, "GET", srv.URL+"/v1/k/lat.db/cdf?q=25", nil, "", 200)
	if p := out["points"].([]any)[0].(map[string]any)["p"].(float64); p != 1 {
		t.Fatalf("db cdf(25) = %v, want 1", p)
	}

	// Key listing and store stats.
	out = doJSON(t, "GET", srv.URL+"/v1/keys", nil, "", 200)
	if out["count"].(float64) != 2 {
		t.Fatalf("keys: %v", out)
	}
	out = doJSON(t, "GET", srv.URL+"/v1/store/stats", nil, "", 200)
	if out["keys"].(float64) != 2 || out["updates"].(float64) != 10 {
		t.Fatalf("store stats: %v", out)
	}

	// Error paths: unknown key 404s like an empty summary, an oversized key
	// and a NaN batch 400, and all errors carry the structured JSON shape.
	out = doJSON(t, "GET", srv.URL+"/v1/k/nope/quantile?phi=0.5", nil, "", 404)
	if _, ok := out["error"]; !ok {
		t.Fatalf("404 body: %v", out)
	}
	doJSON(t, "GET", srv.URL+"/v1/k/"+strings.Repeat("x", 300)+"/quantile?phi=0.5", nil, "", 400)
	doJSON(t, "POST", srv.URL+"/v1/k/lat.api/update", []byte("NaN"), "", 400)
	// The rejected batch must not have been half-ingested.
	if st.Count("lat.api") != 8 {
		t.Fatalf("count after rejected batch = %d, want 8", st.Count("lat.api"))
	}
}

func TestKeyedSnapshotMergeAndETag(t *testing.T) {
	a := store.New(store.Config{Eps: 0.05})
	b := store.New(store.Config{Eps: 0.05})
	for i := 0; i < 500; i++ {
		a.Update("shared", float64(i))
		a.Update("only-a", float64(i))
		b.Update("shared", float64(i+500))
		b.Update("only-b", float64(i))
	}
	srvA := httptest.NewServer(cluster.NewKeyedServerHandler(a))
	defer srvA.Close()
	srvB := httptest.NewServer(cluster.NewKeyedServerHandler(b))
	defer srvB.Close()

	// Pull A's container and 304-revalidate it.
	resp, err := http.Get(srvA.URL + "/v1/store/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	payload := buf.Bytes()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("snapshot has no ETag")
	}
	req, _ := http.NewRequest("GET", srvA.URL+"/v1/store/snapshot", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", resp2.StatusCode)
	}

	// Push A's container into B: per-key COMBINE merge plus key adoption.
	out := doJSON(t, "POST", srvB.URL+"/v1/store/merge", payload, "application/octet-stream", 200)
	if out["merged_keys"].(float64) != 2 || out["keys"].(float64) != 3 {
		t.Fatalf("merge response: %v", out)
	}
	if b.Count("shared") != 1000 || b.Count("only-a") != 500 {
		t.Fatalf("merged counts: shared=%d only-a=%d", b.Count("shared"), b.Count("only-a"))
	}
	// Garbage payloads are rejected with a structured 400.
	doJSON(t, "POST", srvB.URL+"/v1/store/merge", []byte("garbage"), "", 400)
}

func TestKeyedAggregatorHandlerEndpoints(t *testing.T) {
	st := store.New(store.Config{Eps: 0.02})
	for i := 0; i < 1000; i++ {
		st.Update("m", float64(i))
	}
	node := httptest.NewServer(cluster.NewKeyedServerHandler(st))
	defer node.Close()

	agg := cluster.NewKeyedHTTP(nil, node.URL)
	aggSrv := httptest.NewServer(cluster.NewKeyedAggregatorHandler(agg))
	defer aggSrv.Close()

	// Before any pull the view is empty; /pull forces one.
	out := doJSON(t, "POST", aggSrv.URL+"/v1/pull", nil, "", 200)
	if out["keys"].(float64) != 1 || out["n"].(float64) != 1000 {
		t.Fatalf("pull response: %v", out)
	}
	out = doJSON(t, "GET", aggSrv.URL+"/v1/k/m/quantile?phi=0.5", nil, "", 200)
	v := out["results"].([]any)[0].(map[string]any)["value"].(float64)
	if v < 400 || v > 600 {
		t.Fatalf("merged median %v out of range", v)
	}
	doJSON(t, "GET", aggSrv.URL+"/v1/k/m/rank?q=500", nil, "", 200)
	doJSON(t, "GET", aggSrv.URL+"/v1/k/m/cdf?q=500", nil, "", 200)
	out = doJSON(t, "GET", aggSrv.URL+"/v1/keys", nil, "", 200)
	if out["count"].(float64) != 1 {
		t.Fatalf("agg keys: %v", out)
	}
	out = doJSON(t, "GET", aggSrv.URL+"/v1/stats", nil, "", 200)
	if out["contributing"].(float64) != 1 {
		t.Fatalf("agg stats: %v", out)
	}

	// The merged view re-exports as a container a second-tier keyed
	// aggregator (or a store) can ingest: trees compose.
	resp, err := http.Get(aggSrv.URL + "/v1/store/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	restored, err := store.Restore(store.Config{Eps: 0.02}, buf.Bytes())
	if err != nil {
		t.Fatalf("restoring re-exported container: %v", err)
	}
	if restored.Count("m") != 1000 {
		t.Fatalf("restored count = %d", restored.Count("m"))
	}
}

func TestKeyedAggregatorDeadPeerKeepsLastSnapshot(t *testing.T) {
	st := store.New(store.Config{Eps: 0.05})
	for i := 0; i < 200; i++ {
		st.Update("m", float64(i))
	}
	node := httptest.NewServer(cluster.NewKeyedServerHandler(st))
	agg := cluster.NewKeyedHTTP(nil, node.URL)
	if err := agg.PullOnce(t.Context()); err != nil {
		t.Fatalf("first pull: %v", err)
	}
	node.Close()
	if err := agg.PullOnce(t.Context()); err == nil {
		t.Fatal("pull from a dead peer should error")
	}
	// Stale-but-available: the key still answers from the last snapshot.
	if n := agg.Count("m"); n != 200 {
		t.Fatalf("count after peer death = %d, want 200", n)
	}
	status := agg.Status()
	if len(status) != 1 || status[0].Healthy {
		t.Fatalf("dead peer should show unhealthy: %+v", status)
	}
	if status[0].Kind != "store" {
		t.Fatalf("peer kind = %q, want store", status[0].Kind)
	}
}

func TestKeyedAggregator304SkipsRebuild(t *testing.T) {
	st := store.New(store.Config{Eps: 0.05})
	st.Update("m", 1)
	node := httptest.NewServer(cluster.NewKeyedServerHandler(st))
	defer node.Close()
	agg := cluster.NewKeyedHTTP(nil, node.URL)
	for i := 0; i < 3; i++ {
		if err := agg.PullOnce(t.Context()); err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
	}
	status := agg.Status()
	if status[0].NotModified < 2 {
		t.Fatalf("expected >= 2 not-modified rounds, got %d", status[0].NotModified)
	}
	if v, ok := agg.SnapshotVersion(); !ok || v != 1 {
		t.Fatalf("304 rounds must not rebuild: version %d, ok %v", v, ok)
	}
}
