package cluster_test

// The end-to-end proof of the distributed tier: three real quantileserver
// HTTP nodes (httptest), one aggregator pulling their binary snapshots, and
// the exact oracle of internal/rank checking that the globally merged answers
// stay within the max per-node eps on every workload of the benchmark matrix
// — including the paper's own adversarial stream, the input the lower bound
// proves hardest.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"quantilelb/internal/bench"
	"quantilelb/internal/cluster"
	"quantilelb/internal/encoding"
	"quantilelb/internal/gk"
	"quantilelb/internal/kll"
	"quantilelb/internal/mlq"
	"quantilelb/internal/rank"
	"quantilelb/internal/sharded"
)

// nodeEps are the per-node accuracies; they differ on purpose so the test
// exercises the COMBINE budget eps_global = max_i eps_i rather than a
// symmetric special case.
var nodeEps = []float64{0.01, 0.02, 0.05}

const maxEps = 0.05

// startNode spins one writer node: a 4-way sharded GK summary behind the
// real HTTP handler.
func startNode(t *testing.T, eps float64) *httptest.Server {
	t.Helper()
	s := sharded.New(func() *gk.Summary[float64] { return gk.NewFloat64(eps) }, 4)
	srv := httptest.NewServer(cluster.NewServerHandler(s))
	t.Cleanup(srv.Close)
	return srv
}

// postBatch ships one JSON batch to a node's /update.
func postBatch(t *testing.T, url string, batch []float64) {
	t.Helper()
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatalf("marshaling batch: %v", err)
	}
	resp, err := http.Post(url+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/update: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/update: status %s", resp.Status)
	}
}

// TestClusterIntegrationAllWorkloads is the acceptance test of the tier:
// 3 servers + 1 aggregator, every workload of the matrix, global max rank
// error ≤ max per-node eps.
func TestClusterIntegrationAllWorkloads(t *testing.T) {
	cfg := bench.DefaultConfig()
	cfg.N = 12_000
	workloads, err := bench.Workloads(cfg)
	if err != nil {
		t.Fatalf("building workloads: %v", err)
	}
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			urls := make([]string, len(nodeEps))
			sources := make([]cluster.Source, len(nodeEps))
			for i, eps := range nodeEps {
				srv := startNode(t, eps)
				urls[i] = srv.URL
				// Fresh pulls make the test deterministic: the node rebuilds
				// its snapshot before answering, so no update is hidden in a
				// write buffer when accuracy is measured.
				sources[i] = &cluster.HTTPSource{URL: srv.URL, Fresh: true}
			}

			// Spread the stream over the nodes in contiguous batches,
			// round-robin — the shape a load balancer produces.
			const batchSize = 500
			for i, next := 0, 0; i < len(wl.Items); i += batchSize {
				end := min(i+batchSize, len(wl.Items))
				postBatch(t, urls[next], wl.Items[i:end])
				next = (next + 1) % len(urls)
			}

			agg := cluster.New(sources...)
			if err := agg.PullOnce(context.Background()); err != nil {
				t.Fatalf("PullOnce: %v", err)
			}

			n := len(wl.Items)
			if agg.Count() != n {
				t.Fatalf("aggregator covers %d items, want %d", agg.Count(), n)
			}
			oracle := rank.Float64Oracle(wl.Items)
			limit := maxEps*float64(n) + 1
			for i := 0; i <= 100; i++ {
				phi := float64(i) / 100
				v, ok := agg.Query(phi)
				if !ok {
					t.Fatalf("Query(%g) on a non-empty aggregator", phi)
				}
				if e := oracle.RankError(v, phi); float64(e) > limit {
					t.Errorf("phi=%g: rank error %d exceeds max-eps budget %.0f", phi, e, limit)
				}
			}
		})
	}
}

// TestAggregatorHTTPAPI drives the aggregator's own HTTP surface: the read
// endpoints must answer with the same shapes as a server node, /stats must
// show every peer healthy, and /snapshot must re-export a payload that
// decodes to the global view (so aggregators can feed higher aggregators).
func TestAggregatorHTTPAPI(t *testing.T) {
	sources := make([]cluster.Source, len(nodeEps))
	for i, eps := range nodeEps {
		srv := startNode(t, eps)
		sources[i] = &cluster.HTTPSource{URL: srv.URL, Fresh: true}
		batch := make([]float64, 1000)
		for j := range batch {
			batch[j] = float64(i*1000 + j)
		}
		postBatch(t, srv.URL, batch)
	}
	agg := cluster.New(sources...)
	if err := agg.PullOnce(context.Background()); err != nil {
		t.Fatalf("PullOnce: %v", err)
	}
	aggSrv := httptest.NewServer(cluster.NewAggregatorHandler(agg))
	defer aggSrv.Close()

	var quantiles struct {
		Results []struct{ Phi, Value float64 }
		N       int
	}
	getJSON(t, aggSrv.URL+"/v1/quantile?phi=0.5", &quantiles)
	if quantiles.N != 3000 || len(quantiles.Results) != 1 {
		t.Fatalf("GET /v1/quantile: n=%d results=%d, want 3000/1", quantiles.N, len(quantiles.Results))
	}
	// The union is 0..2999, so the true median is ~1500 and the merged view
	// is 5%-accurate at worst.
	if med := quantiles.Results[0].Value; med < 1300 || med > 1700 {
		t.Errorf("global median = %g, want ~1500", med)
	}

	var stats struct {
		N            int
		Contributing int
		Peers        []cluster.PeerStatus
	}
	getJSON(t, aggSrv.URL+"/v1/stats", &stats)
	if stats.Contributing != 3 || len(stats.Peers) != 3 {
		t.Fatalf("GET /v1/stats: contributing=%d peers=%d, want 3/3", stats.Contributing, len(stats.Peers))
	}
	for _, p := range stats.Peers {
		if !p.Healthy || p.Kind != "gk" || p.N != 1000 {
			t.Errorf("peer %s: healthy=%t kind=%q n=%d, want true/gk/1000", p.Name, p.Healthy, p.Kind, p.N)
		}
	}

	resp, err := http.Get(aggSrv.URL + "/v1/snapshot")
	if err != nil {
		t.Fatalf("GET /v1/snapshot: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading re-exported snapshot: %v", err)
	}
	dec, err := encoding.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding re-exported snapshot: %v", err)
	}
	global, ok := dec.(*gk.Summary[float64])
	if !ok {
		t.Fatalf("re-exported snapshot decodes to %T, want *gk.Summary[float64]", dec)
	}
	if global.Count() != 3000 {
		t.Errorf("re-exported snapshot covers %d items, want 3000", global.Count())
	}
	// The COMBINE budget across heterogeneous nodes is the max eps.
	if got := global.Epsilon(); got != maxEps {
		t.Errorf("merged eps = %g, want max over nodes = %g", got, maxEps)
	}
}

// TestAggregatorPeerFailure pins the failure-handling contract: a peer that
// dies keeps contributing its last snapshot, the pull error is surfaced, and
// recovery of the remaining peers continues.
func TestAggregatorPeerFailure(t *testing.T) {
	live := startNode(t, 0.01)
	dying := startNode(t, 0.01)
	postBatch(t, live.URL, seq(0, 500))
	postBatch(t, dying.URL, seq(500, 500))

	agg := cluster.New(
		&cluster.HTTPSource{URL: live.URL, Fresh: true},
		&cluster.HTTPSource{URL: dying.URL, Fresh: true},
	)
	if err := agg.PullOnce(context.Background()); err != nil {
		t.Fatalf("first pull: %v", err)
	}
	if agg.Count() != 1000 {
		t.Fatalf("after first pull: count = %d, want 1000", agg.Count())
	}

	dying.Close()
	postBatch(t, live.URL, seq(1000, 500))
	err := agg.PullOnce(context.Background())
	if err == nil {
		t.Fatal("second pull with a dead peer returned no error")
	}
	// The dead peer's 500 items stay in the view; the live peer's new 500
	// arrive: stale-but-available.
	if agg.Count() != 1500 {
		t.Errorf("after partial pull: count = %d, want 1500 (1000 live + 500 stale)", agg.Count())
	}
	statuses := agg.Status()
	if statuses[0].Healthy != true || statuses[1].Healthy != false {
		t.Errorf("peer health = %t/%t, want true/false", statuses[0].Healthy, statuses[1].Healthy)
	}
	if statuses[1].LastError == "" {
		t.Error("dead peer has no recorded error")
	}
}

// TestClusterMLQNodesEndToEnd runs the same 3-node + aggregator topology
// with every node holding a sharded mlq summary: the binary snapshots travel
// as KindMLQ payloads, the aggregator's COMBINE goes through mlq.Merge, and
// the merged view must stay within the shared eps — on the shuffled stream
// and on the paper's adversarial one. This is the wire-level proof that the
// new family participates in the distributed tier, not just the in-process
// ones. Unlike the GK topology above, every node runs the same eps: mlq
// summaries must agree on the block size b to merge, exactly as KLL
// summaries must agree on k.
func TestClusterMLQNodesEndToEnd(t *testing.T) {
	const mlqEps = 0.02
	cfg := bench.DefaultConfig()
	cfg.N = 12_000
	workloads, err := bench.Workloads(cfg)
	if err != nil {
		t.Fatalf("building workloads: %v", err)
	}
	for _, wl := range workloads {
		if wl.Name != "shuffled" && wl.Name != "adversarial-cv" {
			continue
		}
		t.Run(wl.Name, func(t *testing.T) {
			urls := make([]string, len(nodeEps))
			sources := make([]cluster.Source, len(nodeEps))
			for i := range nodeEps {
				s := sharded.New(func() *mlq.Summary { return mlq.NewFloat64(mlqEps) }, 4)
				srv := httptest.NewServer(cluster.NewServerHandler(s))
				t.Cleanup(srv.Close)
				urls[i] = srv.URL
				sources[i] = &cluster.HTTPSource{URL: srv.URL, Fresh: true}
			}
			const batchSize = 500
			for i, next := 0, 0; i < len(wl.Items); i += batchSize {
				end := min(i+batchSize, len(wl.Items))
				postBatch(t, urls[next], wl.Items[i:end])
				next = (next + 1) % len(urls)
			}
			agg := cluster.New(sources...)
			if err := agg.PullOnce(context.Background()); err != nil {
				t.Fatalf("PullOnce: %v", err)
			}
			n := len(wl.Items)
			if agg.Count() != n {
				t.Fatalf("aggregator covers %d items, want %d", agg.Count(), n)
			}
			oracle := rank.Float64Oracle(wl.Items)
			limit := mlqEps*float64(n) + 1
			for i := 0; i <= 100; i++ {
				phi := float64(i) / 100
				v, ok := agg.Query(phi)
				if !ok {
					t.Fatalf("Query(%g) on a non-empty aggregator", phi)
				}
				if e := oracle.RankError(v, phi); float64(e) > limit {
					t.Errorf("phi=%g: rank error %d exceeds eps budget %.0f", phi, e, limit)
				}
			}
			// The re-exported global snapshot is itself a KindMLQ payload:
			// aggregators of mlq nodes can feed higher aggregators.
			p, _, err := agg.SnapshotPayload()
			if err != nil {
				t.Fatalf("aggregator snapshot: %v", err)
			}
			dec, err := encoding.Decode(p)
			if err != nil {
				t.Fatalf("decoding aggregator snapshot: %v", err)
			}
			if _, ok := dec.(*mlq.Summary); !ok {
				t.Fatalf("aggregator re-exports %T, want *mlq.Summary", dec)
			}
		})
	}
}

// TestAggregatorETag pins the bandwidth contract: pulling an unchanged peer
// is answered 304 and ships no payload bytes.
func TestAggregatorETag(t *testing.T) {
	srv := startNode(t, 0.01)
	postBatch(t, srv.URL, seq(0, 100))
	agg := cluster.New(&cluster.HTTPSource{URL: srv.URL, Fresh: true})
	for i := 0; i < 3; i++ {
		if err := agg.PullOnce(context.Background()); err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
	}
	st := agg.Status()[0]
	if st.Fetches != 3 || st.NotModified != 2 {
		t.Errorf("fetches=%d notModified=%d, want 3/2 (first pull transfers, the rest 304)", st.Fetches, st.NotModified)
	}
	if agg.Count() != 100 {
		t.Errorf("count = %d, want 100", agg.Count())
	}
}

// TestAggregatorKindMismatch: peers running different families cannot be
// merged; the rebuild must fail loudly instead of serving a half-merged view.
func TestAggregatorKindMismatch(t *testing.T) {
	gkNode := gk.NewFloat64(0.01)
	gkNode.Update(1)
	kllPayload := kllNodePayload(t)
	agg := cluster.New(
		&cluster.SummarySource{SourceName: "gk-node", Payload: func() ([]byte, error) { return encoding.Encode(gkNode) }},
		&cluster.SummarySource{SourceName: "kll-node", Payload: func() ([]byte, error) { return kllPayload, nil }},
	)
	if err := agg.PullOnce(context.Background()); err == nil {
		t.Fatal("merging a GK peer with a KLL peer succeeded, want error")
	}
	if _, ok := agg.Query(0.5); ok {
		t.Error("a failed rebuild must not publish a partial view")
	}
	// The rebuild failure must be visible in the offending peer's status,
	// and its payload must not be retained (a kept payload plus ETag would
	// let later 304 rounds skip the rebuild and report success forever).
	st := agg.Status()
	if st[1].Healthy || st[1].LastError == "" {
		t.Errorf("unmergeable peer reported healthy=%t err=%q, want unhealthy with an error", st[1].Healthy, st[1].LastError)
	}
	if st[1].PayloadBytes != 0 {
		t.Errorf("unmergeable peer retains %d payload bytes, want 0 (refetch next round)", st[1].PayloadBytes)
	}
	// The failure is sticky across rounds, not silently swallowed.
	if err := agg.PullOnce(context.Background()); err == nil {
		t.Error("second pull with a persistent kind mismatch reported success")
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

func seq(start, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(start + i)
	}
	return out
}

func kllNodePayload(t *testing.T) []byte {
	t.Helper()
	s := kll.NewFloat64(0.01)
	for i := 0; i < 100; i++ {
		s.Update(float64(i))
	}
	payload, err := encoding.Encode(s)
	if err != nil {
		t.Fatalf("encoding KLL payload: %v", err)
	}
	return payload
}
