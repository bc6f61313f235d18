package cluster_test

// The end-to-end proof of the keyed tier: three real keyed writer nodes
// (httptest servers running the full NewStoreServerHandler surface), one
// keyed aggregator pulling their KindStore containers over HTTP, and the
// exact oracle of internal/rank checking that every per-key merged answer
// respects the COMBINE budget — error ≤ max eps over the nodes holding the
// key — across disjoint keys, overlapping keys, heterogeneous per-node
// accuracies, and the paper's own adversarial lower-bound stream
// concentrated on one hot key split over all three nodes.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	quantilelb "quantilelb"
	"quantilelb/internal/bench"
	"quantilelb/internal/cluster"
	"quantilelb/internal/rank"
	"quantilelb/internal/store"
	"quantilelb/internal/stream"
)

// postKeyedBatch ships a batch to one node's keyed update endpoint the way a
// real producer would: a JSON array in chunks.
func postKeyedBatch(t *testing.T, baseURL, key string, items []float64) {
	t.Helper()
	const chunk = 4096
	for i := 0; i < len(items); i += chunk {
		end := min(i+chunk, len(items))
		body := new(bytes.Buffer)
		body.WriteByte('[')
		for j := i; j < end; j++ {
			if j > i {
				body.WriteByte(',')
			}
			fmt.Fprintf(body, "%g", items[j])
		}
		body.WriteByte(']')
		resp, err := http.Post(baseURL+"/v1/k/"+key+"/update", "application/json", body)
		if err != nil {
			t.Fatalf("POST /v1/k/%s/update: %v", key, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/k/%s/update: status %d", key, resp.StatusCode)
		}
	}
}

func TestKeyedEndToEndThreeNodesOneAggregator(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end keyed cluster test")
	}
	// Heterogeneous per-node accuracy: the COMBINE bound for a key is the
	// max eps over the nodes that hold it.
	nodeEps := []float64{0.01, 0.02, 0.015}
	stores := make([]*store.Store, 3)
	servers := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	for i := range stores {
		stores[i] = store.New(store.Config{Eps: nodeEps[i]})
		// The full writer-node surface: single-stream sharded summary plus
		// the keyed store, exactly what cmd/quantileserver serves.
		h := cluster.NewStoreServerHandler(
			quantilelb.NewSharded(quantilelb.GKFactory(nodeEps[i]), 4),
			stores[i],
		)
		servers[i] = httptest.NewServer(h)
		defer servers[i].Close()
		urls[i] = servers[i].URL
	}

	gen := stream.NewGenerator(11)
	// sent[key] accumulates the true union substream per key.
	sent := map[string][]float64{}
	send := func(node int, key string, items []float64) {
		postKeyedBatch(t, urls[node], key, items)
		sent[key] = append(sent[key], items...)
	}
	// epsFor[key] = max eps over nodes holding the key.
	epsFor := map[string]float64{}
	holds := func(key string, nodes ...int) {
		for _, n := range nodes {
			if nodeEps[n] > epsFor[key] {
				epsFor[key] = nodeEps[n]
			}
		}
	}

	// Overlapping key on all three nodes, different distributions per node.
	send(0, "lat.api", gen.Shuffled(12_000).Items())
	send(1, "lat.api", gen.Uniform(9_000).Items())
	send(2, "lat.api", gen.Zipf(6_000, 1.3, 1).Items())
	holds("lat.api", 0, 1, 2)

	// Overlapping on two nodes.
	send(0, "lat.db", gen.Sorted(8_000).Items())
	send(1, "lat.db", gen.Reverse(8_000).Items())
	holds("lat.db", 0, 1)

	// Disjoint keys, one per node.
	send(0, "tenant.a", gen.Gaussian(5_000, 100, 15).Items())
	send(1, "tenant.b", gen.Duplicates(5_000, 50).Items())
	send(2, "tenant.c", gen.Drift(5_000).Items())
	holds("tenant.a", 0)
	holds("tenant.b", 1)
	holds("tenant.c", 2)

	// The paper's adversarial stream on one hot key, split round-robin over
	// all three nodes: the worst-case input the lower bound constructs,
	// concentrated on a single tenant of the multi-tenant tier.
	adv, err := bench.AdversarialWorkload(8_192)
	if err != nil {
		t.Fatalf("building adversarial workload: %v", err)
	}
	third := len(adv.Items) / 3
	send(0, "hot.adversarial", adv.Items[:third])
	send(1, "hot.adversarial", adv.Items[third:2*third])
	send(2, "hot.adversarial", adv.Items[2*third:])
	holds("hot.adversarial", 0, 1, 2)

	agg := cluster.NewKeyedHTTP(nil, urls...)
	if err := agg.PullOnce(t.Context()); err != nil {
		t.Fatalf("pull: %v", err)
	}
	if got := agg.ContributingPeers(); got != 3 {
		t.Fatalf("contributing peers = %d, want 3", got)
	}
	wantKeys := []string{"hot.adversarial", "lat.api", "lat.db", "tenant.a", "tenant.b", "tenant.c"}
	gotKeys := agg.Keys()
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("merged keys = %v, want %v", gotKeys, wantKeys)
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("merged keys = %v, want %v", gotKeys, wantKeys)
		}
	}

	// Every per-key merged answer over a dense quantile grid must respect
	// the COMBINE budget of the nodes holding the key.
	const grid = 100
	for key, items := range sent {
		oracle := rank.Float64Oracle(items)
		n := len(items)
		if got := agg.Count(key); got != n {
			t.Errorf("key %q: merged count %d, want %d", key, got, n)
		}
		allowance := epsFor[key]*float64(n) + 1
		worst := 0
		for i := 0; i <= grid; i++ {
			phi := float64(i) / float64(grid)
			got, ok := agg.Query(key, phi)
			if !ok {
				t.Fatalf("key %q: empty merged answer at phi=%g", key, phi)
			}
			if e := oracle.RankError(got, phi); e > worst {
				worst = e
			}
		}
		if float64(worst) > allowance {
			t.Errorf("key %q: worst merged rank error %d exceeds COMBINE allowance %.0f (eps=%g, n=%d)",
				key, worst, allowance, epsFor[key], n)
		}
		// Rank estimates carry the same budget.
		q := oracle.Quantile(0.5)
		if e := abs(agg.EstimateRank(key, q) - oracle.RankLE(q)); float64(e) > allowance {
			t.Errorf("key %q: rank estimate error %d exceeds allowance %.0f", key, e, allowance)
		}
	}

	// A second idle round is all 304s and leaves the view untouched.
	v1, _ := agg.SnapshotVersion()
	if err := agg.PullOnce(t.Context()); err != nil {
		t.Fatalf("idle pull: %v", err)
	}
	if v2, _ := agg.SnapshotVersion(); v2 != v1 {
		t.Errorf("idle pull rebuilt the view: version %d -> %d", v1, v2)
	}

	// New writes on one node flow through on the next pull.
	send(2, "tenant.c", []float64{1e9})
	if err := agg.PullOnce(t.Context()); err != nil {
		t.Fatalf("post-write pull: %v", err)
	}
	if got := agg.Count("tenant.c"); got != len(sent["tenant.c"]) {
		t.Errorf("tenant.c count after new write = %d, want %d", got, len(sent["tenant.c"]))
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
