package cluster_test

// Acceptance tests of the hierarchical tier: a 100-leaf height-2 tree
// answers within the end-to-end budget eps (eps/h spent per level), a
// height-3 tree composes combiners over combiners with delta negotiation on
// every edge, mis-budgeted children are rejected instead of silently voiding
// the guarantee, slow children are shed to stale serving under the round
// deadline, and pushed snapshots replace (never accumulate).

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quantilelb/internal/cluster"
	"quantilelb/internal/encoding"
	"quantilelb/internal/gk"
	"quantilelb/internal/rank"
	"quantilelb/internal/sharded"
	"quantilelb/internal/stream"
)

// startLeaf boots one writer node at the given accuracy.
func startLeaf(t *testing.T, eps float64) (*httptest.Server, *sharded.Sharded[float64, *gk.Summary[float64]]) {
	t.Helper()
	s := sharded.New(func() *gk.Summary[float64] { return gk.NewFloat64(eps) }, 1)
	srv := httptest.NewServer(cluster.NewServerHandler(s))
	t.Cleanup(srv.Close)
	return srv, s
}

// assertWithinEps checks the merged view against the exact oracle on a
// 101-point phi grid: rank error ≤ eps·N + 1 (the +1 forgives rank
// rounding at the grid ends).
func assertWithinEps(t *testing.T, agg *cluster.Aggregator, items []float64, eps float64) {
	t.Helper()
	n := len(items)
	if agg.Count() != n {
		t.Fatalf("merged view covers %d items, want %d", agg.Count(), n)
	}
	oracle := rank.Float64Oracle(items)
	limit := eps*float64(n) + 1
	for i := 0; i <= 100; i++ {
		phi := float64(i) / 100
		v, ok := agg.Query(phi)
		if !ok {
			t.Fatalf("Query(%g) on a non-empty tree root", phi)
		}
		if e := oracle.RankError(v, phi); float64(e) > limit {
			t.Errorf("phi=%g: rank error %d exceeds the tree budget %.0f", phi, e, limit)
		}
	}
}

// TestTreeHeight2Fanin100 is the headline acceptance test: 100 leaf servers
// at eps/2 under one root combiner (height 2), merged rank error ≤ eps, with
// delta snapshots negotiated on the second round.
func TestTreeHeight2Fanin100(t *testing.T) {
	const (
		leaves  = 100
		eps     = 0.02
		perLeaf = 2000
	)
	items := stream.NewGenerator(31).Shuffled(leaves * perLeaf).Items()

	shards := make([]*sharded.Sharded[float64, *gk.Summary[float64]], leaves)
	sources := make([]cluster.Source, leaves)
	for i := 0; i < leaves; i++ {
		srv, s := startLeaf(t, eps/2)
		shards[i] = s
		sources[i] = &cluster.HTTPSource{URL: srv.URL, Fresh: true, Delta: true}
	}
	// First round: 3/4 of each leaf's slice.
	cut := perLeaf * 3 / 4
	for i := 0; i < leaves; i++ {
		shard := items[i*perLeaf : (i+1)*perLeaf]
		shards[i].UpdateBatch(shard[:cut])
	}

	root, err := cluster.NewTree(cluster.TreeConfig{Eps: eps, Height: 2, Level: 2}, sources...)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.PullOnce(context.Background()); err != nil {
		t.Fatalf("round 1: %v", err)
	}

	// Second round ingests the rest, so revalidation fetches can negotiate
	// deltas against the bases pulled in round 1.
	for i := 0; i < leaves; i++ {
		shard := items[i*perLeaf : (i+1)*perLeaf]
		shards[i].UpdateBatch(shard[cut:])
	}
	if err := root.PullOnce(context.Background()); err != nil {
		t.Fatalf("round 2: %v", err)
	}

	assertWithinEps(t, root, items, eps)

	// The root's exported view must be pruned to the level budget's size —
	// O(h/eps) entries, not the sum of 100 leaf summaries.
	k := int(float64(2)/eps) + 2
	if got := root.StoredCount(); got > k {
		t.Errorf("root retains %d entries after prune, want ≤ %d", got, k)
	}

	// Delta negotiation must have fired on the incremental round.
	deltas, wire := 0, int64(0)
	for _, ps := range root.Status() {
		deltas += ps.DeltaFetches
		wire += ps.WireBytes
	}
	if deltas == 0 {
		t.Error("no peer negotiated a delta snapshot on the incremental round")
	}
	if wire == 0 {
		t.Error("wire-byte accounting recorded nothing")
	}
}

// TestTreeHeight3Composes stacks combiners: 6 leaves at eps/3, two mid
// combiners (level 2) over 3 leaves each, one root (level 3) over the mids,
// deltas negotiated on every edge. End-to-end error ≤ eps.
func TestTreeHeight3Composes(t *testing.T) {
	const (
		eps     = 0.03
		perLeaf = 3000
	)
	items := stream.NewGenerator(37).Drift(6 * perLeaf).Items()

	var midURLs []string
	shards := make([]*sharded.Sharded[float64, *gk.Summary[float64]], 6)
	for m := 0; m < 2; m++ {
		var leafSources []cluster.Source
		for l := 0; l < 3; l++ {
			i := m*3 + l
			srv, s := startLeaf(t, eps/3)
			shards[i] = s
			s.UpdateBatch(items[i*perLeaf : (i+1)*perLeaf])
			leafSources = append(leafSources, &cluster.HTTPSource{URL: srv.URL, Fresh: true, Delta: true})
		}
		mid, err := cluster.NewTree(cluster.TreeConfig{Eps: eps, Height: 3, Level: 2}, leafSources...)
		if err != nil {
			t.Fatal(err)
		}
		if err := mid.PullOnce(context.Background()); err != nil {
			t.Fatalf("mid %d: %v", m, err)
		}
		midSrv := httptest.NewServer(cluster.NewAggregatorHandler(mid))
		t.Cleanup(midSrv.Close)
		midURLs = append(midURLs, midSrv.URL)
	}

	root, err := cluster.NewTreeHTTP(cluster.TreeConfig{Eps: eps, Height: 3, Level: 3}, nil, midURLs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.PullOnce(context.Background()); err != nil {
		t.Fatalf("root: %v", err)
	}
	assertWithinEps(t, root, items, eps)
}

// TestTreeRejectsMisbudgetedChild: a leaf running at full eps under a
// height-2 tree (budget eps/2) is rejected at rebuild — the round errors,
// the child shows unhealthy, and the view excludes it.
func TestTreeRejectsMisbudgetedChild(t *testing.T) {
	srvGood, sGood := startLeaf(t, 0.01)
	sGood.UpdateBatch(stream.NewGenerator(3).Shuffled(1000).Items())
	srvBad, sBad := startLeaf(t, 0.05) // exceeds the 0.01 = eps/2 budget
	sBad.UpdateBatch(stream.NewGenerator(4).Shuffled(1000).Items())

	root, err := cluster.NewTree(cluster.TreeConfig{Eps: 0.02, Height: 2, Level: 2},
		&cluster.HTTPSource{URL: srvGood.URL, Fresh: true},
		&cluster.HTTPSource{URL: srvBad.URL, Fresh: true})
	if err != nil {
		t.Fatal(err)
	}
	err = root.PullOnce(context.Background())
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("PullOnce with a mis-budgeted child: err = %v, want a budget violation", err)
	}

	// Construction itself validates the config.
	if _, err := cluster.NewTree(cluster.TreeConfig{Eps: 0.02, Height: 1, Level: 1}); err == nil {
		t.Error("NewTree accepted height 1")
	}
	if _, err := cluster.NewTree(cluster.TreeConfig{Eps: 1.5, Height: 2, Level: 2}); err == nil {
		t.Error("NewTree accepted eps 1.5")
	}
	if _, err := cluster.NewTree(cluster.TreeConfig{Eps: 0.02, Height: 2, Level: 3}); err == nil {
		t.Error("NewTree accepted level > height")
	}
}

// TestTreeBackpressureSheds: a child that misses the round deadline is shed
// — the round returns promptly, the shed counter ticks, and the root keeps
// serving the child's last good snapshot.
func TestTreeBackpressureSheds(t *testing.T) {
	items := stream.NewGenerator(41).Shuffled(2000).Items()
	s := sharded.New(func() *gk.Summary[float64] { return gk.NewFloat64(0.01) }, 1)
	s.UpdateBatch(items)
	s.Refresh()

	var slow atomic.Bool
	inner := cluster.NewServerHandler(s)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow.Load() {
			time.Sleep(400 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	root, err := cluster.NewTree(
		cluster.TreeConfig{Eps: 0.02, Height: 2, Level: 2, RoundTimeout: 80 * time.Millisecond},
		&cluster.HTTPSource{URL: srv.URL, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := root.PullOnce(context.Background()); err != nil {
		t.Fatalf("fast round: %v", err)
	}
	if root.Sheds() != 0 {
		t.Fatalf("fast round shed: %d", root.Sheds())
	}
	before, ok := root.Query(0.5)
	if !ok {
		t.Fatal("no view after the fast round")
	}

	slow.Store(true)
	start := time.Now()
	err = root.PullOnce(context.Background())
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("slow round took %v, deadline did not bound it", elapsed)
	}
	if err == nil {
		t.Fatal("slow round reported no error")
	}
	if root.Sheds() != 1 {
		t.Fatalf("sheds = %d, want 1", root.Sheds())
	}
	// Stale serving: the pre-shed view still answers.
	if after, ok := root.Query(0.5); !ok || after != before {
		t.Fatalf("shed round disturbed the served view: %v/%v vs %v", after, ok, before)
	}
}

// TestPushSourceReplacement: pushed snapshots replace the child's retained
// payload (repeat pushes never double-count, unlike POST /v1/merge), unknown
// children 404, and non-wire payloads are rejected.
func TestPushSourceReplacement(t *testing.T) {
	child := cluster.NewPushSource("leaf-a")
	root, err := cluster.NewTree(cluster.TreeConfig{Eps: 0.02, Height: 2, Level: 2}, child)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cluster.NewTreeAggregatorHandler(root, child))
	defer srv.Close()

	mk := func(n int) []byte {
		g := gk.NewFloat64(0.01)
		g.UpdateBatch(stream.NewGenerator(9).Shuffled(n).Items())
		p, err := encoding.EncodeGK(g)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	push := func(name string, payload []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/child/"+name+"/snapshot", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := push("leaf-a", mk(1000)); resp.StatusCode != 200 {
		t.Fatalf("push 1: status %d", resp.StatusCode)
	}
	if err := root.PullOnce(context.Background()); err != nil {
		t.Fatalf("pull after push 1: %v", err)
	}
	if root.Count() != 1000 {
		t.Fatalf("count after push 1: %d", root.Count())
	}

	// A newer snapshot covering more items REPLACES the old one: the count
	// becomes 1500, not 2500.
	if resp := push("leaf-a", mk(1500)); resp.StatusCode != 200 {
		t.Fatalf("push 2: status %d", resp.StatusCode)
	}
	if err := root.PullOnce(context.Background()); err != nil {
		t.Fatalf("pull after push 2: %v", err)
	}
	if root.Count() != 1500 {
		t.Fatalf("count after push 2: %d, want 1500 (replacement, not accumulation)", root.Count())
	}

	if resp := push("unknown", mk(10)); resp.StatusCode != 404 {
		t.Fatalf("unknown child: status %d, want 404", resp.StatusCode)
	}
	if resp := push("leaf-a", []byte("garbage")); resp.StatusCode != 400 {
		t.Fatalf("garbage push: status %d, want 400", resp.StatusCode)
	}
	// The rejected garbage must not have clobbered the retained snapshot.
	if err := root.PullOnce(context.Background()); err != nil {
		t.Fatalf("pull after rejected push: %v", err)
	}
	if root.Count() != 1500 {
		t.Fatalf("count after rejected push: %d", root.Count())
	}
}
