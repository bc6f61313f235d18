package quantilelb_test

import (
	"math"
	"sync"
	"testing"

	quantilelb "quantilelb"
	"quantilelb/internal/rank"
	"quantilelb/internal/stream"
)

func feed(s quantilelb.Summary, items []float64) {
	for _, x := range items {
		s.Update(x)
	}
}

func TestFacadeConstructors(t *testing.T) {
	gen := stream.NewGenerator(1)
	st := gen.Uniform(20000)
	eps := 0.02
	summaries := map[string]quantilelb.Summary{
		"gk":        quantilelb.NewGK(eps),
		"gk-greedy": quantilelb.NewGKGreedy(eps),
		"mrl":       quantilelb.NewMRL(eps, st.Len()),
		"kll":       quantilelb.NewKLL(eps, 1),
		"reservoir": quantilelb.NewReservoir(eps, 0.01, 1),
		"biased":    quantilelb.NewBiased(eps),
		"capped":    quantilelb.NewCapped(500),
	}
	oracle := rank.Float64Oracle(st.Items())
	for name, s := range summaries {
		feed(s, st.Items())
		if s.Count() != st.Len() {
			t.Errorf("%s: Count = %d", name, s.Count())
		}
		if s.StoredCount() <= 0 || s.StoredCount() > st.Len() {
			t.Errorf("%s: StoredCount = %d", name, s.StoredCount())
		}
		med, ok := s.Query(0.5)
		if !ok {
			t.Errorf("%s: median query failed", name)
			continue
		}
		// Generous tolerance: randomized summaries have probabilistic
		// guarantees.
		if e := oracle.RankError(med, 0.5); float64(e) > 4*eps*float64(st.Len()) {
			t.Errorf("%s: median rank error %d", name, e)
		}
		if r := s.EstimateRank(med); r <= 0 || r > st.Len() {
			t.Errorf("%s: EstimateRank(median) = %d", name, r)
		}
		if len(s.StoredItems()) != s.StoredCount() {
			t.Errorf("%s: StoredItems / StoredCount mismatch", name)
		}
	}
}

func TestFacadeHistogramAndCDF(t *testing.T) {
	gen := stream.NewGenerator(2)
	st := gen.Gaussian(30000, 100, 15)
	s := quantilelb.NewGK(0.01)
	feed(s, st.Items())

	h, err := quantilelb.Histogram(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Buckets) != 10 {
		t.Errorf("bucket count = %d", len(h.Buckets))
	}
	if float64(h.MaxSkew()) > 0.03*float64(st.Len()) {
		t.Errorf("histogram skew too large: %d", h.MaxSkew())
	}

	c := quantilelb.CDF(s)
	if v := c.Value(100); math.Abs(v-0.5) > 0.03 {
		t.Errorf("CDF(mean) = %v, want about 0.5", v)
	}
	if x, ok := c.Inverse(0.5); !ok || math.Abs(x-100) > 3 {
		t.Errorf("CDF inverse at 0.5 = %v, want about 100", x)
	}
}

func TestFacadeKS(t *testing.T) {
	gen := stream.NewGenerator(3)
	a := quantilelb.NewGK(0.01)
	b := quantilelb.NewGK(0.01)
	c := quantilelb.NewGK(0.01)
	feed(a, gen.Gaussian(20000, 0, 1).Items())
	feed(b, gen.Gaussian(20000, 0, 1).Items())
	feed(c, gen.Gaussian(20000, 2, 1).Items())
	same := quantilelb.KSStatistic(a, b)
	diff := quantilelb.KSStatistic(a, c)
	if same > 0.06 {
		t.Errorf("KS of identical distributions = %v", same)
	}
	if diff < 0.5 {
		t.Errorf("KS of shifted distributions = %v, want large", diff)
	}
}

func TestFacadeLowerBound(t *testing.T) {
	eps := 1.0 / 32
	rep, err := quantilelb.RunLowerBound(quantilelb.TargetGK, eps, 6, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedQuantile {
		t.Errorf("GK should not fail the adversary")
	}
	if float64(rep.Gap) > rep.GapBound {
		t.Errorf("GK gap %d above bound %v", rep.Gap, rep.GapBound)
	}
	if float64(rep.MaxStored) < rep.LowerBound {
		t.Errorf("stored %d below lower bound %v", rep.MaxStored, rep.LowerBound)
	}
	if float64(rep.MaxStored) > rep.GKUpperBound {
		t.Errorf("stored %d above GK upper bound %v", rep.MaxStored, rep.GKUpperBound)
	}

	repCapped, err := quantilelb.RunLowerBound(quantilelb.TargetCapped, eps, 7, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !repCapped.FailedQuantile {
		t.Errorf("capacity-8 summary should fail the adversary")
	}

	if _, err := quantilelb.RunLowerBound("nope", eps, 3, 0, 1); err == nil {
		t.Errorf("unknown target should error")
	}
}

func TestFacadeSlidingWindowAndEncoding(t *testing.T) {
	gen := stream.NewGenerator(9)
	w := quantilelb.NewSlidingWindow(0.05, 1000)
	for _, x := range gen.Shuffled(5000).Items() {
		w.Update(x)
	}
	if w.Count() != 1000 {
		t.Errorf("window count = %d, want 1000", w.Count())
	}
	if _, ok := w.Query(0.5); !ok {
		t.Errorf("window query failed")
	}

	g := quantilelb.NewGK(0.02)
	feed(g, gen.Uniform(10000).Items())
	payload, err := quantilelb.Snapshot(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := quantilelb.RestoreAny(payload)
	if err != nil {
		t.Fatal(err)
	}
	if back.Count() != g.Count() {
		t.Errorf("round-trip count mismatch")
	}

	k := quantilelb.NewKLL(0.02, 3)
	feed(k, gen.Uniform(10000).Items())
	payload2, err := quantilelb.Snapshot(k)
	if err != nil {
		t.Fatal(err)
	}
	back2, err := quantilelb.RestoreAny(payload2)
	if err != nil {
		t.Fatal(err)
	}
	if back2.Count() != k.Count() {
		t.Errorf("KLL round-trip count mismatch")
	}
}

func TestTheoreticalBounds(t *testing.T) {
	if quantilelb.TheoreticalLowerBound(0, 100) != 0 || quantilelb.TheoreticalLowerBound(0.01, 0) != 0 {
		t.Errorf("degenerate inputs should give 0")
	}
	lbSmall := quantilelb.TheoreticalLowerBound(0.01, 10_000)
	lbLarge := quantilelb.TheoreticalLowerBound(0.01, 10_000_000)
	if lbLarge <= lbSmall {
		t.Errorf("lower bound should grow with N: %v vs %v", lbSmall, lbLarge)
	}
	ub := quantilelb.GKUpperBound(0.01, 10_000_000)
	if ub <= lbLarge {
		t.Errorf("upper bound %v should exceed lower bound %v", ub, lbLarge)
	}
	// Tiny stream falls back to k = 1.
	if quantilelb.TheoreticalLowerBound(0.01, 10) <= 0 {
		t.Errorf("tiny stream should still give the k=1 bound")
	}
}

// TestFacadeSharded exercises the concurrent ingestion layer through the
// public facade: concurrent writers over every factory backend, reads
// through the facade applications (Histogram, CDF, KSStatistic), and the
// merged-eps accuracy guarantee.
func TestFacadeSharded(t *testing.T) {
	gen := stream.NewGenerator(17)
	items := gen.Shuffled(40000).Items()
	eps := 0.02
	s := quantilelb.NewSharded(quantilelb.GKFactory(eps), 8,
		quantilelb.WithRefreshEvery(2000), quantilelb.WithWriteBuffer(64))
	var wg sync.WaitGroup
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(part []float64) {
			defer wg.Done()
			s.UpdateBatch(part[:len(part)/2])
			for _, x := range part[len(part)/2:] {
				s.Update(x)
			}
		}(items[w*len(items)/writers : (w+1)*len(items)/writers])
	}
	wg.Wait()
	s.Refresh()
	if s.Count() != len(items) {
		t.Fatalf("count = %d, want %d", s.Count(), len(items))
	}
	oracle := rank.Float64Oracle(items)
	bound := eps*float64(len(items)) + 2
	for _, phi := range []float64{0.05, 0.5, 0.95} {
		got, ok := s.Query(phi)
		if !ok {
			t.Fatalf("query failed")
		}
		if err := oracle.RankError(got, phi); float64(err) > bound {
			t.Errorf("phi=%v rank error %d exceeds eps*N=%v", phi, err, bound)
		}
	}
	// The sharded summary satisfies the facade Summary interface, so the
	// applications consume it unchanged.
	h, err := quantilelb.Histogram(s, 10)
	if err != nil {
		t.Fatalf("histogram over sharded summary: %v", err)
	}
	if got := len(h.Buckets); got != 10 {
		t.Errorf("histogram has %d buckets, want 10", got)
	}
	est := quantilelb.CDF(s)
	med, _ := s.Query(0.5)
	if v := est.Value(med); v < 0.5-eps-0.01 || v > 0.5+eps+0.01 {
		t.Errorf("CDF(median) = %v, want ~0.5", v)
	}
	single := quantilelb.NewGK(eps)
	feed(single, items)
	if d := quantilelb.KSStatistic(s, single); d > 2*eps+0.01 {
		t.Errorf("KS distance between sharded and single-writer = %v, want <= %v", d, 2*eps)
	}
	// The other factories plug in the same way.
	for name, q := range map[string]quantilelb.Summary{
		"kll":       quantilelb.NewSharded(quantilelb.KLLFactory(eps, 5), 4),
		"mrl":       quantilelb.NewSharded(quantilelb.MRLFactory(eps, len(items)), 4),
		"reservoir": quantilelb.NewSharded(quantilelb.ReservoirFactory(0.05, 0.01, 5), 4),
	} {
		feed(q, items[:10000])
		if q.Count() != 10000 {
			t.Errorf("%s: count = %d, want 10000", name, q.Count())
		}
		if _, ok := q.Query(0.5); !ok {
			t.Errorf("%s: query failed", name)
		}
	}
}

// TestFacadeMergeGK pins the facade-level merge guarantee.
func TestFacadeMergeGK(t *testing.T) {
	gen := stream.NewGenerator(19)
	eps := 0.02
	a, b := quantilelb.NewGK(eps), quantilelb.NewGK(eps)
	sa, sb := gen.Uniform(15000).Items(), gen.Uniform(15000).Items()
	feed(a, sa)
	feed(b, sb)
	if err := quantilelb.MergeGK(a, b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 30000 || b.Count() != 15000 {
		t.Fatalf("merge changed the wrong counts: a=%d b=%d", a.Count(), b.Count())
	}
	all := append(append([]float64(nil), sa...), sb...)
	oracle := rank.Float64Oracle(all)
	med, _ := a.Query(0.5)
	if err := oracle.RankError(med, 0.5); float64(err) > eps*float64(len(all))+2 {
		t.Errorf("merged median rank error %d exceeds eps*N", err)
	}
}

// TestFacadeSnapshotRestoreAny: every facade family that the wire format
// covers round-trips through the generic Snapshot/RestoreAny pair, and a
// sharded summary snapshots its merged view.
func TestFacadeSnapshotRestoreAny(t *testing.T) {
	gen := stream.NewGenerator(21)
	items := gen.Shuffled(4000).Items()
	summaries := map[string]quantilelb.Summary{
		"gk":        quantilelb.NewGK(0.01),
		"kll":       quantilelb.NewKLL(0.01, 5),
		"mrl":       quantilelb.NewMRL(0.01, 100000),
		"reservoir": quantilelb.NewReservoir(0.05, 0.01, 5),
		"window":    quantilelb.NewSlidingWindow(0.05, 100000),
	}
	for name, s := range summaries {
		feed(s, items)
		payload, err := quantilelb.Snapshot(s)
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", name, err)
		}
		restored, err := quantilelb.RestoreAny(payload)
		if err != nil {
			t.Fatalf("%s: RestoreAny: %v", name, err)
		}
		if restored.Count() != s.Count() {
			t.Errorf("%s: restored count %d, want %d", name, restored.Count(), s.Count())
		}
		want, _ := s.Query(0.5)
		got, _ := restored.Query(0.5)
		if want != got {
			t.Errorf("%s: restored median %g, want %g", name, got, want)
		}
	}

	// A sharded summary snapshots its merged view.
	sh := quantilelb.NewSharded(quantilelb.GKFactory(0.01), 4)
	feed(sh, items)
	payload, err := quantilelb.Snapshot(sh)
	if err != nil {
		t.Fatalf("sharded: Snapshot: %v", err)
	}
	restored, err := quantilelb.RestoreAny(payload)
	if err != nil {
		t.Fatalf("sharded: RestoreAny: %v", err)
	}
	if restored.Count() != len(items) {
		t.Errorf("sharded: restored count %d, want %d", restored.Count(), len(items))
	}

	// Garbage must error, not panic.
	if _, err := quantilelb.RestoreAny([]byte("garbage")); err == nil {
		t.Error("RestoreAny on garbage should fail")
	}
}

func TestFacadeStore(t *testing.T) {
	gen := stream.NewGenerator(9)
	st := quantilelb.NewStore(quantilelb.StoreConfig{Eps: 0.02})
	data := map[string][]float64{
		"api": gen.Shuffled(10_000).Items(),
		"db":  gen.Uniform(5_000).Items(),
	}
	for k, items := range data {
		st.UpdateBatch(k, items)
	}
	for k, items := range data {
		oracle := rank.Float64Oracle(items)
		for _, phi := range []float64{0.1, 0.5, 0.99} {
			got, ok := st.Query(k, phi)
			if !ok {
				t.Fatalf("key %q empty", k)
			}
			if e := oracle.RankError(got, phi); float64(e) > 0.02*float64(len(items))+1 {
				t.Errorf("key %q phi %g: rank error %d exceeds eps", k, phi, e)
			}
		}
	}

	payload, err := quantilelb.SnapshotStore(st)
	if err != nil {
		t.Fatalf("SnapshotStore: %v", err)
	}
	restored, err := quantilelb.RestoreStore(quantilelb.StoreConfig{Eps: 0.02}, payload)
	if err != nil {
		t.Fatalf("RestoreStore: %v", err)
	}
	if restored.Len() != 2 || restored.Count("api") != 10_000 {
		t.Fatalf("restored store: len=%d api=%d", restored.Len(), restored.Count("api"))
	}
	// Merging the snapshot back doubles per-key counts (COMBINE per key).
	if _, err := st.MergePayload(payload); err != nil {
		t.Fatalf("MergePayload: %v", err)
	}
	if st.Count("db") != 10_000 {
		t.Fatalf("merged db count = %d, want 10000", st.Count("db"))
	}
}

func TestFacadeUpdateWeighted(t *testing.T) {
	// Native path: GK.
	gkS := quantilelb.NewGK(0.05)
	if err := quantilelb.UpdateWeighted(gkS, 5, 40); err != nil {
		t.Fatal(err)
	}
	if err := quantilelb.UpdateWeighted(gkS, 10, 60); err != nil {
		t.Fatal(err)
	}
	if gkS.Count() != 100 {
		t.Fatalf("GK weighted count = %d, want 100", gkS.Count())
	}
	if v, _ := gkS.Query(0.7); v != 10 {
		t.Errorf("p70 = %g, want 10", v)
	}

	// Fallback path: the capped strawman has no native weighted support and
	// rides the guarded expansion.
	capped := quantilelb.NewCapped(64)
	if err := quantilelb.UpdateWeighted(capped, 1.5, 10); err != nil {
		t.Fatalf("in-guard fallback: %v", err)
	}
	if capped.Count() != 10 {
		t.Fatalf("fallback count = %d, want 10", capped.Count())
	}
	if err := quantilelb.UpdateWeighted(capped, 1.5, 1<<20); err == nil {
		t.Error("beyond-guard fallback accepted")
	}
	if err := quantilelb.UpdateWeighted(gkS, 1, 0); err == nil {
		t.Error("non-positive weight accepted")
	}
}
