package quantilelb_test

// Integration tests that tie the whole library together: the headline theorem
// as an executable assertion (the space/accuracy dichotomy), and an
// end-to-end pipeline exercising summaries, merging, serialization, and the
// applications built on top.

import (
	"testing"

	quantilelb "quantilelb"
	"quantilelb/internal/kll"
	"quantilelb/internal/rank"
	"quantilelb/internal/stream"
)

// TestDichotomyAcrossTargets asserts the statement of Theorem 2.2 in
// executable form for every attackable summary: after the adversarial
// construction, either the summary stored at least the paper's lower bound of
// items, or the gap exceeded 2εN and the witness quantile query failed.
func TestDichotomyAcrossTargets(t *testing.T) {
	eps := 1.0 / 32
	k := 6
	targets := []struct {
		name     quantilelb.AttackTarget
		capacity int
	}{
		{quantilelb.TargetGK, 0},
		{quantilelb.TargetGKGreedy, 0},
		{quantilelb.TargetBiased, 0},
		{quantilelb.TargetCapped, 8},
		{quantilelb.TargetCapped, 64},
		{quantilelb.TargetKLL, 0},
	}
	for _, target := range targets {
		rep, err := quantilelb.RunLowerBound(target.name, eps, k, target.capacity, 7)
		if err != nil {
			t.Fatalf("%s: %v", target.name, err)
		}
		storedEnough := float64(rep.MaxStored) >= rep.LowerBound
		gapSmall := float64(rep.Gap) <= rep.GapBound
		switch {
		case gapSmall && !storedEnough:
			t.Errorf("%s(cap=%d): kept the gap small with only %d items, below the bound %.1f — contradicts Theorem 2.2",
				target.name, target.capacity, rep.MaxStored, rep.LowerBound)
		case !gapSmall && !rep.FailedQuantile:
			t.Errorf("%s(cap=%d): gap %d exceeds 2εN=%.0f but no failing quantile query was found — contradicts Lemma 3.4",
				target.name, target.capacity, rep.Gap, rep.GapBound)
		}
	}
}

// TestEndToEndPipeline exercises a realistic pipeline: shard a stream across
// workers, summarize per shard, serialize the sketches, merge them at a
// coordinator, and drive the applications (quantiles, histogram, CDF, KS)
// from the merged sketch, validating everything against ground truth.
func TestEndToEndPipeline(t *testing.T) {
	const shards = 8
	const perShard = 25000
	eps := 0.01
	gen := stream.NewGenerator(123)
	full := gen.LogNormal(shards*perShard, 3, 1)

	coordinator := quantilelb.NewKLL(eps, 1)
	for w := 0; w < shards; w++ {
		shard := quantilelb.NewKLL(eps, int64(w+100))
		for _, x := range full.Items()[w*perShard : (w+1)*perShard] {
			shard.Update(x)
		}
		payload, err := quantilelb.Snapshot(shard)
		if err != nil {
			t.Fatalf("shard %d encode: %v", w, err)
		}
		received, err := quantilelb.RestoreAny(payload)
		if err != nil {
			t.Fatalf("shard %d decode: %v", w, err)
		}
		if err := coordinator.Merge(received.(*kll.Sketch[float64])); err != nil {
			t.Fatalf("shard %d merge: %v", w, err)
		}
	}
	if coordinator.Count() != full.Len() {
		t.Fatalf("coordinator count = %d, want %d", coordinator.Count(), full.Len())
	}

	oracle := rank.Float64Oracle(full.Items())
	for _, phi := range []float64{0.1, 0.5, 0.9, 0.99} {
		got, ok := coordinator.Query(phi)
		if !ok {
			t.Fatalf("query %v failed", phi)
		}
		if e := oracle.RankError(got, phi); float64(e) > 4*eps*float64(full.Len()) {
			t.Errorf("merged sketch phi=%v rank error %d", phi, e)
		}
	}

	h, err := quantilelb.Histogram(coordinator, 10)
	if err != nil {
		t.Fatal(err)
	}
	if float64(h.MaxSkew()) > 5*eps*float64(full.Len()) {
		t.Errorf("histogram skew %d too large", h.MaxSkew())
	}

	c := quantilelb.CDF(coordinator)
	med, _ := coordinator.Query(0.5)
	if v := c.Value(med); v < 0.45 || v > 0.55 {
		t.Errorf("CDF(median) = %v, want about 0.5", v)
	}

	// KS distance between the merged sketch and a direct sketch of the same
	// data should be tiny.
	direct := quantilelb.NewGK(eps)
	for _, x := range full.Items() {
		direct.Update(x)
	}
	if d := quantilelb.KSStatistic(coordinator, direct); d > 4*eps {
		t.Errorf("KS distance between merged and direct sketches = %v", d)
	}
}

// TestAdversarialThenBenignWorkload checks that a summary that has been
// through the adversarial construction still behaves correctly on a
// subsequent benign workload (no lingering corruption) by validating the GK
// invariant end to end on mixed input.
func TestAdversarialThenBenignWorkload(t *testing.T) {
	eps := 0.02
	s := quantilelb.NewGK(eps)
	gen := stream.NewGenerator(5)
	// Benign prefix, adversarial-looking sorted burst, then random again.
	var all []float64
	for _, st := range []*stream.Stream{gen.Uniform(20000), gen.Sorted(20000), gen.Reverse(20000), gen.Uniform(20000)} {
		for _, x := range st.Items() {
			s.Update(x)
			all = append(all, x)
		}
	}
	oracle := rank.Float64Oracle(all)
	for i := 0; i <= 100; i++ {
		phi := float64(i) / 100
		got, ok := s.Query(phi)
		if !ok {
			t.Fatalf("query failed")
		}
		if e := oracle.RankError(got, phi); float64(e) > eps*float64(len(all))+1 {
			t.Errorf("phi=%v rank error %d on mixed workload", phi, e)
		}
	}
}
