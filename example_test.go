package quantilelb_test

// Runnable godoc examples for the public facade. `go test` executes these,
// so every snippet shown in the documentation is verified on each run.

import (
	"fmt"
	"math"

	quantilelb "quantilelb"
)

// ExampleNewGK is the one-minute tour: stream items in, query quantiles and
// ranks out. GK is deterministic, so the output is exact and stable.
func ExampleNewGK() {
	s := quantilelb.NewGK(0.01) // ε = 1%: every answer within ±1% of N ranks
	for i := 1; i <= 10_000; i++ {
		s.Update(float64(i))
	}
	median, _ := s.Query(0.5)
	fmt.Println("n:", s.Count())
	fmt.Println("median within 1%:", math.Abs(median-5000) <= 100)
	fmt.Println("rank(2500) within 1%:", math.Abs(float64(s.EstimateRank(2500)-2500)) <= 100)
	// Output:
	// n: 10000
	// median within 1%: true
	// rank(2500) within 1%: true
}

// ExampleNewSharded wraps GK in the concurrent ingestion layer: batched
// writes go to lock-striped shards, reads come from a merged snapshot with
// the same ε as a single-writer summary. (Shard assignment is randomized, so
// the example asserts the ε guarantee rather than an exact value.)
func ExampleNewSharded() {
	s := quantilelb.NewSharded(quantilelb.GKFactory(0.01), 4)
	batch := make([]float64, 0, 1000)
	for i := 1; i <= 10_000; i++ {
		batch = append(batch, float64(i))
		if len(batch) == cap(batch) {
			s.UpdateBatch(batch) // one lock acquisition, one merge pass
			batch = batch[:0]
		}
	}
	s.Refresh() // force full visibility before reading
	p99, _ := s.Query(0.99)
	fmt.Println("n:", s.Count())
	fmt.Println("p99 within 1%:", math.Abs(p99-9900) <= 100)
	// Output:
	// n: 10000
	// p99 within 1%: true
}

// ExampleSnapshot round-trips a summary through the binary wire format
// (DESIGN.md documents the layout): the restored copy answers queries
// identically and keeps accepting updates.
func ExampleSnapshot() {
	s := quantilelb.NewGK(0.05)
	for i := 1; i <= 1000; i++ {
		s.Update(float64(i))
	}
	payload, _ := quantilelb.Snapshot(s)
	restored, _ := quantilelb.RestoreAny(payload)
	a, _ := s.Query(0.5)
	b, _ := restored.Query(0.5)
	fmt.Println("counts equal:", restored.Count() == s.Count())
	fmt.Println("answers equal:", a == b)
	restored.Update(1001) // the restored summary is live, not a snapshot
	fmt.Println("keeps ingesting:", restored.Count())
	// Output:
	// counts equal: true
	// answers equal: true
	// keeps ingesting: 1001
}

// ExampleNewStore is the keyed-metrics tour: one store, one summary per
// metric key, created lazily and queried independently — with a per-key
// accuracy override for the metric that matters most.
func ExampleNewStore() {
	st := quantilelb.NewStore(quantilelb.StoreConfig{
		Eps:          0.02,
		EpsOverrides: map[string]float64{"checkout.latency": 0.001},
	})
	for i := 1; i <= 10_000; i++ {
		st.Update("checkout.latency", float64(i))
		st.Update("search.latency", float64(i%100))
	}
	p99, _ := st.Query("checkout.latency", 0.99)
	fmt.Println("keys:", st.Keys())
	fmt.Println("checkout p99 within 0.1%:", math.Abs(p99-9900) <= 10)
	fmt.Println("search n:", st.Count("search.latency"))
	// Output:
	// keys: [checkout.latency search.latency]
	// checkout p99 within 0.1%: true
	// search n: 10000
}

// ExampleUpdateWeighted ingests pre-counted observations: an item of weight
// w counts as w stream items, so a histogram bucket or an importance weight
// ingests in one call instead of w. GK, KLL, MRL, and the reservoir take the
// native o(w) path; other families fall back to guarded expansion.
func ExampleUpdateWeighted() {
	s := quantilelb.NewGK(0.01)
	// A pre-aggregated latency histogram: value -> observation count.
	for v, count := range map[float64]int64{10: 700, 50: 250, 250: 50} {
		if err := quantilelb.UpdateWeighted(s, v, count); err != nil {
			panic(err)
		}
	}
	p50, _ := s.Query(0.50)
	p99, _ := s.Query(0.99)
	fmt.Println("total weight:", s.Count())
	fmt.Println("p50:", p50)
	fmt.Println("p99:", p99)
	// Output:
	// total weight: 1000
	// p50: 10
	// p99: 250
}
