package cluster_test

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"

	"quantilelb/internal/cluster"
	"quantilelb/internal/encoding"
	"quantilelb/internal/mlq"
	"quantilelb/internal/testseed"
)

// movingMLQSource is a peer whose mlq summary takes 200 new items before
// every fetch, so every pull round publishes a freshly decoded view.
func movingMLQSource(name string, eps float64, seed uint64) *cluster.SummarySource {
	s := mlq.NewFloat64(eps)
	rng := rand.New(rand.NewPCG(seed, 1))
	return &cluster.SummarySource{SourceName: name, Payload: func() ([]byte, error) {
		batch := make([]float64, 200)
		for i := range batch {
			batch[i] = rng.Float64() * 1000
		}
		s.UpdateBatch(batch)
		return encoding.Encode(s)
	}}
}

// TestAggregatorReadsDuringPulls reads the single-stream aggregator's
// published view from several goroutines, and re-exports it from another,
// while pull rounds replace it. Run it with -race: mlq fills a lazy query
// cache on its first read after a decode or a Prune, so every read of a
// published view must hold that view's lock. Two setups publish such a
// view: one mlq peer (its decoded summary is the view) and a tree combiner
// over two mlq children (its pruned merge is).
func TestAggregatorReadsDuringPulls(t *testing.T) {
	seed := uint64(testseed.For(t, "aggregator-reads-during-pulls", 47))
	setups := []struct {
		name  string
		peers int
		agg   func() (*cluster.Aggregator, error)
	}{
		{"one mlq peer", 1, func() (*cluster.Aggregator, error) {
			return cluster.New(movingMLQSource("leaf", 0.01, seed)), nil
		}},
		{"tree over mlq children", 2, func() (*cluster.Aggregator, error) {
			return cluster.NewTree(cluster.TreeConfig{Eps: 0.02, Height: 2, Level: 2},
				movingMLQSource("a", 0.01, seed), movingMLQSource("b", 0.01, seed+1))
		}},
	}
	for _, setup := range setups {
		t.Run(setup.name, func(t *testing.T) {
			agg, err := setup.agg()
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if err := agg.PullOnce(ctx); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			loop := func(read func() error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := read(); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			for range 3 {
				loop(func() error {
					agg.Query(0.5)
					agg.EstimateRank(500)
					agg.CDF(500)
					agg.StoredItems()
					agg.StoredCount()
					return nil
				})
			}
			loop(func() error {
				_, _, err := agg.SnapshotPayload()
				return err
			})
			const rounds = 30
			for round := 1; round <= rounds; round++ {
				if err := agg.PullOnce(ctx); err != nil {
					t.Errorf("round %d: %v", round, err)
					break
				}
			}
			close(stop)
			wg.Wait()
			if want := setup.peers * 200 * (rounds + 1); agg.Count() != want {
				t.Errorf("view covers %d items after %d rounds, want %d", agg.Count(), rounds, want)
			}
			if got := agg.ContributingPeers(); got != setup.peers {
				t.Errorf("%d contributing peers, want %d", got, setup.peers)
			}
		})
	}
}
