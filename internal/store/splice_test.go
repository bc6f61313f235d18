package store

// The spliced snapshot must be invisible: every container SnapshotPayload or
// Checkpoint produces equals a from-scratch EncodeStore over a fresh Encode
// of every live key, across every family the server builds and randomized
// interleavings of every kind of mutation and read.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"quantilelb/internal/biased"
	"quantilelb/internal/encoding"
	"quantilelb/internal/gk"
	"quantilelb/internal/kll"
	"quantilelb/internal/mlq"
	"quantilelb/internal/mrl"
	"quantilelb/internal/req"
	"quantilelb/internal/sampling"
	"quantilelb/internal/testseed"
)

// spliceFamilies is every per-key family cmd/quantileserver builds, each as
// a store factory.
func spliceFamilies() map[string]func(eps float64) Summary {
	var seq atomic.Int64
	return map[string]func(eps float64) Summary{
		"biased": func(eps float64) Summary { return biased.NewFloat64(eps) },
		"fo":     foKeyFactory(0.01, 5),
		"gk":     func(eps float64) Summary { return gk.NewFloat64(eps) },
		"kll":    func(eps float64) Summary { return kll.NewFloat64(eps, kll.WithSeed(seq.Add(1))) },
		"mlq":    func(eps float64) Summary { return mlq.NewFloat64(eps) },
		"mrl":    func(eps float64) Summary { return mrl.NewFloat64(eps, 1<<20) },
		"req":    func(eps float64) Summary { return req.NewFloat64(eps) },
		"reservoir": func(eps float64) Summary {
			return sampling.NewFloat64(eps, 0.01, seq.Add(1))
		},
	}
}

// referenceContainer is the from-scratch container of the store's current
// state: Keys, then Encode of each key's summary, then EncodeStore.
func referenceContainer(t *testing.T, s *Store) []byte {
	t.Helper()
	var entries []encoding.KeyedPayload
	for _, key := range s.Keys() {
		h := s.get(key)
		h.sl.mu.Lock()
		p, err := encoding.Encode(h.sl.sum)
		h.sl.mu.Unlock()
		if err != nil {
			t.Fatalf("encoding %q: %v", key, err)
		}
		entries = append(entries, encoding.KeyedPayload{Key: key, Payload: p})
	}
	out, err := encoding.EncodeStore(entries)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSnapshotSpliceMatchesEncodeStore(t *testing.T) {
	for name, factory := range spliceFamilies() {
		t.Run(name, func(t *testing.T) {
			seed := testseed.For(t, "store-splice-"+name, 41)
			for lineage := int64(0); lineage < 4; lineage++ {
				spliceLineage(t, factory, seed+lineage)
			}
		})
	}
}

// spliceLineage runs one randomized interleaving and checks every container
// against the reference.
func spliceLineage(t *testing.T, factory func(eps float64) Summary, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cfg := Config{Eps: 0.05, Factory: factory, PromoteItems: 12, MaxKeys: 24, Dir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peer := New(Config{Eps: 0.05, Factory: factory, PromoteItems: 12})
	key := func() string { return fmt.Sprintf("k%02d", rng.Intn(30)) }
	values := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		return xs
	}
	for op := 0; op < 400; op++ {
		switch r := rng.Intn(100); {
		case r < 20:
			s.Update(key(), rng.Float64())
		case r < 35:
			s.UpdateBatch(key(), values(1+rng.Intn(40)))
		case r < 42:
			xs := values(1 + rng.Intn(6))
			ws := make([]int64, len(xs))
			for i := range ws {
				ws[i] = 1 + rng.Int63n(9)
			}
			if err := s.WeightedUpdateBatch(key(), xs, ws); err != nil {
				t.Fatal(err)
			}
		case r < 46:
			s.Delete(key())
		case r < 50:
			peer.UpdateBatch(key(), values(1+rng.Intn(60)))
			payload, _, err := peer.SnapshotPayload()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.MergePayload(payload); err != nil {
				t.Fatal(err)
			}
		case r < 75:
			k := key()
			s.Query(k, rng.Float64())
			s.EstimateRank(k, rng.NormFloat64()*100)
			s.CDF(k, rng.NormFloat64()*100)
			s.Count(k)
		case r < 92:
			got, _, err := s.SnapshotPayload()
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceContainer(t, s); !bytes.Equal(got, want) {
				t.Fatalf("seed %d op %d: spliced snapshot differs from EncodeStore (%d vs %d bytes)", seed, op, len(got), len(want))
			}
		default:
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, checkpointFile))
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceContainer(t, s); !bytes.Equal(got, want) {
				t.Fatalf("seed %d op %d: checkpoint differs from EncodeStore (%d vs %d bytes)", seed, op, len(got), len(want))
			}
		}
	}
	if s.Stats().Promotions == 0 || s.Stats().EvictionsLRU == 0 {
		t.Fatalf("seed %d: lineage exercised no promotion or no eviction: %+v", seed, s.Stats())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSpliceRace runs writers, readers, snapshots and checkpoints
// together; under -race it checks the locking of the splice, and at the end
// the quiesced store must still snapshot byte-identically to the reference.
func TestSnapshotSpliceRace(t *testing.T) {
	for _, name := range []string{"gk", "mlq"} {
		t.Run(name, func(t *testing.T) {
			factory := spliceFamilies()[name]
			s, err := Open(Config{Eps: 0.05, Factory: factory, PromoteItems: 16, MaxKeys: 48, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			run := func(f func(i int)) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						f(i)
					}
				}()
			}
			for w := 0; w < 3; w++ {
				run(func(i int) {
					k := fmt.Sprintf("k%02d", (i*7+w)%64)
					s.UpdateBatch(k, []float64{float64(i), float64(i * w)})
					if i%50 == 0 {
						s.Delete(k)
					}
				})
			}
			run(func(i int) { s.Query(fmt.Sprintf("k%02d", i%64), 0.5) })
			run(func(int) {
				if _, _, err := s.SnapshotPayload(); err != nil {
					t.Error(err)
				}
			})
			for i := 0; i < 20; i++ {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			got, _, err := s.SnapshotPayload()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, referenceContainer(t, s)) {
				t.Fatal("quiesced snapshot differs from EncodeStore")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkSnapshotPayload snapshots the serve-mixed store (serveMixedStore)
// with 150 small writes between calls: the splice re-encodes only the
// written keys.
func BenchmarkSnapshotPayload(b *testing.B) {
	s, write := serveMixedStore(b, "")
	if _, _, err := s.SnapshotPayload(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 150; j++ {
			write()
		}
		b.StartTimer()
		if _, _, err := s.SnapshotPayload(); err != nil {
			b.Fatal(err)
		}
	}
}
