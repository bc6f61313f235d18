package cluster

// Tests of the keyed aggregator's incremental rebuild: after every round the
// published view must equal a from-scratch decode and merge of the peers'
// current containers, a round must decode only the records of the keys that
// changed, and a failed round must leave the published view and the
// per-peer record state exactly as they were.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"

	"quantilelb/internal/encoding"
	"quantilelb/internal/kll"
	"quantilelb/internal/mlq"
	"quantilelb/internal/store"
	"quantilelb/internal/summary"
	"quantilelb/internal/testseed"
)

// flakySource wraps a Source. While fail is set, a fetch errors without
// reaching the peer; while full is set, a fetch drops its ETag, so the peer
// answers with its full payload instead of a 304 or a delta.
type flakySource struct {
	Source
	fail, full bool
}

func (f *flakySource) Fetch(ctx context.Context, etag string) ([]byte, string, bool, error) {
	if f.fail {
		return nil, "", false, errors.New("injected fetch failure")
	}
	if f.full {
		etag = ""
	}
	return f.Source.Fetch(ctx, etag)
}

// scratchView is the merged view a full rebuild derives from containers.
type scratchView struct {
	keys     []string
	total    int
	peerN    []int
	snapshot []byte
}

// fromScratch decodes every record of every container and merges them per
// key in peer order, as a rebuild with no previous view does.
func fromScratch(t *testing.T, containers [][]byte) scratchView {
	t.Helper()
	merged := map[string]any{}
	v := scratchView{peerN: make([]int, len(containers))}
	for i, c := range containers {
		if len(c) == 0 {
			continue
		}
		recs, err := encoding.DecodeStore(c)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		for _, rec := range recs {
			dec, err := encoding.Decode(rec.Payload)
			if err != nil {
				t.Fatalf("peer %d key %q: %v", i, rec.Key, err)
			}
			v.peerN[i] += dec.(summary.Summary[float64]).Count()
			if cur, ok := merged[rec.Key]; ok {
				if merged[rec.Key], err = encoding.MergeAdopting(cur, dec); err != nil {
					t.Fatalf("peer %d key %q: %v", i, rec.Key, err)
				}
			} else {
				merged[rec.Key] = dec
			}
		}
	}
	entries := make([]encoding.KeyedPayload, 0, len(merged))
	for k, s := range merged {
		v.keys = append(v.keys, k)
		v.total += s.(summary.Summary[float64]).Count()
		p, err := encoding.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, encoding.KeyedPayload{Key: k, Payload: p})
	}
	slices.Sort(v.keys)
	var err error
	if v.snapshot, err = encoding.EncodeStore(entries); err != nil {
		t.Fatal(err)
	}
	return v
}

// checkView compares the aggregator's published view with want.
func checkView(t *testing.T, a *KeyedAggregator, want scratchView) {
	t.Helper()
	if got := a.Keys(); !slices.Equal(got, want.keys) {
		t.Fatalf("Keys = %v, want %v", got, want.keys)
	}
	if got := a.TotalCount(); got != want.total {
		t.Fatalf("TotalCount = %d, want %d", got, want.total)
	}
	for i, st := range a.Status() {
		if st.N != want.peerN[i] {
			t.Fatalf("peer %d: Status().N = %d, want %d", i, st.N, want.peerN[i])
		}
	}
	snap, _, err := a.SnapshotPayload()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != string(want.snapshot) {
		t.Fatalf("SnapshotPayload differs from a from-scratch merge (%d vs %d bytes)", len(snap), len(want.snapshot))
	}
}

// recordsOf returns a container's records by key.
func recordsOf(t *testing.T, container []byte) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	if len(container) == 0 {
		return out
	}
	recs, err := encoding.DecodeStore(container)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		out[r.Key] = r.Payload
	}
	return out
}

// roundDiff is what changed between the containers of two published views.
type roundDiff struct {
	changed  int // records that are new or whose bytes differ
	appeared int // records of keys new to a peer that already had a container
	vanished int // records a peer no longer holds
	others   int // unchanged records of keys some other peer changed
	promoted int // records that went from an exact buffer to a sketch
}

// diffContainers compares the containers a view was built from with the
// ones the next view is built from.
func diffContainers(t *testing.T, prev, cur [][]byte) roundDiff {
	t.Helper()
	var d roundDiff
	dirty := map[string]bool{}
	prevRecs := make([]map[string][]byte, len(prev))
	curRecs := make([]map[string][]byte, len(cur))
	for i := range cur {
		prevRecs[i], curRecs[i] = recordsOf(t, prev[i]), recordsOf(t, cur[i])
		for k, p := range curRecs[i] {
			old, ok := prevRecs[i][k]
			if ok && string(old) == string(p) {
				continue
			}
			d.changed++
			dirty[k] = true
			if !ok && len(prev[i]) > 0 {
				d.appeared++
			}
			if ok && kindOf(t, old) == encoding.KindExact && kindOf(t, p) != encoding.KindExact {
				d.promoted++
			}
		}
		for k := range prevRecs[i] {
			if _, ok := curRecs[i][k]; !ok {
				d.vanished++
				dirty[k] = true
			}
		}
	}
	for i := range cur {
		for k, p := range curRecs[i] {
			if old, ok := prevRecs[i][k]; dirty[k] && ok && string(old) == string(p) {
				d.others++
			}
		}
	}
	return d
}

func kindOf(t *testing.T, payload []byte) encoding.Kind {
	t.Helper()
	k, err := encoding.DetectKind(payload)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// peerContainers returns the containers the aggregator currently holds.
func peerContainers(a *KeyedAggregator) [][]byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([][]byte, len(a.peers))
	for i, p := range a.peers {
		out[i] = p.payload
	}
	return out
}

// keyedCluster is three in-process keyed stores served over loopback HTTP
// and pulled, with delta negotiation, by one keyed aggregator.
type keyedCluster struct {
	stores []*store.Store
	srcs   []*flakySource
	agg    *KeyedAggregator
}

func newKeyedCluster(t *testing.T, factory func(eps float64) store.Summary) *keyedCluster {
	t.Helper()
	c := &keyedCluster{}
	var srcs []Source
	for range 3 {
		st := store.New(store.Config{Eps: 0.05, Factory: factory})
		srv := httptest.NewServer(NewKeyedServerHandler(st))
		t.Cleanup(srv.Close)
		src := &flakySource{Source: &HTTPSource{URL: srv.URL, Path: "/v1/store/snapshot", Delta: true}}
		c.stores = append(c.stores, st)
		c.srcs = append(c.srcs, src)
		srcs = append(srcs, src)
	}
	c.agg = NewKeyed(srcs...)
	return c
}

// writeRound applies one round of random writes: a few keys of each chosen
// store get small batches, a hot key gets a larger one (driving exact
// buffers past the promotion threshold), and now and then a key is created
// or deleted.
func (c *keyedCluster) writeRound(rng *rand.Rand, round int) {
	for i, st := range c.stores {
		if rng.IntN(4) == 0 {
			continue // an idle peer answers 304
		}
		for range 1 + rng.IntN(3) {
			key := "key." + strconv.Itoa(rng.IntN(24))
			batch := make([]float64, 1+rng.IntN(12))
			for j := range batch {
				batch[j] = rng.Float64() * 1000
			}
			st.UpdateBatch(key, batch)
		}
		if rng.IntN(3) == 0 {
			batch := make([]float64, 20+rng.IntN(40))
			for j := range batch {
				batch[j] = rng.NormFloat64() * 100
			}
			st.UpdateBatch("hot."+strconv.Itoa(rng.IntN(3)), batch)
		}
		if rng.IntN(5) == 0 {
			st.Update(fmt.Sprintf("new.%d.%d", round, i), rng.Float64())
		}
		if rng.IntN(6) == 0 {
			if keys := st.Keys(); len(keys) > 0 {
				st.Delete(keys[rng.IntN(len(keys))])
			}
		}
	}
}

func TestKeyedIncrementalRebuildMatchesFullRebuild(t *testing.T) {
	families := []struct {
		name    string
		factory func(eps float64) store.Summary
	}{
		{"gk", nil},
		{"mlq", func(eps float64) store.Summary { return mlq.NewFloat64(eps) }},
	}
	for fi, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(testseed.For(t, "keyed-incremental-"+fam.name, int64(41+fi))), 1))
			c := newKeyedCluster(t, fam.factory)
			ctx := context.Background()
			built := make([][]byte, len(c.srcs)) // containers of the published view
			var total roundDiff
			failedRounds, rebuiltRounds := 0, 0
			const rounds = 60
			for round := range rounds {
				c.writeRound(rng, round)
				failing := -1
				for _, src := range c.srcs {
					src.fail, src.full = false, false
					if round > 0 && rng.IntN(8) == 0 {
						src.full = true
					}
				}
				if round > 0 && rng.IntN(6) == 0 {
					failing = rng.IntN(len(c.srcs))
					c.srcs[failing].fail = true
					failedRounds++
				}
				version, _ := c.agg.SnapshotVersion()
				err := c.agg.PullOnce(ctx)
				if (err != nil) != (failing >= 0) {
					t.Fatalf("round %d: PullOnce error %v with failing peer %d", round, err, failing)
				}
				cur := peerContainers(c.agg)
				if v, _ := c.agg.SnapshotVersion(); v != version {
					rebuiltRounds++
					d := diffContainers(t, built, cur)
					if want := d.changed + d.others; c.agg.decoded != want {
						t.Fatalf("round %d: decoded %d records, want %d changed + %d of the same keys on other peers",
							round, c.agg.decoded, d.changed, d.others)
					}
					total.changed += d.changed
					total.appeared += d.appeared
					total.vanished += d.vanished
					total.others += d.others
					total.promoted += d.promoted
					built = cur
				}
				checkView(t, c.agg, fromScratch(t, cur))
			}
			// The rounds must have exercised every path the incremental
			// rebuild has.
			full, delta := 0, 0
			for _, st := range c.agg.Status() {
				delta += st.DeltaFetches
				full += st.Fetches - st.NotModified - st.DeltaFetches
			}
			full -= failedRounds
			t.Logf("%d rounds: %d rebuilt, %d with a failed fetch; %d delta and %d full fetches; records: %d changed (%d new keys), %d vanished, %d re-decoded for other peers, %d promoted",
				rounds, rebuiltRounds, failedRounds, delta, full, total.changed, total.appeared, total.vanished, total.others, total.promoted)
			if failedRounds == 0 || delta == 0 || full <= len(c.srcs) || total.appeared == 0 || total.vanished == 0 || total.others == 0 || total.promoted == 0 {
				t.Fatal("the randomized rounds missed a path: want failed fetches, delta and repeated full fetches, new and vanished keys, keys shared across peers and promotions")
			}
		})
	}
}

// scriptedSource serves whatever container the test sets, ETag'd by its
// content hash, and records the ETag each fetch carried.
type scriptedSource struct {
	name      string
	container []byte
	etags     []string
}

func (s *scriptedSource) Name() string { return s.name }

func (s *scriptedSource) Fetch(_ context.Context, etag string) ([]byte, string, bool, error) {
	s.etags = append(s.etags, etag)
	cur := strconv.FormatUint(encoding.PayloadHash(s.container), 16)
	if etag == cur {
		return nil, etag, true, nil
	}
	return s.container, cur, false, nil
}

// container encodes summaries as a KindStore container.
func container(t *testing.T, sums map[string]any) []byte {
	t.Helper()
	var entries []encoding.KeyedPayload
	for k, s := range sums {
		p, err := encoding.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, encoding.KeyedPayload{Key: k, Payload: p})
	}
	c, err := encoding.EncodeStore(entries)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// kllOf returns a KLL sketch at eps over n values starting at from.
func kllOf(eps float64, from, n int) *kll.Sketch[float64] {
	s := kll.NewFloat64(eps, kll.WithSeed(5))
	for i := range n {
		s.Update(float64(from + i))
	}
	return s
}

// TestKeyedAggregatorPoisonedPeer covers a peer whose container holds a
// record that does not decode, and one whose record cannot merge with the
// other peer's record of the same key.
func TestKeyedAggregatorPoisonedPeer(t *testing.T) {
	undecodable := func() []byte {
		// A record whose header opens but whose body is cut short.
		p := mustEncode(t, kllOf(0.01, 500, 300))
		c, err := encoding.EncodeStore([]encoding.KeyedPayload{
			{Key: "shared", Payload: p[:len(p)/2]},
			{Key: "b.only", Payload: mustEncode(t, kllOf(0.01, 0, 60))},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	unmergeable := func() []byte {
		// Peer a's "shared" sketch has the k of eps 0.01; this one does not.
		return container(t, map[string]any{"shared": kllOf(0.05, 0, 300), "b.only": kllOf(0.01, 0, 60)})
	}
	for _, tc := range []struct {
		name   string
		poison func() []byte
	}{
		{"undecodable record", undecodable},
		{"kll k mismatch", unmergeable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := &scriptedSource{name: "a", container: container(t, map[string]any{"shared": kllOf(0.01, 1000, 300), "a.only": kllOf(0.01, 0, 10)})}
			b := &scriptedSource{name: "b", container: container(t, map[string]any{"shared": kllOf(0.01, 0, 300), "b.only": kllOf(0.01, 0, 50)})}
			agg := NewKeyed(a, b)
			ctx := context.Background()
			if err := agg.PullOnce(ctx); err != nil {
				t.Fatal(err)
			}
			before := fromScratch(t, [][]byte{a.container, b.container})
			checkView(t, agg, before)
			version, _ := agg.SnapshotVersion()

			// b's next container changes "b.only" and poisons "shared".
			b.container = tc.poison()
			if err := agg.PullOnce(ctx); err == nil {
				t.Fatal("PullOnce over a poisoned container succeeded")
			}
			if v, _ := agg.SnapshotVersion(); v != version {
				t.Fatalf("a failed round published view %d", v)
			}
			checkView(t, agg, before) // the previous view keeps serving
			st := agg.Status()[1]
			if st.Healthy || st.LastError == "" || st.PayloadBytes != 0 {
				t.Fatalf("poisoned peer status %+v, want unhealthy with an error and no payload", st)
			}
			// The dropped ETag makes the next round refetch in full, which
			// fails again while the peer still serves the poison.
			if err := agg.PullOnce(ctx); err == nil {
				t.Fatal("second PullOnce over a poisoned container succeeded")
			}
			if got := b.etags[len(b.etags)-1]; got != "" {
				t.Fatalf("round after the failure fetched with ETag %q, want a full fetch", got)
			}

			// A good container whose "b.only" equals the poisoned one's: had
			// a failed round committed its record state, that record would
			// count as unchanged and the view would keep the old summary.
			b.container = container(t, map[string]any{"shared": kllOf(0.01, 0, 310), "b.only": kllOf(0.01, 0, 60)})
			if err := agg.PullOnce(ctx); err != nil {
				t.Fatal(err)
			}
			if got := b.etags[len(b.etags)-1]; got != "" {
				t.Fatalf("recovery round fetched with ETag %q, want a full fetch", got)
			}
			checkView(t, agg, fromScratch(t, [][]byte{a.container, b.container}))
			if st := agg.Status()[1]; !st.Healthy || st.LastError != "" {
				t.Fatalf("recovered peer status %+v", st)
			}
			// "shared" is re-derived from both peers, "b.only" from b.
			if agg.decoded != 3 {
				t.Fatalf("recovery round decoded %d records, want 3", agg.decoded)
			}
		})
	}
}

func mustEncode(t *testing.T, s any) []byte {
	t.Helper()
	p, err := encoding.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestKeyedAggregatorReadsDuringPulls reads every key of the published view
// from several goroutines while pull rounds replace keys under them. Run it
// with -race: the rebuild must never write to a summary a reader can see.
func TestKeyedAggregatorReadsDuringPulls(t *testing.T) {
	c := newKeyedCluster(t, func(eps float64) store.Summary { return mlq.NewFloat64(eps) })
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(uint64(testseed.For(t, "keyed-reads-during-pulls", 43)), 1))
	c.writeRound(rng, 0)
	if err := c.agg.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A key listed by one view may be gone from the next, so
				// the reads are not checked against each other here.
				for _, k := range c.agg.Keys() {
					c.agg.Count(k)
					c.agg.Query(k, 0.5)
					c.agg.EstimateRank(k, 500)
					c.agg.CDF(k, 500)
				}
				if _, _, err := c.agg.SnapshotPayload(); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}()
	}
	for round := 1; round <= 30; round++ {
		c.writeRound(rng, round)
		if err := c.agg.PullOnce(ctx); err != nil {
			t.Errorf("round %d: %v", round, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	want := fromScratch(t, peerContainers(c.agg))
	if got := c.agg.Keys(); !slices.Equal(got, want.keys) {
		t.Fatalf("Keys = %v, want %v", got, want.keys)
	}
	if got := c.agg.TotalCount(); got != want.total {
		t.Fatalf("TotalCount = %d, want %d", got, want.total)
	}
}
