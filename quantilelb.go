// Package quantilelb is the public facade of the reproduction of
// "A Tight Lower Bound for Comparison-Based Quantile Summaries"
// (Cormode & Veselý, PODS 2020).
//
// It exposes, specialized to float64 streams, the pieces a downstream user
// needs most often:
//
//   - streaming quantile summaries (Greenwald–Khanna and its greedy variant,
//     MRL, KLL, the multi-level block-buffer summary MLQ, the mergeable
//     relative-error tail summary REQ, the randomized Felber–Ostrovsky
//     summary FO whose O((1/ε)·log(1/ε)) space beats the deterministic
//     lower bound, reservoir sampling, biased low-quantile summaries, and
//     the deliberately space-capped strawman),
//   - weighted ingestion (UpdateWeighted, WeightedUpdater): pre-counted or
//     importance-weighted observations ingest in o(w) per item on GK, KLL,
//     MRL, MLQ, and the reservoir, with rank error at most ε·W over the
//     total weight W,
//   - applications built on them (equi-depth histograms, CDF estimation,
//     Kolmogorov–Smirnov tests),
//   - a concurrent sharded ingestion layer (NewSharded) that spreads writes
//     over lock-striped shards of any mergeable summary and serves reads
//     from a merged snapshot with the same accuracy eps,
//   - and the paper's adversarial lower-bound construction, runnable against
//     any of the summaries to measure the space it forces.
//
// The full generic implementations live under internal/ (one package per
// subsystem; see DESIGN.md for the inventory), and the experiment drivers
// that regenerate every figure and claim of the paper are in
// internal/experiments (run them with cmd/experiments).
package quantilelb

import (
	"fmt"
	"math/big"
	"sync/atomic"

	"quantilelb/internal/biased"
	"quantilelb/internal/capped"
	"quantilelb/internal/cdf"
	"quantilelb/internal/core"
	"quantilelb/internal/encoding"
	"quantilelb/internal/fo"
	"quantilelb/internal/gk"
	"quantilelb/internal/histogram"
	"quantilelb/internal/kll"
	"quantilelb/internal/ks"
	"quantilelb/internal/mlq"
	"quantilelb/internal/mrl"
	"quantilelb/internal/order"
	"quantilelb/internal/req"
	"quantilelb/internal/sampling"
	"quantilelb/internal/sharded"
	"quantilelb/internal/store"
	"quantilelb/internal/summary"
	"quantilelb/internal/universe"
	"quantilelb/internal/window"
)

// Summary is the float64-specialized interface satisfied by every quantile
// summary in this library. It mirrors Definition 2.1 of the paper: a summary
// ingests a stream one item at a time, retains a subset of the items (the
// item array I), and answers quantile and rank queries from what it stored.
type Summary interface {
	// Update processes the next stream item.
	Update(x float64)
	// Query returns an approximate ϕ-quantile; false when empty.
	Query(phi float64) (float64, bool)
	// EstimateRank estimates the number of items ≤ q.
	EstimateRank(q float64) int
	// Count returns the number of items processed.
	Count() int
	// StoredItems returns the retained items in non-decreasing order.
	StoredItems() []float64
	// StoredCount returns the number of retained items (the paper's space
	// measure).
	StoredCount() int
}

// compile-time interface compatibility checks.
var (
	_ Summary = (*gk.Summary[float64])(nil)
	_ Summary = (*mrl.Summary[float64])(nil)
	_ Summary = (*kll.Sketch[float64])(nil)
	_ Summary = (*sampling.Reservoir[float64])(nil)
	_ Summary = (*biased.Summary[float64])(nil)
	_ Summary = (*capped.Summary[float64])(nil)
	_ Summary = (*window.Summary[float64])(nil)
	_ Summary = (*mlq.Summary)(nil)
	_ Summary = (*req.Summary)(nil)
	_ Summary = (*fo.Summary[float64])(nil)
	_ Summary = (*sharded.Sharded[float64, *gk.Summary[float64]])(nil)

	// compile-time mergeability checks: every factory NewSharded accepts.
	_ summary.Mergeable[*gk.Summary[float64]]         = (*gk.Summary[float64])(nil)
	_ summary.Mergeable[*kll.Sketch[float64]]         = (*kll.Sketch[float64])(nil)
	_ summary.Mergeable[*mrl.Summary[float64]]        = (*mrl.Summary[float64])(nil)
	_ summary.Mergeable[*sampling.Reservoir[float64]] = (*sampling.Reservoir[float64])(nil)
	_ summary.Mergeable[*mlq.Summary]                 = (*mlq.Summary)(nil)
	_ summary.Mergeable[*req.Summary]                 = (*req.Summary)(nil)
	_ summary.Mergeable[*fo.Summary[float64]]         = (*fo.Summary[float64])(nil)

	// compile-time weighted-capability checks: every mergeable family and the
	// sharded wrapper ingest weighted items natively.
	_ WeightedUpdater = (*gk.Summary[float64])(nil)
	_ WeightedUpdater = (*kll.Sketch[float64])(nil)
	_ WeightedUpdater = (*mrl.Summary[float64])(nil)
	_ WeightedUpdater = (*sampling.Reservoir[float64])(nil)
	_ WeightedUpdater = (*mlq.Summary)(nil)
	_ WeightedUpdater = (*req.Summary)(nil)
	_ WeightedUpdater = (*fo.Summary[float64])(nil)
	_ WeightedUpdater = (*sharded.Sharded[float64, *gk.Summary[float64]])(nil)
)

// WeightedUpdater is the weighted-ingestion interface implemented natively
// by GK, KLL, MRL, the reservoir, and the sharded wrapper over any of them.
// WeightedUpdate(x, w) is semantically equivalent to w repeated Update(x)
// calls — afterwards Count reports the total weight W, Query answers
// weighted quantiles within ±ε·W, and EstimateRank estimates the total
// weight of items ≤ q — but runs in o(w) time, so pre-counted histogram
// buckets and importance-weighted observations ingest at full speed. Weights
// must be positive integers; the methods panic on w ≤ 0 (use UpdateWeighted
// for an error-returning entry point that also covers non-native families).
type WeightedUpdater interface {
	// WeightedUpdate ingests one item carrying integer weight w ≥ 1.
	WeightedUpdate(x float64, w int64)
	// WeightedUpdateBatch ingests parallel item/weight slices in one pass.
	WeightedUpdateBatch(xs []float64, ws []int64)
}

// UpdateWeighted ingests (x, w) into any summary: through the native
// weighted path when s implements WeightedUpdater, and through the
// documented weight-expansion fallback otherwise (w repeated Updates,
// guarded so a weight beyond summary.MaxExpansionWeight = 65536 returns an
// error instead of stalling). It returns an error for non-positive weights.
func UpdateWeighted(s Summary, x float64, w int64) error {
	if w <= 0 {
		return fmt.Errorf("quantilelb: weight %d is not positive", w)
	}
	if wu, ok := s.(WeightedUpdater); ok {
		wu.WeightedUpdate(x, w)
		return nil
	}
	return summary.ExpandWeighted[float64](lift(s), x, w)
}

// NewGK returns a Greenwald–Khanna summary with accuracy eps, the
// deterministic comparison-based summary whose O((1/ε)·log εN) space the
// paper proves optimal.
func NewGK(eps float64) *gk.Summary[float64] { return gk.NewFloat64(eps) }

// NewGKGreedy returns the simplified greedy-compression GK variant discussed
// as an open problem in Section 6 of the paper.
func NewGKGreedy(eps float64) *gk.Summary[float64] {
	return gk.NewWithPolicy(order.Floats[float64](), eps, gk.PolicyGreedy)
}

// NewMRL returns a Manku–Rajagopalan–Lindsay summary with accuracy eps for
// streams of at most maxN items (MRL requires the length in advance).
func NewMRL(eps float64, maxN int) *mrl.Summary[float64] {
	return mrl.NewFloat64(eps, maxN)
}

// NewKLL returns a Karnin–Lang–Liberty randomized sketch sized for accuracy
// eps, seeded deterministically with seed.
func NewKLL(eps float64, seed int64) *kll.Sketch[float64] {
	return kll.NewFloat64(eps, kll.WithSeed(seed))
}

// NewMLQ returns a multi-level quantile summary with accuracy eps: a
// cache-resident block buffer in front of a MERGE/COMPRESS level cascade
// (internal/mlq), the batch-ingestion-optimized deterministic family. Its
// flush path is allocation-free in the steady state and its retained space
// is O((1/ε)·log²(εN)); see DESIGN.md for the eps accounting.
func NewMLQ(eps float64) *mlq.Summary { return mlq.NewFloat64(eps) }

// NewREQ returns a mergeable relative-error quantile summary with high-tail
// accuracy eps (internal/req): rank error at most ε·(N−t+1) at target rank t,
// so p99.9/p99.99 answers stay accurate — and the overall maximum exact — no
// matter how long the stream runs, in O((1/ε)·log(εN)) retained items. Use it
// when tail latency SLOs matter; use NewBiased for accuracy at LOW quantiles
// instead. Its Merge is a free COMBINE (any two req summaries merge,
// eps_new = max), so it runs under the sharded, keyed, and cluster tiers.
func NewREQ(eps float64) *req.Summary { return req.NewFloat64(eps) }

// NewFO returns a randomized Felber–Ostrovsky summary (internal/fo): a
// seeded sampler in front of a cascade of fixed-size blocks, retaining
// O((1/ε)·log(1/ε)) items independent of the stream length — below the
// paper's deterministic Ω((1/ε)·log εN) lower bound, which randomization is
// allowed to beat. Answers are within ε·N except with probability at most
// delta per query grid. All coin flips derive from seed, so runs are exactly
// reproducible; its Merge is a free COMBINE (eps_new = max, delta_new = sum),
// so it runs under the sharded, keyed, and cluster tiers.
func NewFO(eps, delta float64, seed int64) *fo.Summary[float64] {
	return fo.NewFloat64(fo.Config{Eps: eps, Delta: delta, Seed: seed})
}

// NewReservoir returns a reservoir-sampling estimator sized (via the DKW
// inequality) for accuracy eps with failure probability delta.
func NewReservoir(eps, delta float64, seed int64) *sampling.Reservoir[float64] {
	return sampling.NewFloat64(eps, delta, seed)
}

// NewBiased returns a biased (relative-error) quantile summary with relative
// accuracy eps (Section 6.4 of the paper).
func NewBiased(eps float64) *biased.Summary[float64] { return biased.NewFloat64(eps) }

// NewCapped returns the deliberately capacity-bounded strawman summary that
// the lower bound proves cannot exist for capacities in o((1/ε)·log εN): on
// benign streams it looks accurate, and the adversary defeats it.
func NewCapped(capacity int) *capped.Summary[float64] { return capped.NewFloat64(capacity) }

// NewSlidingWindow returns a summary of the most recent windowLen items with
// accuracy eps (the sliding-window model from the survey the paper cites).
func NewSlidingWindow(eps float64, windowLen int) *window.Summary[float64] {
	return window.NewFloat64(eps, windowLen)
}

// MergeGK folds b into a using the MERGE/COMBINE discipline of the GK
// lineage: the merged summary answers queries over the concatenated streams
// with error eps_new = max(eps_a, eps_b) — merging does not add error. b is
// not modified.
func MergeGK(a, b *gk.Summary[float64]) error { return a.Merge(b) }

// ShardedOption configures a sharded summary built by NewSharded.
type ShardedOption = sharded.Option

// WithRefreshEvery bounds snapshot staleness to n accepted updates; a reader
// finding the snapshot older triggers a copy-on-merge rebuild.
func WithRefreshEvery(n int) ShardedOption { return sharded.WithRefreshEvery(n) }

// WithWriteBuffer sets the per-shard write buffer size (0 disables
// buffering). Buffered items become visible at the next snapshot rebuild.
func WithWriteBuffer(n int) ShardedOption { return sharded.WithWriteBuffer(n) }

// NewSharded wraps any mergeable summary in the concurrent ingestion layer
// of internal/sharded: writes (Update, UpdateBatch) are spread over `shards`
// lock-striped instances produced by factory, and reads (Query,
// EstimateRank, CDF) are served from a periodically-rebuilt merged snapshot,
// so readers never block writers.
//
// Because every Merge in this library guarantees eps_new = max(eps_1, eps_2),
// the sharded summary answers queries with the same accuracy eps as a single
// instance from the factory, while sustaining concurrent writers. Use the
// *Factory helpers for the common backends:
//
//	s := quantilelb.NewSharded(quantilelb.GKFactory(0.01), 16)
//	go func() { s.Update(x) }() // any number of writers
//	q, _ := s.Query(0.99)       // any number of readers
func NewSharded[S sharded.Mergeable[float64, S]](factory func() S, shards int, opts ...ShardedOption) *sharded.Sharded[float64, S] {
	return sharded.New(factory, shards, opts...)
}

// GKFactory returns a factory of Greenwald–Khanna summaries with accuracy
// eps, for use with NewSharded.
func GKFactory(eps float64) func() *gk.Summary[float64] {
	return func() *gk.Summary[float64] { return gk.NewFloat64(eps) }
}

// KLLFactory returns a factory of KLL sketches with accuracy eps, for use
// with NewSharded. Each produced sketch draws a distinct deterministic seed
// derived from seed, so shards do not share compaction coin flips.
func KLLFactory(eps float64, seed int64) func() *kll.Sketch[float64] {
	var next atomic.Int64
	return func() *kll.Sketch[float64] {
		return kll.NewFloat64(eps, kll.WithSeed(seed+next.Add(1)))
	}
}

// MRLFactory returns a factory of MRL summaries with accuracy eps for a
// combined stream of at most maxN items, for use with NewSharded.
func MRLFactory(eps float64, maxN int) func() *mrl.Summary[float64] {
	return func() *mrl.Summary[float64] { return mrl.NewFloat64(eps, maxN) }
}

// MLQFactory returns a factory of multi-level summaries with accuracy eps,
// for use with NewSharded. Shards produce identical deterministic summaries,
// and sharded's Batched path feeds whole write buffers straight into the
// block-buffer flush, so this is the highest-throughput sharded backend.
func MLQFactory(eps float64) func() *mlq.Summary {
	return func() *mlq.Summary { return mlq.NewFloat64(eps) }
}

// REQFactory returns a factory of relative-error summaries with high-tail
// accuracy eps, for use with NewSharded: the sharded wrapper then serves
// p99.9+ queries at relative accuracy under concurrent writers, since req's
// COMBINE merge keeps eps_new = max across shards.
func REQFactory(eps float64) func() *req.Summary {
	return func() *req.Summary { return req.NewFloat64(eps) }
}

// FOFactory returns a factory of randomized Felber–Ostrovsky summaries with
// accuracy eps and failure probability delta, for use with NewSharded. Each
// produced summary draws a distinct deterministic seed derived from seed, so
// shards do not share coin flips; the merged view's delta is the sum of the
// shard deltas (the COMBINE accounting), so size delta for the shard count.
func FOFactory(eps, delta float64, seed int64) func() *fo.Summary[float64] {
	var next atomic.Int64
	return func() *fo.Summary[float64] {
		return fo.NewFloat64(fo.Config{Eps: eps, Delta: delta, Seed: seed + next.Add(1)})
	}
}

// ReservoirFactory returns a factory of reservoir samplers sized for
// accuracy eps and failure probability delta, for use with NewSharded. Each
// produced reservoir draws a distinct deterministic seed derived from seed.
func ReservoirFactory(eps, delta float64, seed int64) func() *sampling.Reservoir[float64] {
	var next atomic.Int64
	return func() *sampling.Reservoir[float64] {
		return sampling.NewFloat64(eps, delta, seed+next.Add(1))
	}
}

// BiasedFactory returns a factory of biased (relative-error at low ranks)
// summaries with relative accuracy eps, for use with NewSharded; the COMBINE
// merge keeps eps_new = max across shards, so the sharded view preserves the
// relative-error guarantee.
func BiasedFactory(eps float64) func() *biased.Summary[float64] {
	return func() *biased.Summary[float64] { return biased.NewFloat64(eps) }
}

// Store is the multi-tenant keyed tier (internal/store): a sharded registry
// mapping string keys — per-metric, per-endpoint, per-customer streams — to
// independent summaries created lazily from a factory, with per-key accuracy
// overrides and LRU/idle-TTL eviction under a global retained-bytes budget.
// Build one with NewStore.
type Store = store.Store

// StoreConfig parameterizes NewStore; the zero value gives GK summaries at
// eps = 0.01 with no eviction. See the field docs on the aliased type.
type StoreConfig = store.Config

// StoreSummary is the per-key summary interface a StoreConfig factory
// returns; every summary constructor in this package (NewGK, NewKLL, ...)
// produces one.
type StoreSummary = store.Summary

// NewStore returns a multi-tenant keyed store: Update(key, x) routes each
// metric/tenant stream into its own summary (created on first use), and
// Query(key, phi) answers per-key quantiles with that key's accuracy.
//
//	st := quantilelb.NewStore(quantilelb.StoreConfig{
//		Eps:              0.01,
//		EpsOverrides:     map[string]float64{"checkout.latency": 0.001},
//		MaxRetainedBytes: 64 << 20, // evict LRU keys beyond 64 MiB
//	})
//	st.Update("checkout.latency", 41.5)
//	p99, _ := st.Query("checkout.latency", 0.99)
func NewStore(cfg StoreConfig) *Store { return store.New(cfg) }

// OpenStore returns a keyed store with crash-safe persistence rooted at
// cfg.Dir: it loads the latest checkpoint, replays the write-ahead log, and
// logs subsequent updates. Call (*Store).Checkpoint to compact the log and
// (*Store).Close on shutdown. With cfg.Dir empty it behaves exactly like
// NewStore.
func OpenStore(cfg StoreConfig) (*Store, error) { return store.Open(cfg) }

// SnapshotStore serializes every key of a store into one multi-key container
// payload (the KindStore wire format of internal/encoding, documented in
// DESIGN.md); RestoreStore reverses it and (*Store).MergePayload folds it
// into an existing store per key under the COMBINE rule.
func SnapshotStore(st *Store) ([]byte, error) {
	payload, _, err := st.SnapshotPayload()
	return payload, err
}

// RestoreStore builds a store from a configuration and a container payload
// produced by SnapshotStore, adopting every snapshotted key.
func RestoreStore(cfg StoreConfig, payload []byte) (*Store, error) {
	return store.Restore(cfg, payload)
}

// Snapshot serializes any encodable summary into the compact binary wire
// payload of internal/encoding, dispatching on its concrete type: the GK,
// KLL, MRL, reservoir, sliding-window, MLQ, REQ, biased and FO summaries
// (and the store's exact buffer) encode directly, and a sharded summary
// (NewSharded) is refreshed first so the payload covers every accepted
// update — Snapshot is the checkpoint entry point, where completeness beats
// the lock-free staleness the serving tier tolerates.
// The payload is what the distributed tier ships between nodes
// (quantileserver's GET /v1/snapshot, quantileagg's pulls); RestoreAny
// reverses it.
func Snapshot(s Summary) ([]byte, error) {
	type payloader interface {
		Refresh()
		SnapshotPayload() ([]byte, int64, error)
	}
	if p, ok := s.(payloader); ok {
		p.Refresh()
		payload, _, err := p.SnapshotPayload()
		return payload, err
	}
	return encoding.Encode(s)
}

// RestoreAny reconstructs whichever summary a wire payload holds, dispatching
// on the payload's kind tag. The result answers queries and continues to
// accept updates; type-assert to the concrete type (e.g.
// *gk.Summary[float64]) when merge or family-specific methods are needed.
func RestoreAny(payload []byte) (Summary, error) {
	dec, err := encoding.Decode(payload)
	if err != nil {
		return nil, err
	}
	s, ok := dec.(Summary)
	if !ok {
		return nil, fmt.Errorf("quantilelb: payload decodes to %T, which is not a Summary", dec)
	}
	return s, nil
}

// adapter lifts the public Summary interface to the internal generic one
// (the method sets are identical).
type adapter struct{ Summary }

func (a adapter) Update(x float64)                { a.Summary.Update(x) }
func (a adapter) Query(p float64) (float64, bool) { return a.Summary.Query(p) }
func (a adapter) EstimateRank(q float64) int      { return a.Summary.EstimateRank(q) }
func (a adapter) Count() int                      { return a.Summary.Count() }
func (a adapter) StoredItems() []float64          { return a.Summary.StoredItems() }
func (a adapter) StoredCount() int                { return a.Summary.StoredCount() }

func lift(s Summary) summary.Summary[float64] {
	if g, ok := s.(summary.Summary[float64]); ok {
		return g
	}
	return adapter{s}
}

// Histogram builds an equi-depth histogram with b buckets from any summary.
// Each bucket holds approximately Count()/b items (within ±2εN for an
// ε-approximate summary).
func Histogram(s Summary, b int) (*histogram.Histogram[float64], error) {
	return histogram.Build[float64](lift(s), b)
}

// CDF returns an approximate empirical CDF estimator backed by the summary.
func CDF(s Summary) *cdf.Estimator[float64] {
	return cdf.New[float64](lift(s))
}

// KSStatistic returns the approximate two-sample Kolmogorov–Smirnov statistic
// between the distributions summarized by a and b; the estimate is within
// ε_a + ε_b of the exact statistic.
func KSStatistic(a, b Summary) float64 {
	return ks.Statistic[float64](lift(a), lift(b))
}

// AttackTarget names a summary the lower-bound adversary can be run against.
type AttackTarget string

// Attackable summaries.
const (
	TargetGK       AttackTarget = "gk"
	TargetGKGreedy AttackTarget = "gk-greedy"
	TargetCapped   AttackTarget = "capped"
	TargetKLL      AttackTarget = "kll"
	TargetBiased   AttackTarget = "biased"
	TargetFO       AttackTarget = "fo"
)

// LowerBoundReport is the distilled outcome of running the paper's
// adversarial construction against a summary.
type LowerBoundReport struct {
	// Eps, K and N are the construction parameters (N = (1/ε)·2^K).
	Eps float64
	K   int
	N   int
	// MaxStored is the maximum number of items the summary held.
	MaxStored int
	// LowerBound is the Ω((1/ε)·log εN) bound with the paper's constant.
	LowerBound float64
	// GKUpperBound is the Greenwald–Khanna space bound for the same N.
	GKUpperBound float64
	// Gap is the realized gap(π, ϱ); GapBound is 2εN (Lemma 3.4).
	Gap      int
	GapBound float64
	// FailedQuantile is true when the gap exceeded the bound and the summary
	// answered the witness query with error above εN.
	FailedQuantile bool
}

// RunLowerBound runs the adversarial construction at recursion level k
// against a fresh summary of the requested kind. capacity is only used for
// TargetCapped; seed only for TargetKLL and TargetFO.
func RunLowerBound(target AttackTarget, eps float64, k, capacity int, seed int64) (*LowerBoundReport, error) {
	uni := universe.NewRational()
	cmp := uni.Comparator()
	var factory func() summary.Summary[*big.Rat]
	switch target {
	case TargetGK:
		factory = func() summary.Summary[*big.Rat] { return gk.New(cmp, eps) }
	case TargetGKGreedy:
		factory = func() summary.Summary[*big.Rat] { return gk.NewGreedy(cmp, eps) }
	case TargetCapped:
		factory = func() summary.Summary[*big.Rat] { return capped.New(cmp, capacity) }
	case TargetKLL:
		factory = func() summary.Summary[*big.Rat] {
			return kll.New(cmp, kll.KForEpsilon(eps), kll.WithSeed(seed))
		}
	case TargetBiased:
		factory = func() summary.Summary[*big.Rat] { return biased.New(cmp, eps) }
	case TargetFO:
		factory = func() summary.Summary[*big.Rat] {
			return fo.New(cmp, fo.Config{Eps: eps, Delta: fo.DefaultDelta, Seed: seed})
		}
	default:
		return nil, fmt.Errorf("quantilelb: unknown attack target %q", target)
	}
	adv := &core.Adversary[*big.Rat]{Uni: uni, Cmp: cmp, Eps: eps, NewSummary: factory}
	res, err := adv.Run(k)
	if err != nil {
		return nil, err
	}
	rep := &LowerBoundReport{
		Eps:          res.Eps,
		K:            res.K,
		N:            res.N,
		MaxStored:    res.MaxStoredPi,
		LowerBound:   res.LowerBound,
		GKUpperBound: gk.UpperBoundSize(res.Eps, res.N),
		Gap:          res.Gap,
		GapBound:     res.GapBound,
	}
	if res.Witness != nil {
		rep.FailedQuantile = res.Witness.Exceeds()
	}
	return rep, nil
}

// TheoreticalLowerBound returns the Ω((1/ε)·log εN) lower bound of
// Theorem 2.2 (with the paper's unoptimized constant c = 1/8 − 2ε) for a
// stream of length n.
func TheoreticalLowerBound(eps float64, n int) float64 {
	if eps <= 0 || n <= 0 {
		return 0
	}
	// Express n as (1/ε)·2^k.
	x := eps * float64(n)
	if x < 2 {
		return core.LowerBoundItems(eps, 1)
	}
	k := 0
	for (1 << uint(k+1)) <= int(x) {
		k++
	}
	if k < 1 {
		k = 1
	}
	return core.LowerBoundItems(eps, k)
}

// GKUpperBound returns the O((1/ε)·log εN) upper bound on GK's space for a
// stream of length n.
func GKUpperBound(eps float64, n int) float64 { return gk.UpperBoundSize(eps, n) }
