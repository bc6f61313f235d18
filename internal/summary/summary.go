// Package summary defines the interfaces shared by all quantile summaries in
// this repository, together with an instrumentation wrapper that records the
// quantities the lower-bound experiments measure (maximum number of stored
// items, number of comparisons, number of updates).
//
// The interfaces mirror Definition 2.1 of Cormode & Veselý (PODS 2020): a
// comparison-based quantile summary processes a stream one item at a time,
// stores a subset of the items it has seen (the item array I), and answers
// quantile queries by returning one of the stored items.
package summary

import (
	"fmt"

	"quantilelb/internal/order"
)

// Quantile is the minimal interface of a streaming quantile summary.
type Quantile[T any] interface {
	// Update processes the next stream item.
	Update(x T)
	// Query returns an (approximate) ϕ-quantile of the items processed so
	// far, for ϕ in [0, 1]. The boolean is false when the summary is empty.
	Query(phi float64) (T, bool)
	// Count returns the number of items processed so far.
	Count() int
}

// RankEstimator is implemented by summaries that can also estimate the rank
// of an arbitrary query item (the Estimating Rank problem of Section 6.2):
// the number of stream items that are not larger than q, up to ±εN.
type RankEstimator[T any] interface {
	// EstimateRank returns an estimate of |{x in stream : x <= q}|.
	EstimateRank(q T) int
}

// Inspectable is implemented by summaries that expose their item array I of
// Definition 2.1: the items from the stream currently retained in memory.
// The adversarial construction requires this view.
type Inspectable[T any] interface {
	// StoredItems returns the retained items in non-decreasing order.
	// The returned slice is owned by the caller.
	StoredItems() []T
	// StoredCount returns len(StoredItems()) without materializing it.
	StoredCount() int
}

// Summary combines the capabilities every deterministic comparison-based
// summary in this repository provides.
type Summary[T any] interface {
	Quantile[T]
	RankEstimator[T]
	Inspectable[T]
}

// WeightedUpdater is implemented by summaries that ingest weighted items
// natively. WeightedUpdate(x, w) is semantically equivalent to w repeated
// calls of Update(x) — the summary afterwards answers queries over the
// weight-expanded multiset, with rank error at most ε·W where W is the total
// weight ingested — but a native implementation achieves it in o(w) time
// (GK inserts one tuple carrying the whole run, KLL and MRL place the weight
// by its binary decomposition, the reservoir draws closed-form skips).
//
// Under this equivalence Count reports the total weight W, Query(ϕ) answers
// the weighted ϕ-quantile, and EstimateRank(q) estimates the total weight of
// items ≤ q. Weights must be positive; implementations panic on w ≤ 0
// exactly as constructors panic on an invalid ε (the HTTP tier validates
// weights before they reach the library). Families without a native path use
// the ExpandWeighted fallback instead.
type WeightedUpdater[T any] interface {
	// WeightedUpdate processes one item carrying an integer weight w ≥ 1.
	WeightedUpdate(x T, w int64)
	// WeightedUpdateBatch processes a batch of items with their parallel
	// weights slice (len(ws) must equal len(xs)).
	WeightedUpdateBatch(xs []T, ws []int64)
}

// MaxExpansionWeight bounds the per-item weight ExpandWeighted accepts. The
// fallback costs O(w) work and O(w) stream positions, so an unbounded weight
// would let a single request stall the process; native implementations are
// sublinear in w and accept any positive weight.
const MaxExpansionWeight = 1 << 16

// ExpandWeighted ingests (x, w) into any summary by repeating Update w
// times: the documented fallback for families without a native weighted path
// (biased, capped, window, offline). It returns an error — rather
// than looping unboundedly — when w is non-positive or exceeds
// MaxExpansionWeight, the overflow guard for the expansion.
func ExpandWeighted[T any](s Quantile[T], x T, w int64) error {
	if w <= 0 {
		return fmt.Errorf("summary: weight %d is not positive", w)
	}
	if w > MaxExpansionWeight {
		return fmt.Errorf("summary: weight %d exceeds the expansion-fallback cap %d (use a natively weighted family)", w, MaxExpansionWeight)
	}
	for i := int64(0); i < w; i++ {
		s.Update(x)
	}
	return nil
}

// Sized is implemented by summaries that can report the bytes they actually
// retain — including preallocated ingest buffers and per-level scratch, not
// just the item count times a per-item estimate. The multi-tenant store uses
// it for budget accounting: families that preallocate capacity (req's airtight
// buffer, mlq's block buffer) retain far more than StoredCount()×32 on small
// keys, and families storing bare items (KLL, MRL, the reservoir) retain far
// less, so a flat estimate over- or under-evicts by family. Callers fall back
// to the documented flat estimate (StoredCount × BytesPerItem) for summaries
// that do not implement Sized.
type Sized interface {
	// RetainedBytes returns the approximate heap bytes retained by the
	// summary's item storage, counting allocated capacity (not just length).
	RetainedBytes() int
}

// Mergeable is implemented by summaries that support merging a same-typed
// summary into the receiver (the "mergeable summaries" setting referenced in
// Section 1.2 of the paper).
type Mergeable[S any] interface {
	Merge(other S) error
}

// Epsiloned is implemented by summaries constructed for a specific accuracy
// target ε.
type Epsiloned interface {
	Epsilon() float64
}

// Stats aggregates the instrumentation counters collected by Instrumented.
type Stats struct {
	// Updates is the number of items processed.
	Updates int
	// Queries is the number of quantile queries answered.
	Queries int
	// MaxStored is the maximum value of |I| (stored items) observed after any
	// update. This is the space measure used by the paper: space in words is
	// measured by the number of items retained.
	MaxStored int
	// FinalStored is |I| after the last update.
	FinalStored int
	// Comparisons is the number of item comparisons performed, when the
	// summary was built with a counting comparator.
	Comparisons uint64
}

// Instrumented wraps a Summary and records Stats. It forwards every call to
// the wrapped summary; after each update it samples StoredCount to maintain
// the running maximum, which is exactly the "space on the worst-case input"
// quantity that Theorem 2.2 lower-bounds.
type Instrumented[T any] struct {
	inner   Summary[T]
	counter *order.Counting[T]
	stats   Stats
}

// NewInstrumented wraps inner. If counter is non-nil its comparison count is
// reported in Stats.
func NewInstrumented[T any](inner Summary[T], counter *order.Counting[T]) *Instrumented[T] {
	return &Instrumented[T]{inner: inner, counter: counter}
}

// Update implements Quantile.
func (w *Instrumented[T]) Update(x T) {
	w.inner.Update(x)
	w.stats.Updates++
	stored := w.inner.StoredCount()
	w.stats.FinalStored = stored
	if stored > w.stats.MaxStored {
		w.stats.MaxStored = stored
	}
}

// Query implements Quantile.
func (w *Instrumented[T]) Query(phi float64) (T, bool) {
	w.stats.Queries++
	return w.inner.Query(phi)
}

// Count implements Quantile.
func (w *Instrumented[T]) Count() int { return w.inner.Count() }

// EstimateRank implements RankEstimator.
func (w *Instrumented[T]) EstimateRank(q T) int { return w.inner.EstimateRank(q) }

// StoredItems implements Inspectable.
func (w *Instrumented[T]) StoredItems() []T { return w.inner.StoredItems() }

// StoredCount implements Inspectable.
func (w *Instrumented[T]) StoredCount() int { return w.inner.StoredCount() }

// Inner returns the wrapped summary.
func (w *Instrumented[T]) Inner() Summary[T] { return w.inner }

// Stats returns a copy of the collected statistics, with the comparison count
// read from the counting comparator if one was supplied.
func (w *Instrumented[T]) Stats() Stats {
	s := w.stats
	if w.counter != nil {
		s.Comparisons = w.counter.Count()
	}
	return s
}

// Factory constructs a fresh summary instance for a given ε. The adversarial
// construction uses a factory to create the two summary instances that process
// the indistinguishable streams π and ϱ.
type Factory[T any] func(eps float64) Summary[T]

// Named couples a factory with a human-readable algorithm name; experiment
// drivers iterate over a list of Named factories.
type Named[T any] struct {
	Name string
	New  Factory[T]
}
