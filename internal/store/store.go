// Package store is the multi-tenant keyed tier of the repository: a sharded
// registry mapping string keys (per-metric, per-endpoint, per-customer
// streams) to independent quantile summaries, with lazy per-key creation
// from a configurable factory, per-key accuracy overrides, and lifecycle
// management under a global retained-bytes budget.
//
// Every tier below this one (facade → sharded → cluster) manages exactly one
// logical stream; this is how GK/KLL-style sketches are actually operated at
// scale (the mergeable-summaries deployments referenced in Section 1.2 of
// Cormode & Veselý, PODS 2020): millions of concurrent summaries with churn.
// The paper's lower bound applies per key — each key's summary must retain
// Ω((1/ε)·log εN) items for its own substream — so a bounded-memory store
// over unbounded keys *must* evict; the store makes that explicit with an
// LRU policy under a byte budget plus an optional idle TTL, rather than
// letting the process OOM.
//
// Cold keys and adaptive promotion. Because the lower bound is per key, a
// node serving a million mostly-cold tenants would pay the full sketch floor
// for keys that have seen a handful of items. New keys therefore start as a
// tiny exact sorted-sample buffer (internal/exact): 8 bytes per item, exact
// answers. Only once a key's buffer reaches Config.PromoteItems items is it
// promoted to the configured sketch family — replayed through the family's
// native ingest path under the key's lock, so the promotion is invisible to
// concurrent readers and writers. A buffered key snapshots as its exact items
// (KindExact) and merges with sketch state in either direction.
//
// Slab storage. Per-key state lives in per-stripe slabs of fixed-size slot
// arrays rather than one heap object per key: the key index maps to a slot id
// and evicted slots are recycled through a free list. A slot reuse bumps the
// slot's generation counter, and every writer re-checks (generation, dead)
// under the slot lock after acquiring it, so a stale handle can never land an
// update in a recycled slot (the ABA hazard of slab recycling). At the
// million-key scale this removes two heap objects and a pointer per key and
// keeps the GC's mark phase off the per-key metadata.
//
// Concurrency. Keys are spread over lock-striped index shards; each slot has
// its own mutex, so the stripe lock is held only for index access and a slow
// bulk ingest on one key never blocks its neighbours. Eviction marks a slot
// dead under its lock before recycling it, and writers re-check that flag
// (and the generation) after locking, so an update can never land silently in
// an evicted summary: it either reaches a live slot or retries against the
// freshly recreated key. Updates on keys that are never evicted are
// therefore never lost; items held by a key at the moment it is evicted are
// dropped by design (that is what eviction means).
//
// Budget accounting. Families that implement summary.Sized report their real
// retained footprint — including preallocated ingest buffers — and the store
// budgets with it; families that do not fall back to the documented flat
// estimate StoredCount × Config.BytesPerItem. Accounting is settled under the
// key's lock on every mutation, so MaxRetainedBytes tracks reality per
// family instead of assuming every family costs a 32-byte GK tuple per item.
//
// Wire format and persistence. A whole store snapshots into one KindStore
// container payload (internal/encoding) of per-key nested payloads;
// MergePayload folds such a container back in per key under the COMBINE rule,
// which is what the keyed aggregation tier (internal/cluster, cmd/quantileagg)
// builds on. Open adds crash safety on top: the same container checkpointed
// atomically to disk (write-temp + fsync + rename) plus an optional
// append-only update WAL replayed on open — see persist.go.
package store

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quantilelb/internal/encoding"
	"quantilelb/internal/exact"
	"quantilelb/internal/gk"
	"quantilelb/internal/mlq"
	"quantilelb/internal/req"
	"quantilelb/internal/summary"
)

// Summary is the per-key summary contract: the float64-specialized summary
// interface every family in this repository satisfies.
type Summary = summary.Summary[float64]

// batchUpdater is the optional bulk-ingest fast path (GK, KLL, MRL, and the
// reservoir all provide it); UpdateBatch routes through it when present.
type batchUpdater interface {
	UpdateBatch(xs []float64)
}

// weightedUpdater is the optional native weighted-ingest path (see
// summary.WeightedUpdater); WeightedUpdate and WeightedUpdateBatch route
// through it when the key's family has one, and fall back to the guarded
// weight expansion otherwise.
type weightedUpdater interface {
	WeightedUpdate(x float64, w int64)
	WeightedUpdateBatch(xs []float64, ws []int64)
}

// Defaults applied by New when the corresponding Config field is zero.
const (
	// DefaultShards is the default number of lock-striped key shards.
	DefaultShards = 16
	// DefaultEps is the default per-key accuracy.
	DefaultEps = 0.01
	// DefaultBytesPerItem is the default per-retained-item byte estimate used
	// for budget accounting of families that do not implement summary.Sized
	// (a GK tuple: value + G + Delta + Wt = 32 bytes).
	DefaultBytesPerItem = 32
	// DefaultPromoteItems is the default buffer size at which a cold key
	// promotes from its exact sorted-sample buffer to the configured sketch
	// family: large enough that the sketch's own floor is cheaper past it,
	// small enough that per-update insertion stays a sub-microsecond memmove.
	DefaultPromoteItems = 128
)

// slab sizing: slots are allocated in fixed arrays of slabSize so slot
// addresses stay stable for the life of the store (handles hold pointers).
const (
	slabBits = 10
	slabSize = 1 << slabBits
)

// Config parameterizes a Store. The zero value is usable: GK summaries at
// DefaultEps, DefaultShards stripes, adaptive promotion at
// DefaultPromoteItems, no budget, no TTL, no persistence.
type Config struct {
	// Shards is the number of lock-striped key shards (default DefaultShards).
	Shards int
	// Eps is the accuracy new keys are created with (default DefaultEps).
	Eps float64
	// EpsOverrides maps specific keys to their own accuracy, overriding Eps —
	// a hot latency metric can run at 0.001 while the long tail runs at 0.01.
	EpsOverrides map[string]float64
	// Factory builds the summary for a promoted key at the key's accuracy;
	// nil means Greenwald–Khanna. Factories returning KLL/MRL/reservoir
	// summaries get the batched ingest path automatically.
	Factory func(eps float64) Summary
	// PromoteItems is the exact-buffer size at which a key promotes to the
	// sketch family built by Factory. 0 applies DefaultPromoteItems; a
	// negative value disables buffering entirely, so every key starts as a
	// factory sketch (the pre-promotion behaviour, useful as a cost floor).
	PromoteItems int
	// BytesPerItem is the estimated memory cost of one retained item, used
	// for budget accounting of families without summary.Sized (default
	// DefaultBytesPerItem). Families implementing Sized are accounted from
	// their reported footprint and ignore this estimate.
	BytesPerItem int
	// MaxRetainedBytes is the global budget over all keys' retained summary
	// bytes; exceeding it evicts least-recently-used keys until back under.
	// 0 disables budget eviction.
	MaxRetainedBytes int64
	// MaxKeys bounds the number of live keys; exceeding it evicts LRU keys.
	// 0 disables the bound.
	MaxKeys int
	// IdleTTL evicts keys untouched (no update or query) for this long when
	// Sweep or the janitor runs. 0 disables idle eviction.
	IdleTTL time.Duration
	// Dir enables crash-safe persistence when non-empty and the store is
	// built with Open: checkpoints are written atomically to Dir/store.ckpt
	// and — unless DisableWAL is set — every update is appended to
	// Dir/store.wal and replayed on the next Open. New ignores this field.
	Dir string
	// DisableWAL turns off the update WAL under Dir: only explicit
	// Checkpoint calls persist state, so updates since the last checkpoint
	// are lost on a crash (a valid trade for ingest-heavy nodes that
	// checkpoint on a timer).
	DisableWAL bool
	// WALSyncEvery fsyncs the WAL after every Nth appended record. 0 never
	// fsyncs explicitly: records still reach the kernel's page cache on
	// every append (surviving process death, e.g. SIGKILL), but not
	// necessarily an OS crash or power loss.
	WALSyncEvery int
}

// slot is one key's state, embedded in a stripe slab. The summary is guarded
// by mu; lastAccess is atomic so the eviction scan can rank slots without
// taking every lock.
type slot struct {
	mu  sync.Mutex
	gen uint32 // bumped on (re)allocation; handles re-check it to defeat ABA
	// ver moves under mu whenever the summary's encoded bytes may change:
	// every update, merge, adopt, promotion, (re)allocation and removal, and
	// every read of a readMoves family. It never resets, so an unchanged ver
	// names one encoding of one allocation; SnapshotPayload loads it without
	// mu and re-encodes a key only when it moved since the last snapshot.
	ver atomic.Uint64
	// readMoves marks families whose reads sort the live buffer in place
	// (mlq, req): the encoders write that buffer in its stored order, so a
	// read changes the encoded bytes without changing the summary.
	readMoves bool

	sum      Summary
	sized    summary.Sized   // nil when sum has no exact footprint report
	batch    batchUpdater    // nil when sum has no bulk path
	weighted weightedUpdater // nil when sum has no native weighted path
	eps      float64
	buffered bool  // true while sum is the pre-promotion exact buffer
	dead     bool  // set under mu when evicted or deleted
	retained int64 // bytes accounted to the global counter, under mu
	items    int64 // StoredCount accounted to the global counter, under mu

	lastAccess atomic.Int64 // unix nanos of the last update or query
}

// install points the slot at a summary and refreshes the cached capability
// interfaces. Caller holds sl.mu.
func (sl *slot) install(sum Summary, buffered bool) {
	sl.sum = sum
	sl.buffered = buffered
	sl.sized, _ = sum.(summary.Sized)
	sl.batch, _ = sum.(batchUpdater)
	sl.weighted, _ = sum.(weightedUpdater)
	switch sum.(type) {
	case *mlq.Summary, *req.Summary:
		sl.readMoves = true
	default:
		sl.readMoves = false
	}
	sl.ver.Add(1)
}

// read marks a read of the slot's summary: it moves the version of the
// families whose reads reorder their encoded state. Caller holds sl.mu.
func (sl *slot) read() {
	if sl.readMoves {
		sl.ver.Add(1)
	}
}

// handle identifies one allocation of a slot: the slot pointer plus the
// generation observed at lookup. Writers must re-check the generation (and
// the dead flag) under sl.mu before touching the summary.
type handle struct {
	sl  *slot
	gen uint32
}

// valid reports whether the handle still refers to the allocation it was
// created for. Caller holds h.sl.mu.
func (h handle) valid() bool { return !h.sl.dead && h.sl.gen == h.gen }

// stripe is one lock-striped shard: a key index into slab-backed slots plus
// the recycling free list. mu guards index, slabs, free, and gen bumps.
type stripe struct {
	mu    sync.Mutex
	index map[string]uint32
	slabs [][]slot
	free  []uint32
}

func (st *stripe) slotAt(id uint32) *slot {
	return &st.slabs[id>>slabBits][id&(slabSize-1)]
}

// alloc returns a free slot id, growing the slab arena when the free list is
// empty. Caller holds st.mu.
func (st *stripe) alloc() uint32 {
	if n := len(st.free); n > 0 {
		id := st.free[n-1]
		st.free = st.free[:n-1]
		return id
	}
	last := len(st.slabs) - 1
	if last < 0 || len(st.slabs[last]) == slabSize {
		st.slabs = append(st.slabs, make([]slot, 0, slabSize))
		last++
	}
	st.slabs[last] = append(st.slabs[last], slot{})
	return uint32(last)<<slabBits | uint32(len(st.slabs[last])-1)
}

// Store is a sharded, multi-tenant registry of keyed quantile summaries.
// All methods are safe for concurrent use by any number of goroutines.
type Store struct {
	cfg          Config
	promoteItems int // resolved Config.PromoteItems; ≤ 0 disables buffering
	stripes      []*stripe
	seed         maphash.Seed
	now          func() time.Time // test hook

	retained      atomic.Int64 // bytes accounted over all live slots
	retainedItems atomic.Int64 // stored items accounted over all live slots
	keys          atomic.Int64
	updates       atomic.Int64 // items accepted (updates, batches, merges)
	mutations     atomic.Int64 // content version: updates, creates, evictions, merges
	creates       atomic.Int64

	bufferedKeys atomic.Int64 // live keys still in the exact-buffer stage
	promotions   atomic.Int64 // lifetime buffer→sketch promotions

	evictionsLRU  atomic.Int64
	evictionsIdle atomic.Int64

	evictMu sync.Mutex // serializes eviction sweeps

	snapMu sync.Mutex  // guards snap; taken before persistMu
	snap   spliceState // SnapshotPayload's previous container and record index

	// persistence (nil/zero unless built with Open and a Config.Dir)
	dir            string
	wal            *walWriter
	persistMu      sync.RWMutex // writers RLock around log+apply; Checkpoint's capture and rotate Lock
	ckptMu         sync.Mutex   // serializes Checkpoint and Close; guards the fields below
	closed         bool
	frozen         []uint64          // numbers of the frozen WAL segments on disk, ascending
	nextSeg        uint64            // number the next rotate freezes store.wal under
	step           func(name string) // test seam: called at each checkpoint step boundary
	checkpoints    atomic.Int64
	walRecords     atomic.Int64
	walReplayed    atomic.Int64
	lastCheckpoint atomic.Int64 // unix nanos of the last completed checkpoint
}

// New returns a Store for the given configuration, applying the documented
// defaults for zero fields. It panics when Shards is negative. Config.Dir is
// ignored — use Open for a persistent store.
func New(cfg Config) *Store {
	if cfg.Shards < 0 {
		panic("store: Shards must be non-negative")
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Eps <= 0 {
		cfg.Eps = DefaultEps
	}
	if cfg.Factory == nil {
		cfg.Factory = func(eps float64) Summary { return gk.NewFloat64(eps) }
	}
	if cfg.BytesPerItem <= 0 {
		cfg.BytesPerItem = DefaultBytesPerItem
	}
	promote := cfg.PromoteItems
	if promote == 0 {
		promote = DefaultPromoteItems
	}
	s := &Store{
		cfg:          cfg,
		promoteItems: promote,
		stripes:      make([]*stripe, cfg.Shards),
		seed:         maphash.MakeSeed(),
		now:          time.Now,
	}
	for i := range s.stripes {
		s.stripes[i] = &stripe{index: make(map[string]uint32)}
	}
	return s
}

// stripeFor hashes a key onto its stripe.
func (s *Store) stripeFor(key string) *stripe {
	if len(s.stripes) == 1 {
		return s.stripes[0]
	}
	return s.stripes[maphash.String(s.seed, key)%uint64(len(s.stripes))]
}

// EpsFor returns the accuracy a summary for key is (or would be) created
// with: the per-key override when present, the default otherwise.
func (s *Store) EpsFor(key string) float64 {
	if eps, ok := s.cfg.EpsOverrides[key]; ok && eps > 0 {
		return eps
	}
	return s.cfg.Eps
}

// get returns a handle to the live slot for key, or a nil-slot handle.
func (s *Store) get(key string) handle {
	st := s.stripeFor(key)
	st.mu.Lock()
	id, ok := st.index[key]
	if !ok {
		st.mu.Unlock()
		return handle{}
	}
	sl := st.slotAt(id)
	h := handle{sl: sl, gen: sl.gen}
	st.mu.Unlock()
	return h
}

// newSummaryLocked builds the starting summary for a fresh key: an exact
// buffer in the adaptive-promotion default, the factory sketch when
// buffering is disabled.
func (s *Store) newSummary(eps float64) (Summary, bool) {
	if s.promoteItems > 0 {
		return exact.New(), true
	}
	return s.cfg.Factory(eps), false
}

// getOrCreate returns a handle to the live slot for key, creating it on
// first use. The slot may have died (or been recycled) by the time the
// caller locks it; callers must re-check handle.valid under sl.mu and retry.
func (s *Store) getOrCreate(key string) handle {
	st := s.stripeFor(key)
	st.mu.Lock()
	if id, ok := st.index[key]; ok {
		sl := st.slotAt(id)
		h := handle{sl: sl, gen: sl.gen}
		st.mu.Unlock()
		return h
	}
	eps := s.EpsFor(key)
	sum, buffered := s.newSummary(eps)
	id := st.alloc()
	sl := st.slotAt(id)
	sl.mu.Lock()
	sl.gen++
	sl.dead = false
	sl.eps = eps
	sl.install(sum, buffered)
	// Settle accounting before the slot becomes visible: once the stripe
	// lock drops, a concurrent budget sweep may reap it, and settling
	// afterwards would re-inflate the global counters for a dead slot that
	// is never reaped again.
	sl.items = int64(sum.StoredCount())
	sl.retained = s.footprint(sl)
	nb, ni := sl.retained, sl.items
	sl.lastAccess.Store(s.now().UnixNano())
	h := handle{sl: sl, gen: sl.gen}
	sl.mu.Unlock()
	st.index[key] = id
	st.mu.Unlock()
	s.keys.Add(1)
	s.creates.Add(1)
	s.mutations.Add(1)
	if buffered {
		s.bufferedKeys.Add(1)
	}
	// Safe in either order against a racing reap: reap frees exactly the
	// bytes recorded above, so the global counters net to zero.
	s.account(nb, ni)
	return h
}

// footprint returns the budget-accounted byte cost of the slot's summary:
// its reported footprint when the family implements summary.Sized, the flat
// per-item estimate otherwise. Caller holds sl.mu.
func (s *Store) footprint(sl *slot) int64 {
	if sl.sized != nil {
		return int64(sl.sized.RetainedBytes())
	}
	return int64(sl.sum.StoredCount()) * int64(s.cfg.BytesPerItem)
}

// settleLocked re-derives the slot's retained-bytes and retained-items
// accounting from its summary and returns the deltas to apply to the global
// counters. Caller holds sl.mu.
func (s *Store) settleLocked(sl *slot) (bytesDelta, itemsDelta int64) {
	nb := s.footprint(sl)
	ni := int64(sl.sum.StoredCount())
	bytesDelta = nb - sl.retained
	itemsDelta = ni - sl.items
	sl.retained = nb
	sl.items = ni
	return bytesDelta, itemsDelta
}

// maybePromoteLocked promotes a buffered key to the configured sketch family
// once its exact buffer has reached the promotion threshold: the buffer's
// items replay through the family's native ingest path and the slot swaps
// summaries in place, invisible to concurrent readers (they serialize on
// sl.mu). Caller holds sl.mu and must settle accounting afterwards.
func (s *Store) maybePromoteLocked(sl *slot) {
	if !sl.buffered || s.promoteItems <= 0 {
		return
	}
	buf, ok := sl.sum.(*exact.Buffer)
	if !ok || buf.StoredCount() < s.promoteItems {
		return
	}
	fresh := s.cfg.Factory(sl.eps)
	if err := encoding.MergeAny(fresh, buf); err != nil {
		// The only failure mode is a replay the target family cannot absorb
		// (e.g. a single slot weight beyond the expansion cap of a family
		// without a native weighted path). Keep buffering: exact answers and
		// linear cost beat losing data.
		return
	}
	sl.install(fresh, false)
	s.promotions.Add(1)
	s.bufferedKeys.Add(-1)
}

// touch refreshes the slot's LRU clock.
func (s *Store) touch(h handle) {
	h.sl.lastAccess.Store(s.now().UnixNano())
}

// Update ingests one item into key's summary, creating the key on first use.
func (s *Store) Update(key string, x float64) {
	if s.wal != nil {
		s.persistMu.RLock()
		defer s.persistMu.RUnlock()
		s.wal.appendUpdate(s, key, []float64{x}, nil)
	}
	s.updateNoLog(key, x)
}

func (s *Store) updateNoLog(key string, x float64) {
	for {
		h := s.getOrCreate(key)
		h.sl.mu.Lock()
		if !h.valid() {
			h.sl.mu.Unlock()
			continue // evicted between lookup and lock: retry on a fresh slot
		}
		h.sl.sum.Update(x)
		h.sl.ver.Add(1)
		s.maybePromoteLocked(h.sl)
		db, di := s.settleLocked(h.sl)
		h.sl.mu.Unlock()
		s.touch(h)
		s.account(db, di)
		s.updates.Add(1)
		s.mutations.Add(1)
		s.maybeEvict()
		return
	}
}

// UpdateBatch ingests a batch of items into key's summary in one lock
// acquisition, through the summary's bulk UpdateBatch fast path when it has
// one — the preferred write path for producers that already aggregate items
// per metric (log shippers, per-endpoint buffers).
func (s *Store) UpdateBatch(key string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	if s.wal != nil {
		s.persistMu.RLock()
		defer s.persistMu.RUnlock()
		s.wal.appendUpdate(s, key, xs, nil)
	}
	s.updateBatchNoLog(key, xs)
}

func (s *Store) updateBatchNoLog(key string, xs []float64) {
	for {
		h := s.getOrCreate(key)
		h.sl.mu.Lock()
		if !h.valid() {
			h.sl.mu.Unlock()
			continue
		}
		if h.sl.batch != nil {
			h.sl.batch.UpdateBatch(xs)
		} else {
			for _, x := range xs {
				h.sl.sum.Update(x)
			}
		}
		h.sl.ver.Add(1)
		s.maybePromoteLocked(h.sl)
		db, di := s.settleLocked(h.sl)
		h.sl.mu.Unlock()
		s.touch(h)
		s.account(db, di)
		s.updates.Add(int64(len(xs)))
		s.mutations.Add(1)
		s.maybeEvict()
		return
	}
}

// WeightedUpdate ingests one item carrying an integer weight w ≥ 1 into
// key's summary, equivalent to w repeated Updates but through the family's
// native weighted path when it has one (GK, KLL, MRL, reservoir, the exact
// buffer) and the guarded weight-expansion fallback otherwise. Count(key)
// afterwards reports the key's total weight. It returns an error — and
// ingests nothing — when w is not positive, or when the key's family has no
// native path and w exceeds summary.MaxExpansionWeight.
func (s *Store) WeightedUpdate(key string, x float64, w int64) error {
	return s.WeightedUpdateBatch(key, []float64{x}, []int64{w})
}

// WeightedUpdateBatch ingests a batch of weighted items into key's summary
// in one lock acquisition — the weighted twin of UpdateBatch, and the path
// the keyed HTTP tier's {v,w} JSON batches take. The batch is validated
// before anything is ingested (all-or-nothing, matching the HTTP tier's
// retry contract): it returns an error on a length mismatch, a non-positive
// weight, or — for keys whose family lacks a native weighted path — a batch
// whose total weight exceeds the expansion-fallback guard
// (summary.MaxExpansionWeight bounds the synchronous per-call expansion
// work done under the key's lock, so it caps the batch total, not each
// element separately).
func (s *Store) WeightedUpdateBatch(key string, xs []float64, ws []int64) error {
	if len(xs) != len(ws) {
		return fmt.Errorf("store: weighted batch: %d items but %d weights", len(xs), len(ws))
	}
	if len(xs) == 0 {
		return nil
	}
	var total int64
	for _, w := range ws {
		if w <= 0 {
			return fmt.Errorf("store: weight %d is not positive", w)
		}
		total += w
	}
	if s.wal != nil {
		s.persistMu.RLock()
		defer s.persistMu.RUnlock()
		s.wal.appendUpdate(s, key, xs, ws)
	}
	return s.weightedUpdateBatchNoLog(key, xs, ws, total)
}

func (s *Store) weightedUpdateBatchNoLog(key string, xs []float64, ws []int64, total int64) error {
	for {
		h := s.getOrCreate(key)
		h.sl.mu.Lock()
		if !h.valid() {
			h.sl.mu.Unlock()
			continue
		}
		if h.sl.weighted == nil {
			// Expansion fallback: guard before ingesting anything, so the
			// batch stays all-or-nothing — and guard the batch *total*: the
			// cap exists to bound the synchronous expansion work done under
			// this slot's lock, which a long batch of individually-legal
			// weights would otherwise defeat.
			if total > summary.MaxExpansionWeight {
				eps := h.sl.eps
				h.sl.mu.Unlock()
				return fmt.Errorf("store: key %q (family without native weighted path, eps=%g): batch total weight %d exceeds the expansion-fallback cap %d", key, eps, total, int64(summary.MaxExpansionWeight))
			}
			for i, x := range xs {
				// The total guard above makes ExpandWeighted infallible here.
				_ = summary.ExpandWeighted[float64](h.sl.sum, x, ws[i])
			}
		} else {
			h.sl.weighted.WeightedUpdateBatch(xs, ws)
		}
		h.sl.ver.Add(1)
		s.maybePromoteLocked(h.sl)
		db, di := s.settleLocked(h.sl)
		h.sl.mu.Unlock()
		s.touch(h)
		s.account(db, di)
		s.updates.Add(total)
		s.mutations.Add(1)
		s.maybeEvict()
		return nil
	}
}

// account applies retained-bytes and retained-items deltas to the global
// counters.
func (s *Store) account(bytesDelta, itemsDelta int64) {
	if bytesDelta != 0 {
		s.retained.Add(bytesDelta)
	}
	if itemsDelta != 0 {
		s.retainedItems.Add(itemsDelta)
	}
}

// Query returns an approximate ϕ-quantile of key's substream (exact while
// the key is still in its buffered stage); false when the key does not exist
// or holds no items. Queries refresh the key's LRU clock.
func (s *Store) Query(key string, phi float64) (float64, bool) {
	h := s.get(key)
	if h.sl == nil {
		return 0, false
	}
	h.sl.mu.Lock()
	if !h.valid() {
		h.sl.mu.Unlock()
		return 0, false
	}
	v, ok := h.sl.sum.Query(phi)
	h.sl.read()
	h.sl.mu.Unlock()
	s.touch(h)
	return v, ok
}

// EstimateRank estimates the number of items ≤ q in key's substream; 0 when
// the key does not exist.
func (s *Store) EstimateRank(key string, q float64) int {
	h := s.get(key)
	if h.sl == nil {
		return 0
	}
	h.sl.mu.Lock()
	if !h.valid() {
		h.sl.mu.Unlock()
		return 0
	}
	r := h.sl.sum.EstimateRank(q)
	h.sl.read()
	h.sl.mu.Unlock()
	s.touch(h)
	return r
}

// CDF returns the estimated fraction of key's items ≤ q, clamped to [0, 1];
// 0 when the key does not exist or is empty.
func (s *Store) CDF(key string, q float64) float64 {
	h := s.get(key)
	if h.sl == nil {
		return 0
	}
	h.sl.mu.Lock()
	if !h.valid() {
		h.sl.mu.Unlock()
		return 0
	}
	n := h.sl.sum.Count()
	r := h.sl.sum.EstimateRank(q)
	h.sl.read()
	h.sl.mu.Unlock()
	s.touch(h)
	if n == 0 {
		return 0
	}
	if r < 0 {
		r = 0
	}
	if r > n {
		r = n
	}
	return float64(r) / float64(n)
}

// Count returns the number of items ingested under key (0 when absent).
func (s *Store) Count(key string) int {
	h := s.get(key)
	if h.sl == nil {
		return 0
	}
	h.sl.mu.Lock()
	if !h.valid() {
		h.sl.mu.Unlock()
		return 0
	}
	n := h.sl.sum.Count()
	h.sl.mu.Unlock()
	return n
}

// StoredItems returns the items key's summary currently retains, in
// non-decreasing order; nil when the key does not exist.
func (s *Store) StoredItems(key string) []float64 {
	h := s.get(key)
	if h.sl == nil {
		return nil
	}
	h.sl.mu.Lock()
	if !h.valid() {
		h.sl.mu.Unlock()
		return nil
	}
	items := h.sl.sum.StoredItems()
	h.sl.mu.Unlock()
	return items
}

// StoredCount returns the number of items key's summary retains (the paper's
// space measure, per key); 0 when absent.
func (s *Store) StoredCount(key string) int {
	h := s.get(key)
	if h.sl == nil {
		return 0
	}
	h.sl.mu.Lock()
	if !h.valid() {
		h.sl.mu.Unlock()
		return 0
	}
	n := h.sl.sum.StoredCount()
	h.sl.mu.Unlock()
	return n
}

// Buffered reports whether key currently exists and is still in its
// pre-promotion exact-buffer stage (answering queries exactly).
func (s *Store) Buffered(key string) bool {
	h := s.get(key)
	if h.sl == nil {
		return false
	}
	h.sl.mu.Lock()
	b := h.valid() && h.sl.buffered
	h.sl.mu.Unlock()
	return b
}

// Has reports whether key currently exists in the store.
func (s *Store) Has(key string) bool { return s.get(key).sl != nil }

// Len returns the number of live keys.
func (s *Store) Len() int { return int(s.keys.Load()) }

// Keys returns every live key in ascending order.
func (s *Store) Keys() []string {
	out := make([]string, 0, s.keys.Load())
	for _, st := range s.stripes {
		st.mu.Lock()
		for k := range st.index {
			out = append(out, k)
		}
		st.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Delete removes key and its summary, reporting whether it existed. A
// deleted key recreates cleanly (empty, from the factory) on its next
// update.
func (s *Store) Delete(key string) bool {
	if s.wal != nil {
		s.persistMu.RLock()
		defer s.persistMu.RUnlock()
		s.wal.appendDelete(s, key)
	}
	return s.deleteNoLog(key)
}

func (s *Store) deleteNoLog(key string) bool {
	st := s.stripeFor(key)
	st.mu.Lock()
	id, ok := st.index[key]
	if !ok {
		st.mu.Unlock()
		return false
	}
	delete(st.index, key)
	st.mu.Unlock()
	s.reap(st, id)
	return true
}

// reap finalizes a slot that has been unlinked from its stripe's index:
// marks it dead so in-flight writers retry, returns its retained bytes to
// the global budget, and recycles the slot id onto the free list. Must be
// called exactly once per unlinked slot, by the goroutine that unlinked it.
func (s *Store) reap(st *stripe, id uint32) {
	// slotAt reads the slab headers that alloc appends to under st.mu.
	st.mu.Lock()
	sl := st.slotAt(id)
	st.mu.Unlock()
	sl.mu.Lock()
	sl.dead = true
	sl.ver.Add(1)
	freedB, freedI := sl.retained, sl.items
	wasBuffered := sl.buffered
	sl.retained = 0
	sl.items = 0
	sl.sum = nil
	sl.sized = nil
	sl.batch = nil
	sl.weighted = nil
	sl.buffered = false
	sl.mu.Unlock()
	s.account(-freedB, -freedI)
	s.keys.Add(-1)
	if wasBuffered {
		s.bufferedKeys.Add(-1)
	}
	s.mutations.Add(1)
	// Recycle only after the slot is fully dead: a stale handle that locks
	// the slot from here on sees dead (or, once reallocated, a bumped gen).
	st.mu.Lock()
	st.free = append(st.free, id)
	st.mu.Unlock()
}

// overBudget reports whether either global limit is currently exceeded.
func (s *Store) overBudget() bool {
	if s.cfg.MaxRetainedBytes > 0 && s.retained.Load() > s.cfg.MaxRetainedBytes {
		return true
	}
	if s.cfg.MaxKeys > 0 && int(s.keys.Load()) > s.cfg.MaxKeys {
		return true
	}
	return false
}

// maybeEvict runs a budget-enforcement sweep when a limit is exceeded and no
// other sweep is in flight (writers never queue behind each other's sweeps).
func (s *Store) maybeEvict() {
	if !s.overBudget() {
		return
	}
	if !s.evictMu.TryLock() {
		return
	}
	s.enforceBudgetLocked()
	s.evictMu.Unlock()
}

// candidate is one slot of the eviction scan.
type candidate struct {
	key        string
	st         *stripe
	id         uint32
	gen        uint32
	lastAccess int64
}

// scan snapshots every live slot with its LRU clock.
func (s *Store) scan() []candidate {
	out := make([]candidate, 0, s.keys.Load())
	for _, st := range s.stripes {
		st.mu.Lock()
		for k, id := range st.index {
			sl := st.slotAt(id)
			out = append(out, candidate{key: k, st: st, id: id, gen: sl.gen, lastAccess: sl.lastAccess.Load()})
		}
		st.mu.Unlock()
	}
	return out
}

// evictEntry unlinks a scanned candidate if it is still the live slot for
// its key, reporting whether it evicted. Caller holds evictMu.
func (s *Store) evictEntry(c candidate) bool {
	c.st.mu.Lock()
	id, ok := c.st.index[c.key]
	if !ok || id != c.id || c.st.slotAt(id).gen != c.gen {
		c.st.mu.Unlock()
		return false // deleted or already recycled since the scan
	}
	delete(c.st.index, c.key)
	c.st.mu.Unlock()
	s.reap(c.st, c.id)
	return true
}

// underHysteresis reports whether a budget sweep has freed enough: it aims
// 10% below each exceeded limit, so the next few writes do not immediately
// trigger another full O(keys) scan (the sweep itself still only starts when
// a limit is actually exceeded).
func (s *Store) underHysteresis() bool {
	if s.cfg.MaxRetainedBytes > 0 && s.retained.Load() > s.cfg.MaxRetainedBytes-s.cfg.MaxRetainedBytes/10 {
		return false
	}
	if s.cfg.MaxKeys > 0 && int(s.keys.Load()) > s.cfg.MaxKeys-s.cfg.MaxKeys/10 {
		return false
	}
	return true
}

// enforceBudgetLocked evicts least-recently-used slots until both global
// limits hold with hysteresis headroom. Caller holds evictMu.
func (s *Store) enforceBudgetLocked() {
	if !s.overBudget() {
		return
	}
	cands := s.scan()
	sort.Slice(cands, func(i, j int) bool { return cands[i].lastAccess < cands[j].lastAccess })
	for _, c := range cands {
		if s.underHysteresis() {
			return
		}
		if s.evictEntry(c) {
			s.evictionsLRU.Add(1)
		}
	}
}

// EvictIdle evicts every key untouched for at least ttl, returning how many
// it evicted. It is what Sweep and the janitor use with Config.IdleTTL, and
// can be called directly with any ttl.
func (s *Store) EvictIdle(ttl time.Duration) int {
	if ttl <= 0 {
		return 0
	}
	cutoff := s.now().Add(-ttl).UnixNano()
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	evicted := 0
	for _, c := range s.scan() {
		if c.lastAccess >= cutoff {
			continue
		}
		if s.evictEntry(c) {
			s.evictionsIdle.Add(1)
			evicted++
		}
	}
	return evicted
}

// Sweep runs one full lifecycle pass — idle-TTL eviction (when configured)
// followed by budget enforcement — and returns the number of keys evicted.
// The janitor calls it on a timer; tests and operators can call it directly.
func (s *Store) Sweep() int {
	evicted := s.EvictIdle(s.cfg.IdleTTL)
	before := s.evictionsLRU.Load()
	s.evictMu.Lock()
	s.enforceBudgetLocked()
	s.evictMu.Unlock()
	return evicted + int(s.evictionsLRU.Load()-before)
}

// StartJanitor runs Sweep every interval in a background goroutine until the
// returned stop function is called.
func (s *Store) StartJanitor(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Sweep()
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// spliceState is what SnapshotPayload keeps between calls: the previous
// container and, per record, the slot allocation and version its payload was
// encoded at. Guarded by Store.snapMu.
type spliceState struct {
	prev    []byte                  // the last container; never written after it is returned
	recs    []snapRec               // ascending by key, reused while no key is created
	entries []encoding.KeyedPayload // EncodeStore's input, reused
	creates int64                   // Store.creates when recs was gathered
	valid   bool                    // recs was gathered and prev matches it
}

// snapRec is one record of the last container: the key, the slot allocation
// it was read from, the slot version its payload encodes, and where that
// payload sits in spliceState.prev.
type snapRec struct {
	key string
	sl  *slot
	ver uint64
	off int
	n   uint32
	gen uint32
}

// SnapshotPayload serializes every live key's summary into one KindStore
// container payload (internal/encoding) and returns the store's content
// version, which the HTTP tier uses as a cheap change detector (the
// snapshot ETag itself is a content hash of the payload). The output is
// byte-identical to EncodeStore over a fresh Encode of every key — a key
// still in its buffered stage encodes as its exact items (KindExact), so
// restore and merge reproduce it losslessly — but it is spliced from the
// previous container: a key whose slot version has not moved since then is
// copied from it, and only the keys a mutation (or, for mlq and req, a read)
// touched are re-encoded. While no key was created, the sorted key list of
// the previous call is reused too. Keys are read under their own
// locks one at a time, so a snapshot taken under concurrent writes is a
// per-key-consistent (not globally atomic) view — the same staleness
// contract the sharded tier serves reads with. The returned slice is never
// written again by the store; callers must not write to it either.
func (s *Store) SnapshotPayload() ([]byte, int64, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked is SnapshotPayload's body. Caller holds snapMu.
func (s *Store) snapshotLocked() ([]byte, int64, error) {
	version := s.mutations.Load()
	sp := &s.snap
	if c := s.creates.Load(); !sp.valid || c != sp.creates {
		// Read the counter before the gather: creates moves after the key is
		// indexed, so a key the gather misses makes the next call regather.
		// A removed key needs no gather; its record is dropped below.
		s.gatherLocked()
		sp.creates = c
	}
	// Invalid until the container below is built and indexed: after an
	// error return the next call regathers and re-encodes every key.
	sp.valid = false
	entries := slices.Grow(sp.entries[:0], len(sp.recs))
	live := sp.recs[:0]
	for _, r := range sp.recs {
		var payload []byte
		if r.n > 0 && r.sl.ver.Load() == r.ver {
			payload = sp.prev[r.off : r.off+int(r.n)]
		} else {
			r.sl.mu.Lock()
			if r.sl.dead || r.sl.gen != r.gen {
				r.sl.mu.Unlock()
				continue // removed since the gather
			}
			var err error
			if payload, err = encoding.Encode(r.sl.sum); err != nil {
				r.sl.mu.Unlock()
				clear(entries)
				return nil, 0, fmt.Errorf("store: encoding key %q: %w", r.key, err)
			}
			r.ver = r.sl.ver.Load()
			r.sl.mu.Unlock()
		}
		live = append(live, r)
		entries = append(entries, encoding.KeyedPayload{Key: r.key, Payload: payload})
	}
	sp.recs = live
	out, err := encoding.EncodeStore(entries)
	if err != nil {
		clear(entries)
		return nil, 0, err
	}
	// Index the new container: records fill its tail, each laid out as
	// u32 keyLen | key | u32 payloadLen | payload.
	body := 0
	for _, e := range entries {
		body += 8 + len(e.Key) + len(e.Payload)
	}
	pos := len(out) - body
	for i, e := range entries {
		pos += 8 + len(e.Key)
		sp.recs[i].off, sp.recs[i].n = pos, uint32(len(e.Payload))
		pos += len(e.Payload)
	}
	clear(entries) // drop the fresh payloads; out holds their bytes now
	sp.entries = entries[:0]
	sp.prev = out
	sp.valid = true
	return out, version, nil
}

// gatherLocked rebuilds the record list from the key index, ascending by
// key, carrying each record of the previous list over when its key still
// names the same slot allocation. Caller holds snapMu.
func (s *Store) gatherLocked() {
	sp := &s.snap
	next := make([]snapRec, 0, s.keys.Load())
	for _, st := range s.stripes {
		st.mu.Lock()
		for k, id := range st.index {
			sl := st.slotAt(id)
			next = append(next, snapRec{key: k, sl: sl, gen: sl.gen})
		}
		st.mu.Unlock()
	}
	slices.SortFunc(next, func(a, b snapRec) int { return strings.Compare(a.key, b.key) })
	if sp.valid {
		old := sp.recs
		for i, j := 0, 0; i < len(next) && j < len(old); {
			switch c := strings.Compare(next[i].key, old[j].key); {
			case c < 0:
				i++
			case c > 0:
				j++
			default:
				if next[i].sl == old[j].sl && next[i].gen == old[j].gen {
					next[i] = old[j]
				}
				i++
				j++
			}
		}
	}
	sp.recs = next
}

// SnapshotVersion cheaply reports the store's content version for ETag
// revalidation; ok is always true (an empty store is a valid, versioned
// snapshot).
func (s *Store) SnapshotVersion() (int64, bool) {
	return s.mutations.Load(), true
}

// MergePayload folds a KindStore container into the store: each record's
// summary is merged into the same key under the COMBINE rule (eps_new = max)
// when the key exists, and adopted as the key's summary when it does not —
// so restoring onto an empty store reproduces the snapshotted state exactly,
// and merging two stores unions their key sets. Buffered keys participate in
// both directions: an exact record replays into an existing sketch, and a
// sketch record arriving at a buffered key absorbs the buffer and takes its
// place (a cross-stage promotion). The container is accepted whole or
// rejected whole: every nested payload is decoded and checked for
// mergeability against the store's current state before anything is applied
// (a retrying client must never double-merge the keys that happened to
// precede a bad record). A concurrent mutation racing the apply phase can
// still abort mid-way — the error says which key, and the count of keys
// applied is returned. Returns the number of keys applied.
//
// Merges are not WAL-logged; a persistent store should Checkpoint after
// applying large containers.
func (s *Store) MergePayload(payload []byte) (int, error) {
	records, err := encoding.DecodeStore(payload)
	if err != nil {
		return 0, err
	}
	type decoded struct {
		key string
		sum Summary
	}
	decs := make([]decoded, 0, len(records))
	for _, rec := range records {
		dec, err := encoding.Decode(rec.Payload)
		if err != nil {
			return 0, fmt.Errorf("store: decoding key %q: %w", rec.Key, err)
		}
		sum, ok := dec.(Summary)
		if !ok {
			return 0, fmt.Errorf("store: key %q decodes to %T, which is not a summary", rec.Key, dec)
		}
		if err := s.checkMergeable(rec.Key, sum); err != nil {
			return 0, fmt.Errorf("store: key %q: %w", rec.Key, err)
		}
		decs = append(decs, decoded{key: rec.Key, sum: sum})
	}
	for i, d := range decs {
		if err := s.adoptOrMerge(d.key, d.sum); err != nil {
			return i, fmt.Errorf("store: merging key %q: %w", d.key, err)
		}
	}
	s.maybeEvict()
	return len(decs), nil
}

// checkMergeable verifies, without mutating anything, that sum can merge
// into key's current summary (vacuously true when the key is absent — it
// would be adopted).
func (s *Store) checkMergeable(key string, sum Summary) error {
	h := s.get(key)
	if h.sl == nil {
		return nil
	}
	h.sl.mu.Lock()
	defer h.sl.mu.Unlock()
	if !h.valid() {
		return nil
	}
	return encoding.CheckMergeable(h.sl.sum, sum)
}

// adoptOrMerge installs sum as key's summary when the key is absent, and
// folds it into the existing summary otherwise (adopting the merge result
// when a cross-stage merge replaces the key's exact buffer with a sketch).
// The caller must not reuse sum afterwards.
func (s *Store) adoptOrMerge(key string, sum Summary) error {
	n := int64(sum.Count())
	for {
		st := s.stripeFor(key)
		st.mu.Lock()
		id, ok := st.index[key]
		if !ok {
			_, adoptedBuffered := sum.(*exact.Buffer)
			id = st.alloc()
			sl := st.slotAt(id)
			sl.mu.Lock()
			sl.gen++
			sl.dead = false
			sl.eps = s.EpsFor(key)
			if ep, okEps := sum.(summary.Epsiloned); okEps {
				sl.eps = ep.Epsilon()
			}
			sl.install(sum, adoptedBuffered)
			s.maybePromoteLocked(sl)
			adoptedBuffered = sl.buffered
			// Settle accounting before the slot becomes visible (see
			// getOrCreate for why).
			sl.items = int64(sl.sum.StoredCount())
			sl.retained = s.footprint(sl)
			nb, ni := sl.retained, sl.items
			sl.lastAccess.Store(s.now().UnixNano())
			sl.mu.Unlock()
			st.index[key] = id
			st.mu.Unlock()
			s.keys.Add(1)
			s.creates.Add(1)
			if adoptedBuffered {
				s.bufferedKeys.Add(1)
			}
			s.account(nb, ni)
			s.updates.Add(n)
			s.mutations.Add(1)
			return nil
		}
		sl := st.slotAt(id)
		h := handle{sl: sl, gen: sl.gen}
		st.mu.Unlock()
		sl.mu.Lock()
		if !h.valid() {
			sl.mu.Unlock()
			continue
		}
		wasBuffered := sl.buffered
		merged, err := encoding.MergeAdopting(sl.sum, sum)
		sl.ver.Add(1)
		var db, di int64
		if err == nil {
			if merged != any(sl.sum) {
				// Cross-stage: the incoming sketch absorbed the key's exact
				// buffer and replaces it.
				if ep, okEps := merged.(summary.Epsiloned); okEps && ep.Epsilon() > sl.eps {
					sl.eps = ep.Epsilon()
				}
				sl.install(merged.(Summary), false)
			}
			s.maybePromoteLocked(sl)
			if wasBuffered && !sl.buffered {
				s.promotions.Add(1)
				s.bufferedKeys.Add(-1)
			}
			db, di = s.settleLocked(sl)
		}
		sl.mu.Unlock()
		if err != nil {
			return err
		}
		s.touch(h)
		s.account(db, di)
		s.updates.Add(n)
		s.mutations.Add(1)
		return nil
	}
}

// Restore builds a new store from a configuration and a KindStore container
// payload, adopting every snapshotted key.
func Restore(cfg Config, payload []byte) (*Store, error) {
	s := New(cfg)
	if _, err := s.MergePayload(payload); err != nil {
		return nil, err
	}
	return s, nil
}

// Stats is a point-in-time view of the store's operational counters.
type Stats struct {
	// Keys is the number of live keys.
	Keys int
	// RetainedItems is the total number of items retained across all keys;
	// RetainedBytes is the budget-accounted footprint (summary.Sized where
	// implemented, items × BytesPerItem otherwise).
	RetainedItems int
	RetainedBytes int64
	// MaxRetainedBytes echoes the configured budget (0 = unbounded).
	MaxRetainedBytes int64
	// BufferedKeys is the number of live keys still in the pre-promotion
	// exact-buffer stage; PromotedKeys is the rest. Promotions counts
	// lifetime buffer→sketch promotions.
	BufferedKeys int
	PromotedKeys int
	Promotions   int64
	// Updates is the number of items accepted (including merged-in items);
	// Creates the number of key creations (including recreations).
	Updates int64
	Creates int64
	// EvictionsLRU and EvictionsIdle count keys evicted by the budget sweep
	// and by the idle TTL respectively.
	EvictionsLRU  int64
	EvictionsIdle int64
	// Mutations is the content version served as the snapshot ETag basis.
	Mutations int64
	// Persistence counters (zero on a non-persistent store): completed
	// checkpoints, WAL records appended since open, WAL records replayed at
	// open, and the unix-nanosecond time of the last checkpoint.
	Checkpoints        int64
	WALRecords         int64
	WALReplayed        int64
	LastCheckpointUnix int64
}

// Stats returns the operational counters for monitoring endpoints.
func (s *Store) Stats() Stats {
	keys := int(s.keys.Load())
	buffered := int(s.bufferedKeys.Load())
	promoted := keys - buffered
	if promoted < 0 {
		promoted = 0
	}
	return Stats{
		Keys:               keys,
		RetainedItems:      int(s.retainedItems.Load()),
		RetainedBytes:      s.retained.Load(),
		MaxRetainedBytes:   s.cfg.MaxRetainedBytes,
		BufferedKeys:       buffered,
		PromotedKeys:       promoted,
		Promotions:         s.promotions.Load(),
		Updates:            s.updates.Load(),
		Creates:            s.creates.Load(),
		EvictionsLRU:       s.evictionsLRU.Load(),
		EvictionsIdle:      s.evictionsIdle.Load(),
		Mutations:          s.mutations.Load(),
		Checkpoints:        s.checkpoints.Load(),
		WALRecords:         s.walRecords.Load(),
		WALReplayed:        s.walReplayed.Load(),
		LastCheckpointUnix: s.lastCheckpoint.Load(),
	}
}

// Evictions returns the total number of keys evicted by either policy (the
// quantity the keyed benchmark family records).
func (s *Store) Evictions() int {
	return int(s.evictionsLRU.Load() + s.evictionsIdle.Load())
}
