package cluster

// Keyed tier: the HTTP surface and aggregation layer of the multi-tenant
// store (internal/store). A writer node serves per-key endpoints next to its
// single-stream API; the whole store snapshots as one KindStore container;
// and a KeyedAggregator pulls those containers from every peer and merges
// them *per key* under the COMBINE rule, so the merged answer for each key
// carries eps = max over the peers that hold that key — exactly the
// single-stream guarantee, multiplied across the key space.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"quantilelb/internal/encoding"
	"quantilelb/internal/sharded"
	"quantilelb/internal/store"
	"quantilelb/internal/summary"
)

// MaxKeyBytes caps the length of a store key accepted over HTTP. The wire
// format tolerates longer keys (encoding.MaxStoreKeyBytes); the HTTP tier is
// stricter because keys arrive from untrusted clients one request at a time.
const MaxKeyBytes = 256

// keyView adapts one store key to the readView the shared read handlers
// serve, so the keyed endpoints reuse the exact JSON shapes of the
// single-stream tier.
type keyView struct {
	st  *store.Store
	key string
}

func (v keyView) Query(phi float64) (float64, bool) { return v.st.Query(v.key, phi) }
func (v keyView) EstimateRank(q float64) int        { return v.st.EstimateRank(v.key, q) }
func (v keyView) CDF(q float64) float64             { return v.st.CDF(v.key, q) }
func (v keyView) Count() int                        { return v.st.Count(v.key) }

// requestKey extracts and validates the {key} path segment, writing the
// error response itself when the key is unusable.
func requestKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if key == "" {
		httpError(w, http.StatusBadRequest, "empty store key")
		return "", false
	}
	if len(key) > MaxKeyBytes {
		httpError(w, http.StatusBadRequest, "store key of %d bytes exceeds %d", len(key), MaxKeyBytes)
		return "", false
	}
	return key, true
}

// NewKeyedServerHandler returns the keyed (multi-tenant) HTTP API of a
// writer node, serving the given store:
//
//	POST /v1/k/{key}/update    ingest a batch into one key (same body
//	                           formats as POST /v1/update: floats, JSON
//	                           array, weighted {v,w} JSON array, ?x=)
//	GET  /v1/k/{key}/quantile  per-key quantiles, same JSON shape as
//	                           /v1/quantile
//	GET  /v1/k/{key}/rank      per-key rank estimate
//	GET  /v1/k/{key}/cdf       per-key CDF points
//	GET  /v1/keys              {"keys":[...],"count":N}
//	GET  /v1/store/stats       key count, retained bytes vs budget, evictions
//	GET  /v1/store/snapshot    the whole store as one KindStore container
//	                           payload, ETag'd by the store's content version
//	POST /v1/store/merge       ingest a peer's KindStore container, merging
//	                           per key under the COMBINE rule
//
// Keys are opaque strings up to MaxKeyBytes (URL-escaped in paths). A query
// on a key that does not exist answers 404 exactly like an empty
// single-stream summary. Use NewStoreServerHandler to serve the keyed API
// next to a single-stream summary on one mux (what cmd/quantileserver does).
func NewKeyedServerHandler(st *store.Store) http.Handler {
	mux := http.NewServeMux()
	registerKeyedAPI(mux, st)
	return mux
}

// NewStoreServerHandler returns the full HTTP API of a writer node of the
// keyed tier: the single-stream endpoints of NewServerHandler (serving s)
// plus the keyed endpoints of NewKeyedServerHandler (serving st), on one
// mux. The two APIs are disjoint by path, so clients of either tier work
// unchanged.
func NewStoreServerHandler[S sharded.Mergeable[float64, S]](s *sharded.Sharded[float64, S], st *store.Store) http.Handler {
	mux := http.NewServeMux()
	registerServerAPI(mux, s)
	registerKeyedAPI(mux, st)
	return mux
}

// registerKeyedAPI mounts the keyed endpoints on mux.
func registerKeyedAPI(mux *http.ServeMux, st *store.Store) {
	snaps := &snapCache{}
	mux.HandleFunc("POST /v1/k/{key}/update", func(w http.ResponseWriter, r *http.Request) {
		key, ok := requestKey(w, r)
		if !ok {
			return
		}
		batch, weights, ok := parseUpdateRequest(w, r)
		if !ok {
			return
		}
		resp := map[string]any{"key": key, "accepted": len(batch)}
		if weights != nil {
			if len(batch) > 0 {
				if err := st.WeightedUpdateBatch(key, batch, weights); err != nil {
					// Weights passed wire validation, so this is the store's
					// own contract (e.g. the expansion-fallback guard of a
					// family without a native weighted path): still a client
					// problem, reported structurally.
					httpError(w, http.StatusBadRequest, "%v", err)
					return
				}
			}
			var total int64
			for _, wt := range weights {
				total += wt
			}
			resp["weight"] = total
		} else if len(batch) > 0 {
			st.UpdateBatch(key, batch)
		}
		resp["n"] = st.Count(key)
		writeJSON(w, resp)
	})
	forKey := func(serve func(readView, http.ResponseWriter, *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			key, ok := requestKey(w, r)
			if !ok {
				return
			}
			serve(keyView{st: st, key: key}, w, r)
		}
	}
	mux.HandleFunc("GET /v1/k/{key}/quantile", forKey(handleQuantile))
	mux.HandleFunc("GET /v1/k/{key}/rank", forKey(handleRank))
	mux.HandleFunc("GET /v1/k/{key}/cdf", forKey(handleCDF))
	mux.HandleFunc("GET /v1/keys", func(w http.ResponseWriter, r *http.Request) {
		keys := st.Keys()
		writeJSON(w, map[string]any{"keys": keys, "count": len(keys)})
	})
	mux.HandleFunc("GET /v1/store/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, storeStatsPayload(st.Stats()))
	})
	mux.HandleFunc("GET /v1/store/snapshot", func(w http.ResponseWriter, r *http.Request) {
		serveSnapshot(w, r, snaps, st)
	})
	mux.HandleFunc("POST /v1/store/merge", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err != nil {
			return
		}
		merged, err := st.MergePayload(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "merging keyed payload: %v", err)
			return
		}
		writeJSON(w, map[string]any{"merged_keys": merged, "keys": st.Len()})
	})
}

// storeStatsPayload renders store counters as the /store/stats JSON body.
func storeStatsPayload(st store.Stats) map[string]any {
	return map[string]any{
		"keys":               st.Keys,
		"retained_items":     st.RetainedItems,
		"retained_bytes":     st.RetainedBytes,
		"max_retained_bytes": st.MaxRetainedBytes,
		"buffered_keys":      st.BufferedKeys,
		"promoted_keys":      st.PromotedKeys,
		"promotions":         st.Promotions,
		"updates":            st.Updates,
		"creates":            st.Creates,
		"evictions_lru":      st.EvictionsLRU,
		"evictions_idle":     st.EvictionsIdle,
		"checkpoints":        st.Checkpoints,
		"wal_records":        st.WALRecords,
		"wal_replayed":       st.WALReplayed,
		"last_checkpoint_ns": st.LastCheckpointUnix,
	}
}

// keyedView is the immutable published merged state of a KeyedAggregator:
// one merged summary per key over every peer that holds the key.
type keyedView struct {
	sums    map[string]*keyedSum
	keys    []string // ascending
	n       int      // total items over all keys
	peers   int      // peers contributing a payload
	version int64    // strictly monotonic rebuild counter, the ETag basis
}

// keyedSum is one key's merged summary in a published view. A rebuild never
// mutates it, and later views share it while the key is unchanged. Some
// families fill a lazy query cache on their first read after a decode or a
// cross-stage merge, so every read or encode of sum takes mu.
type keyedSum struct {
	mu  sync.Mutex
	sum summary.Summary[float64]
	n   int // sum.Count(), fixed at publication
}

// keyedRecord is one peer's record of one key in the container the
// published view was built from.
type keyedRecord struct {
	payload []byte // the record's bytes, a sub-slice of the peer's container
	n       int    // item count of the decoded record; -1 until decoded
}

// peerRecords is one peer's part of the published view: the container it
// was built from and that container's records by key. A peer with no
// container contributes nothing.
type peerRecords struct {
	container []byte
	recs      map[string]keyedRecord
}

// KeyedAggregator merges the KindStore snapshots of many sources into one
// logical multi-tenant store view and serves the per-key read API over it.
// It is the keyed twin of Aggregator: same pull loop, same failure handling
// (a peer that cannot be reached keeps contributing its last successful
// snapshot), but the rebuild merges per key — a key held by several peers
// gets their summaries COMBINE-merged (eps = max over those peers), and a
// key held by one peer passes through unchanged.
//
// The rebuild is incremental: a round re-derives only the keys whose record
// changed, appeared or vanished on some peer, and every other key keeps the
// summary the previous view published. Published summaries are never
// mutated, so readers of an older view are unaffected by later rounds.
type KeyedAggregator struct {
	peers    []*peerState
	pullMu   sync.Mutex // serializes pull rounds; never held while reading
	mu       sync.Mutex // guards peerState fields; held only for field access
	view     atomic.Pointer[keyedView]
	pulls    atomic.Int64
	rebuilds atomic.Int64

	// built holds, per peer (index-aligned with peers), the records the
	// published view was built from; decoded counts the records the last
	// successful rebuild decoded. Both belong to the pull round (pullMu).
	built   []peerRecords
	decoded int
}

// NewKeyed returns a keyed aggregator over the given sources, which must
// yield KindStore container payloads (normally GET /v1/store/snapshot of a
// keyed writer node). The merged view is empty until the first PullOnce.
func NewKeyed(sources ...Source) *KeyedAggregator {
	a := &KeyedAggregator{built: make([]peerRecords, len(sources))}
	for _, src := range sources {
		a.peers = append(a.peers, &peerState{src: src})
	}
	return a
}

// NewKeyedHTTP returns a keyed aggregator pulling GET /v1/store/snapshot
// from each peer base URL with the given client (nil for a shared
// 10s-timeout default).
func NewKeyedHTTP(client *http.Client, peerURLs ...string) *KeyedAggregator {
	srcs := make([]Source, len(peerURLs))
	for i, u := range peerURLs {
		srcs[i] = &HTTPSource{URL: u, Client: client, Path: "/v1/store/snapshot"}
	}
	return NewKeyed(srcs...)
}

// PullOnce fetches every peer's keyed snapshot concurrently, rebuilds the
// per-key merged view, and publishes it. The failure contract matches
// Aggregator.PullOnce: fetch failures leave the peer's previous payload
// contributing and are joined into the returned error; a payload that fails
// to decode or merge aborts the rebuild and is dropped so the next round
// refetches it.
func (a *KeyedAggregator) PullOnce(ctx context.Context) error {
	a.pullMu.Lock()
	defer a.pullMu.Unlock()
	a.pulls.Add(1)

	changed, errs := fetchRound(ctx, a.peers, &a.mu)
	if !changed && a.view.Load() != nil {
		return errors.Join(errs...)
	}
	if badPeer, err := a.rebuild(); err != nil {
		if badPeer != nil {
			a.mu.Lock()
			badPeer.payload = nil
			badPeer.etag = ""
			badPeer.lastErr = err
			a.mu.Unlock()
		}
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// rebuild publishes the per-key merged view of every peer's retained
// container; on failure it returns the peer whose payload could not be used
// and leaves the published view and the per-peer records of a.built as
// they were. Caller holds pullMu (but not mu: decoding large payloads must
// not block Status).
//
// Only keys whose record changed, appeared or vanished on some peer since
// the published view are re-derived: each is decoded fresh from every peer
// that holds it and merged in peer order, exactly as a full rebuild would,
// so the result equals a from-scratch merge of the current containers.
// Every other key keeps its published summary; a published summary is never
// mutated or handed to MergeAdopting. The first round finds every key
// changed.
func (a *KeyedAggregator) rebuild() (*peerState, error) {
	prev := a.load()
	next := make([]peerRecords, len(a.peers))
	dirty := make(map[string]bool)
	for i, p := range a.peers {
		old := a.built[i]
		if bytes.Equal(p.payload, old.container) {
			next[i] = old
			continue
		}
		var cur peerRecords
		if len(p.payload) > 0 {
			records, err := encoding.DecodeStore(p.payload)
			if err != nil {
				return p, fmt.Errorf("peer %s: decoding keyed snapshot: %w", p.src.Name(), err)
			}
			cur = peerRecords{container: p.payload, recs: make(map[string]keyedRecord, len(records))}
			for _, rec := range records {
				n := -1
				if o, ok := old.recs[rec.Key]; ok && bytes.Equal(o.payload, rec.Payload) {
					n = o.n
				} else {
					dirty[rec.Key] = true
				}
				cur.recs[rec.Key] = keyedRecord{payload: rec.Payload, n: n}
			}
		}
		for k := range old.recs {
			if _, ok := cur.recs[k]; !ok {
				dirty[k] = true
			}
		}
		next[i] = cur
	}

	// Re-derive the dirty keys, peer by peer and in key order within a peer,
	// the order a full rebuild merges in.
	keys := make([]string, 0, len(dirty))
	for k := range dirty {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	fresh := make(map[string]summary.Summary[float64], len(keys))
	decoded := 0
	for i, p := range a.peers {
		for _, k := range keys {
			rec, ok := next[i].recs[k]
			if !ok {
				continue
			}
			dec, err := encoding.Decode(rec.payload)
			if err != nil {
				return p, fmt.Errorf("peer %s: key %q: %w", p.src.Name(), k, err)
			}
			sum, ok := dec.(summary.Summary[float64])
			if !ok {
				return p, fmt.Errorf("peer %s: key %q decodes to %T, which is not a summary", p.src.Name(), k, dec)
			}
			decoded++
			if rec.n < 0 {
				// Only records of this round's containers are undecoded, so
				// this never writes into a.built.
				rec.n = sum.Count()
				next[i].recs[k] = rec
			}
			if existing, ok := fresh[k]; ok {
				// MergeAdopting handles the cross-stage case: when the
				// existing entry is a cold key's exact buffer and the incoming
				// record is a sketch, the sketch absorbs the buffer and takes
				// the slot.
				res, err := encoding.MergeAdopting(existing, sum)
				if err != nil {
					return p, fmt.Errorf("peer %s: key %q: cluster: %w", p.src.Name(), k, err)
				}
				fresh[k] = res.(summary.Summary[float64])
			} else {
				fresh[k] = sum
			}
		}
	}

	sums := make(map[string]*keyedSum, len(prev.sums)+len(fresh))
	maps.Copy(sums, prev.sums)
	n := prev.n
	keySetChanged := false
	for _, k := range keys {
		old, had := prev.sums[k]
		if had {
			n -= old.n
		}
		s, has := fresh[k]
		if has {
			sums[k] = &keyedSum{sum: s, n: s.Count()}
			n += sums[k].n
		} else {
			delete(sums, k)
		}
		keySetChanged = keySetChanged || had != has
	}
	viewKeys := prev.keys
	if keySetChanged {
		viewKeys = slices.Sorted(maps.Keys(sums))
	}

	contributing := 0
	a.mu.Lock()
	for i, p := range a.peers {
		if len(next[i].container) == 0 {
			continue
		}
		peerN := 0
		for _, rec := range next[i].recs {
			peerN += rec.n
		}
		p.kind = encoding.KindStore
		p.n = peerN
		contributing++
	}
	a.mu.Unlock()
	a.built = next
	a.decoded = decoded
	a.view.Store(&keyedView{
		sums:    sums,
		keys:    viewKeys,
		n:       n,
		peers:   contributing,
		version: a.rebuilds.Add(1),
	})
	return nil, nil
}

// Start launches a background pull loop with the given interval and returns
// a function that stops it. Pull errors are retained per peer and visible
// via Status; the loop itself never stops on error.
func (a *KeyedAggregator) Start(interval time.Duration) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_ = a.PullOnce(ctx)
			case <-ctx.Done():
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
}

// load returns the published merged view, never nil.
func (a *KeyedAggregator) load() *keyedView {
	if v := a.view.Load(); v != nil {
		return v
	}
	return &keyedView{}
}

// Query returns an approximate ϕ-quantile of key's substream over the union
// of all peers holding the key; false when no peer holds it.
func (a *KeyedAggregator) Query(key string, phi float64) (float64, bool) {
	e := a.load().sums[key]
	if e == nil {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sum.Query(phi)
}

// EstimateRank estimates the number of items ≤ q in key's merged substream;
// 0 when no peer holds the key.
func (a *KeyedAggregator) EstimateRank(key string, q float64) int {
	e := a.load().sums[key]
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sum.EstimateRank(q)
}

// CDF returns the estimated fraction of key's merged items ≤ q, clamped to
// [0, 1].
func (a *KeyedAggregator) CDF(key string, q float64) float64 {
	e := a.load().sums[key]
	if e == nil || e.n == 0 {
		return 0
	}
	e.mu.Lock()
	r := e.sum.EstimateRank(q)
	e.mu.Unlock()
	if r < 0 {
		r = 0
	}
	if r > e.n {
		r = e.n
	}
	return float64(r) / float64(e.n)
}

// Count returns the number of items in key's merged substream.
func (a *KeyedAggregator) Count(key string) int {
	if e := a.load().sums[key]; e != nil {
		return e.n
	}
	return 0
}

// Keys returns every key any peer holds, in ascending order.
func (a *KeyedAggregator) Keys() []string { return a.load().keys }

// TotalCount returns the total items over all keys and peers.
func (a *KeyedAggregator) TotalCount() int { return a.load().n }

// ContributingPeers returns how many peers' payloads are in the merged view.
func (a *KeyedAggregator) ContributingPeers() int { return a.load().peers }

// Pulls returns the number of pull rounds performed.
func (a *KeyedAggregator) Pulls() int { return int(a.pulls.Load()) }

// Status reports the per-peer pull state for monitoring; it never waits on a
// pull round in flight.
func (a *KeyedAggregator) Status() []PeerStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return statusLocked(a.peers)
}

// SnapshotVersion reports the merged view's rebuild version without
// serializing it; ok is false before the first rebuild.
func (a *KeyedAggregator) SnapshotVersion() (int64, bool) {
	v := a.view.Load()
	if v == nil {
		return 0, false
	}
	return v.version, true
}

// SnapshotPayload re-exports the merged view as one KindStore container, so
// keyed aggregators compose into trees exactly like the single-stream tier.
func (a *KeyedAggregator) SnapshotPayload() ([]byte, int64, error) {
	v := a.view.Load()
	if v == nil {
		return nil, 0, errors.New("cluster: no merged keyed view yet")
	}
	entries := make([]encoding.KeyedPayload, 0, len(v.keys))
	for _, k := range v.keys {
		e := v.sums[k]
		e.mu.Lock()
		payload, err := encoding.Encode(e.sum)
		e.mu.Unlock()
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: encoding merged key %q: %w", k, err)
		}
		entries = append(entries, encoding.KeyedPayload{Key: k, Payload: payload})
	}
	payload, err := encoding.EncodeStore(entries)
	if err != nil {
		return nil, 0, err
	}
	return payload, v.version, nil
}

// aggKeyView adapts one merged key to the shared read handlers.
type aggKeyView struct {
	a   *KeyedAggregator
	key string
}

func (v aggKeyView) Query(phi float64) (float64, bool) { return v.a.Query(v.key, phi) }
func (v aggKeyView) EstimateRank(q float64) int        { return v.a.EstimateRank(v.key, q) }
func (v aggKeyView) CDF(q float64) float64             { return v.a.CDF(v.key, q) }
func (v aggKeyView) Count() int                        { return v.a.Count(v.key) }

// NewKeyedAggregatorHandler returns the keyed aggregator's HTTP API: the
// same per-key read endpoints a keyed writer node exposes (identical JSON
// shapes, so clients need not know which tier they query), plus:
//
//	GET  /v1/keys            every key any peer holds
//	GET  /v1/stats           merged-view size and per-peer pull health
//	GET  /v1/store/snapshot  the merged view re-exported as a KindStore
//	                         container (keyed aggregators compose into trees)
//	POST /v1/pull            force a pull round now; 502 when every peer
//	                         failed
func NewKeyedAggregatorHandler(a *KeyedAggregator) http.Handler {
	snaps := &snapCache{}
	mux := http.NewServeMux()
	forKey := func(serve func(readView, http.ResponseWriter, *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			key, ok := requestKey(w, r)
			if !ok {
				return
			}
			serve(aggKeyView{a: a, key: key}, w, r)
		}
	}
	mux.HandleFunc("GET /v1/k/{key}/quantile", forKey(handleQuantile))
	mux.HandleFunc("GET /v1/k/{key}/rank", forKey(handleRank))
	mux.HandleFunc("GET /v1/k/{key}/cdf", forKey(handleCDF))
	mux.HandleFunc("GET /v1/keys", func(w http.ResponseWriter, r *http.Request) {
		keys := a.Keys()
		writeJSON(w, map[string]any{"keys": keys, "count": len(keys)})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"keys":         len(a.Keys()),
			"n":            a.TotalCount(),
			"contributing": a.ContributingPeers(),
			"pulls":        a.Pulls(),
			"peers":        a.Status(),
		})
	})
	mux.HandleFunc("GET /v1/store/snapshot", func(w http.ResponseWriter, r *http.Request) {
		serveSnapshot(w, r, snaps, a)
	})
	mux.HandleFunc("POST /v1/pull", func(w http.ResponseWriter, r *http.Request) {
		err := a.PullOnce(r.Context())
		if err != nil && a.ContributingPeers() == 0 {
			httpError(w, http.StatusBadGateway, "pull failed: %v", err)
			return
		}
		resp := map[string]any{"keys": len(a.Keys()), "n": a.TotalCount(), "contributing": a.ContributingPeers()}
		if err != nil {
			resp["partial_error"] = err.Error()
		}
		writeJSON(w, resp)
	})
	return mux
}
