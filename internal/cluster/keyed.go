package cluster

// Keyed tier: the HTTP surface and aggregation layer of the multi-tenant
// store (internal/store). A writer node serves per-key endpoints next to its
// single-stream API; the whole store snapshots as one KindStore container;
// and a KeyedAggregator pulls those containers from every peer and merges
// them *per key* under the COMBINE rule, so the merged answer for each key
// carries eps = max over the peers that hold that key — exactly the
// single-stream guarantee, multiplied across the key space.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
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
	sums    map[string]summary.Summary[float64]
	keys    []string // ascending
	n       int      // total items over all keys
	peers   int      // peers contributing a payload
	version int64    // strictly monotonic rebuild counter, the ETag basis
}

// KeyedAggregator merges the KindStore snapshots of many sources into one
// logical multi-tenant store view and serves the per-key read API over it.
// It is the keyed twin of Aggregator: same pull loop, same failure handling
// (a peer that cannot be reached keeps contributing its last successful
// snapshot), but the rebuild merges per key — a key held by several peers
// gets their summaries COMBINE-merged (eps = max over those peers), and a
// key held by one peer passes through unchanged.
type KeyedAggregator struct {
	peers    []*peerState
	pullMu   sync.Mutex // serializes pull rounds; never held while reading
	mu       sync.Mutex // guards peerState fields; held only for field access
	view     atomic.Pointer[keyedView]
	pulls    atomic.Int64
	rebuilds atomic.Int64
}

// NewKeyed returns a keyed aggregator over the given sources, which must
// yield KindStore container payloads (normally GET /v1/store/snapshot of a
// keyed writer node). The merged view is empty until the first PullOnce.
func NewKeyed(sources ...Source) *KeyedAggregator {
	a := &KeyedAggregator{}
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

// rebuild decodes every retained container and publishes the per-key merged
// view; on failure it returns the peer whose payload could not be used.
// Caller holds pullMu (but not mu: decoding large payloads must not block
// Status).
func (a *KeyedAggregator) rebuild() (*peerState, error) {
	merged := make(map[string]summary.Summary[float64])
	contributing := 0
	for _, p := range a.peers {
		if len(p.payload) == 0 {
			continue
		}
		records, err := encoding.DecodeStore(p.payload)
		if err != nil {
			return p, fmt.Errorf("peer %s: decoding keyed snapshot: %w", p.src.Name(), err)
		}
		peerN := 0
		for _, rec := range records {
			dec, err := encoding.Decode(rec.Payload)
			if err != nil {
				return p, fmt.Errorf("peer %s: key %q: %w", p.src.Name(), rec.Key, err)
			}
			sum, ok := dec.(summary.Summary[float64])
			if !ok {
				return p, fmt.Errorf("peer %s: key %q decodes to %T, which is not a summary", p.src.Name(), rec.Key, dec)
			}
			peerN += sum.Count()
			if existing, ok := merged[rec.Key]; ok {
				// MergeAdopting handles the cross-stage case: when the
				// existing entry is a cold key's exact buffer and the incoming
				// record is a sketch, the sketch absorbs the buffer and takes
				// the slot.
				res, err := encoding.MergeAdopting(existing, sum)
				if err != nil {
					return p, fmt.Errorf("peer %s: key %q: cluster: %w", p.src.Name(), rec.Key, err)
				}
				merged[rec.Key] = res.(summary.Summary[float64])
			} else {
				merged[rec.Key] = sum
			}
		}
		a.mu.Lock()
		p.kind = encoding.KindStore
		p.n = peerN
		a.mu.Unlock()
		contributing++
	}
	keys := make([]string, 0, len(merged))
	n := 0
	for k, s := range merged {
		keys = append(keys, k)
		n += s.Count()
	}
	sort.Strings(keys)
	a.view.Store(&keyedView{
		sums:    merged,
		keys:    keys,
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
	s := a.load().sums[key]
	if s == nil {
		return 0, false
	}
	return s.Query(phi)
}

// EstimateRank estimates the number of items ≤ q in key's merged substream;
// 0 when no peer holds the key.
func (a *KeyedAggregator) EstimateRank(key string, q float64) int {
	s := a.load().sums[key]
	if s == nil {
		return 0
	}
	return s.EstimateRank(q)
}

// CDF returns the estimated fraction of key's merged items ≤ q, clamped to
// [0, 1].
func (a *KeyedAggregator) CDF(key string, q float64) float64 {
	s := a.load().sums[key]
	if s == nil {
		return 0
	}
	n := s.Count()
	if n == 0 {
		return 0
	}
	r := s.EstimateRank(q)
	if r < 0 {
		r = 0
	}
	if r > n {
		r = n
	}
	return float64(r) / float64(n)
}

// Count returns the number of items in key's merged substream.
func (a *KeyedAggregator) Count(key string) int {
	s := a.load().sums[key]
	if s == nil {
		return 0
	}
	return s.Count()
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
		payload, err := encoding.Encode(v.sums[k])
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
