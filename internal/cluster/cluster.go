// Package cluster is the distributed snapshot/aggregation tier: it turns K
// single-node writers (cmd/quantileserver instances, each a sharded mergeable
// summary) into one logical quantile summary served by an aggregator
// (cmd/quantileagg).
//
// The paper reproduced here (Cormode & Veselý, PODS 2020) proves that a
// single comparison-based summary must retain Ω((1/ε)·log(1/ε)) items; the
// practical way to scale past any single node is horizontal: every summary in
// this repository merges with eps_new = max(eps_1, eps_2) (the COMBINE
// discipline of the mergeable-summaries literature the paper cites), so an
// aggregator that pulls the wire snapshot of every node and folds them
// together answers queries over the union of all nodes' streams with
// accuracy max_i eps_i — no error is added by distribution itself.
//
// Pull loop. The Aggregator periodically fetches each configured Source
// (normally GET /v1/snapshot of a quantileserver, via HTTPSource). Fetches carry
// the previous ETag, so an idle node answers 304 and ships no bytes. The
// merged view is rebuilt from the latest payload of every peer and
// published atomically; readers never block on a pull, and a round in which
// every reachable peer answered 304 skips the rebuild entirely. The
// single-stream Aggregator decodes fresh summaries each round, so merging
// (which mutates the receiver) never corrupts retained peer state. The
// KeyedAggregator rebuilds per key and incrementally: a round re-derives,
// from fresh decodes of every peer's record, only the keys whose record
// changed, appeared or vanished on some peer, and keeps every other key's
// published summary. Published summaries are never mutated, so the view
// always equals a from-scratch merge of the retained payloads. Both tiers
// take a lock around every read of a published summary (the view's, or the
// key's): some families fill a lazy query cache on their first read.
//
// Failure handling. A peer that cannot be reached keeps contributing its last
// successful snapshot (stale-but-available beats absent: quantile summaries
// are monotone accumulations, so a stale substream only under-counts recent
// items); the error is recorded per peer and surfaced via Status and the
// aggregator's /v1/stats endpoint. A peer that has never been reached
// contributes nothing until its first successful pull.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quantilelb/internal/encoding"
	"quantilelb/internal/summary"
)

// Source yields wire payloads of one node's current summary. Implementations
// must be safe for use from the aggregator's pull goroutine.
type Source interface {
	// Name identifies the peer in status reports (for HTTPSource, its URL).
	Name() string
	// Fetch returns the node's current snapshot payload. etag carries the
	// value returned by the previous fetch ("" on the first); notModified
	// reports that the content is unchanged since then, in which case payload
	// is nil and the previous payload remains valid.
	Fetch(ctx context.Context, etag string) (payload []byte, newETag string, notModified bool, err error)
}

// defaultPullClient bounds fetches when HTTPSource.Client is nil. A pull
// must always have a deadline: PullOnce holds pullMu across the round, so a
// single half-open connection to a blackholed peer would otherwise wedge
// every future pull for every peer.
var defaultPullClient = &http.Client{Timeout: 10 * time.Second}

// Adaptive delta suppression (see HTTPSource.Delta): after
// deltaSuppressAfter consecutive delta-eligible fetches answered with a full
// payload, the source stops asking for deltas for deltaReprobeEvery fetches,
// then probes again. A peer whose snapshot layout shuffles every refresh
// (so its deltas never save bytes and it always falls back to full) thus
// stops paying the per-fetch delta-computation cost after a few rounds,
// while a peer that starts producing profitable deltas again is rediscovered
// within a probe cycle.
const (
	deltaSuppressAfter = 3
	deltaReprobeEvery  = 32
)

// HTTPSource pulls GET {URL}/v1/snapshot (or {URL}{Path}) from a
// quantileserver (or another aggregator — the tier composes into trees,
// since aggregators re-export /v1/snapshot). An HTTPSource carries per-peer negotiation state and must not
// be copied after first use.
type HTTPSource struct {
	// URL is the peer's base URL, e.g. "http://10.0.0.7:8080".
	URL string
	// Client is the HTTP client to use; nil means a shared default with a
	// 10s timeout (never the deadline-less http.DefaultClient — see
	// defaultPullClient).
	Client *http.Client
	// Fresh requests ?fresh=1 snapshots (the peer rebuilds its merged view
	// before answering). Deterministic, at the cost of a merge on the peer
	// per pull; leave false in production, where the peer's AutoRefresh
	// bounds staleness.
	Fresh bool
	// Path is the snapshot endpoint to pull; empty means "/v1/snapshot"
	// (the single-stream tier). The keyed tier pulls "/v1/store/snapshot".
	Path string
	// Delta negotiates incremental snapshots: revalidation fetches ask for
	// ?mode=delta&base=<etag>, and the peer answers with a KindDelta payload
	// when it still holds the base and the delta saves bytes (falling back
	// to the full payload otherwise). The aggregator's pull loop applies the
	// delta to the peer's retained payload; a base mismatch simply forces a
	// full refetch on the next round, so Delta is purely a bandwidth
	// optimization. Negotiation is adaptive: a peer that keeps falling back
	// to full payloads (e.g. one whose snapshot layout changes on every
	// refresh, making every delta as large as the full) is asked for deltas
	// only every deltaReprobeEvery fetches instead of every round, so
	// unprofitable peers do not pay the delta-computation cost forever.
	Delta bool

	// mu guards the adaptive-suppression state below.
	mu sync.Mutex
	// consecFulls counts consecutive delta-requesting fetches the peer
	// answered with a full payload (its "delta would not save bytes"
	// fallback); at deltaSuppressAfter the source suppresses negotiation.
	consecFulls int
	// suppressRemaining is the countdown of fetches left in the current
	// suppression window; while positive, fetches do not ask for deltas.
	suppressRemaining int
}

// shouldAskDelta consumes one step of the suppression state machine and
// reports whether this fetch should negotiate a delta.
func (h *HTTPSource) shouldAskDelta() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.suppressRemaining > 0 {
		h.suppressRemaining--
		if h.suppressRemaining == 0 {
			// The next eligible fetch is the re-probe; a single further full
			// answer re-suppresses immediately.
			h.consecFulls = deltaSuppressAfter - 1
		}
		return false
	}
	return true
}

// recordDeltaOutcome feeds the answer to a delta-negotiated fetch back into
// the suppression state machine.
func (h *HTTPSource) recordDeltaOutcome(gotDelta bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if gotDelta {
		h.consecFulls = 0
		return
	}
	h.consecFulls++
	if h.consecFulls >= deltaSuppressAfter {
		h.consecFulls = 0
		h.suppressRemaining = deltaReprobeEvery
	}
}

// Name returns the peer's base URL.
func (h *HTTPSource) Name() string { return h.URL }

// Fetch implements Source over GET /v1/snapshot with If-None-Match (and
// delta negotiation when Delta is set).
func (h *HTTPSource) Fetch(ctx context.Context, etag string) ([]byte, string, bool, error) {
	path := h.Path
	if path == "" {
		path = "/v1/snapshot"
	}
	u := strings.TrimSuffix(h.URL, "/") + path
	params := url.Values{}
	if h.Fresh {
		params.Set("fresh", "1")
	}
	askedDelta := false
	if h.Delta && etag != "" && h.shouldAskDelta() {
		askedDelta = true
		params.Set("mode", "delta")
		params.Set("base", etag)
	}
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, "", false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	client := h.Client
	if client == nil {
		client = defaultPullClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, "", false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, etag, true, nil
	case http.StatusOK:
		payload, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes+1))
		if err != nil {
			return nil, "", false, fmt.Errorf("reading snapshot body: %w", err)
		}
		if len(payload) > MaxBodyBytes {
			return nil, "", false, fmt.Errorf("snapshot exceeds %d bytes", MaxBodyBytes)
		}
		if askedDelta {
			h.recordDeltaOutcome(encoding.IsDelta(payload))
		}
		return payload, resp.Header.Get("ETag"), false, nil
	}
	return nil, "", false, fmt.Errorf("GET %s: status %s", u, resp.Status)
}

// SummarySource adapts an in-process payload producer to the Source
// interface — used by tests and by the benchmark harness to drive the
// aggregation path without HTTP.
type SummarySource struct {
	// SourceName identifies the peer in status reports.
	SourceName string
	// Payload returns the node's current wire payload.
	Payload func() ([]byte, error)
}

// Name returns the configured source name.
func (s *SummarySource) Name() string { return s.SourceName }

// Fetch implements Source; it never reports 304 (local producers are cheap
// enough to re-encode).
func (s *SummarySource) Fetch(context.Context, string) ([]byte, string, bool, error) {
	p, err := s.Payload()
	return p, "", false, err
}

// peerState is the aggregator's record of one source. Fields are written
// only by the pull round in flight (pullMu serializes rounds) and every
// write additionally holds Aggregator.mu, so Status can copy a consistent
// view without waiting out a round's network fetches.
type peerState struct {
	src          Source
	etag         string
	payload      []byte
	kind         encoding.Kind
	n            int
	lastErr      error
	lastSuccess  time.Time
	fetches      int
	notModified  int
	deltaFetches int   // fetches answered with a KindDelta payload
	wireBytes    int64 // total snapshot bytes received (deltas at delta size)
}

// PeerStatus is a point-in-time view of one peer for monitoring.
type PeerStatus struct {
	// Name identifies the peer (its URL for HTTP sources).
	Name string `json:"name"`
	// Healthy reports that the most recent pull succeeded.
	Healthy bool `json:"healthy"`
	// LastError is the most recent pull error, empty when Healthy.
	LastError string `json:"last_error,omitempty"`
	// Kind names the summary family of the peer's last payload.
	Kind string `json:"kind,omitempty"`
	// N is the update count the peer's last payload covers.
	N int `json:"n"`
	// PayloadBytes is the size of the retained payload.
	PayloadBytes int `json:"payload_bytes"`
	// Fetches counts pull attempts; NotModified counts those answered 304.
	Fetches     int `json:"fetches"`
	NotModified int `json:"not_modified"`
	// DeltaFetches counts fetches answered with an incremental KindDelta
	// payload; WireBytes totals the snapshot bytes actually received
	// (deltas counted at delta size — the bandwidth the tier paid).
	DeltaFetches int   `json:"delta_fetches,omitempty"`
	WireBytes    int64 `json:"wire_bytes"`
	// LastSuccess is the time of the last successful pull (zero if never).
	LastSuccess time.Time `json:"last_success,omitzero"`
}

// fetchOutcome is the result of one peer fetch within a pull round.
type fetchOutcome struct {
	payload     []byte
	etag        string
	notModified bool
	err         error
}

// fetchRound fetches every peer's snapshot concurrently — with no lock held,
// so a blackholed peer never makes Status (and GET /v1/stats, the endpoint that
// diagnoses exactly that incident) wait out the HTTP timeout — then records
// the outcomes into the peer states under mu. It reports whether any peer
// shipped a new payload, plus the per-peer fetch errors. The caller must
// hold its pull-round mutex, which makes this round the only writer of the
// peer fields read here. Shared by the single-stream Aggregator and the
// KeyedAggregator.
func fetchRound(ctx context.Context, peers []*peerState, mu *sync.Mutex) (changed bool, errs []error) {
	outcomes := make([]fetchOutcome, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *peerState) {
			defer wg.Done()
			var o fetchOutcome
			o.payload, o.etag, o.notModified, o.err = p.src.Fetch(ctx, p.etag)
			outcomes[i] = o
		}(i, p)
	}
	wg.Wait()

	errs = make([]error, 0, len(peers)+1)
	now := time.Now()
	mu.Lock()
	for i, p := range peers {
		o := outcomes[i]
		p.fetches++
		if o.err != nil {
			errs = append(errs, fmt.Errorf("peer %s: %w", p.src.Name(), o.err))
			p.lastErr = o.err
			continue
		}
		p.lastErr = nil
		p.lastSuccess = now
		if o.notModified {
			p.notModified++
			continue
		}
		p.wireBytes += int64(len(o.payload))
		if encoding.IsDelta(o.payload) {
			// An incremental snapshot: reconstruct the full payload against
			// the peer's retained base. ApplyDelta verifies both content
			// hashes, so a stale or wrong base can never splice a corrupt
			// payload into the merge — it clears the peer's state instead,
			// forcing a full refetch next round.
			p.deltaFetches++
			full, err := encoding.ApplyDelta(p.payload, o.payload)
			if err != nil {
				err = fmt.Errorf("applying delta snapshot: %w", err)
				errs = append(errs, fmt.Errorf("peer %s: %w", p.src.Name(), err))
				p.lastErr = err
				p.payload = nil
				p.etag = ""
				continue
			}
			o.payload = full
		}
		p.payload = o.payload
		p.etag = o.etag
		changed = true
	}
	mu.Unlock()
	return changed, errs
}

// statusLocked builds the per-peer monitoring view; the caller holds the
// owning aggregator's field mutex.
func statusLocked(peers []*peerState) []PeerStatus {
	out := make([]PeerStatus, len(peers))
	for i, p := range peers {
		st := PeerStatus{
			Name:         p.src.Name(),
			Healthy:      p.lastErr == nil && !p.lastSuccess.IsZero(),
			N:            p.n,
			PayloadBytes: len(p.payload),
			Fetches:      p.fetches,
			NotModified:  p.notModified,
			DeltaFetches: p.deltaFetches,
			WireBytes:    p.wireBytes,
			LastSuccess:  p.lastSuccess,
		}
		if p.lastErr != nil {
			st.LastError = p.lastErr.Error()
		}
		if p.kind != 0 {
			st.Kind = p.kind.String()
		}
		out[i] = st
	}
	return out
}

// view is the published merged state. A rebuild never mutates a published
// view's summary, but some families (mlq and req, for instance) fill a lazy
// query cache on their first read after a decode, a merge or a Prune, so
// every read or encode of sum takes mu.
type view struct {
	mu      sync.Mutex
	sum     summary.Summary[float64]
	n       int
	peers   int   // number of peers contributing a payload
	version int64 // strictly monotonic rebuild counter, the ETag basis
}

// Aggregator merges the snapshots of many Sources into one logical summary
// and serves the read API from the merged view. All read methods are safe
// for concurrent use and never block on a pull in flight.
type Aggregator struct {
	peers    []*peerState
	pullMu   sync.Mutex // serializes pull rounds; never held while reading
	mu       sync.Mutex // guards peerState fields; held only for field access
	view     atomic.Pointer[view]
	pulls    atomic.Int64
	rebuilds atomic.Int64
	tree     *TreeConfig  // non-nil for combiners (see tree.go)
	sheds    atomic.Int64 // rounds that hit the tree's RoundTimeout
}

// New returns an aggregator over the given sources. The merged view is empty
// until the first PullOnce (or Start tick) completes.
func New(sources ...Source) *Aggregator {
	a := &Aggregator{}
	for _, src := range sources {
		a.peers = append(a.peers, &peerState{src: src})
	}
	return a
}

// NewHTTP returns an aggregator pulling GET /v1/snapshot from each peer base
// URL with the given client (nil for the shared default client, which has
// a 10s timeout; see HTTPSource.Client).
func NewHTTP(client *http.Client, peerURLs ...string) *Aggregator {
	srcs := make([]Source, len(peerURLs))
	for i, u := range peerURLs {
		srcs[i] = &HTTPSource{URL: u, Client: client}
	}
	return New(srcs...)
}

// PullOnce fetches every peer's snapshot concurrently, rebuilds the merged
// view from the latest payload of each peer, and publishes it. Peers that
// fail keep their previous payload (see the package comment on failure
// handling); their errors are joined into the returned error, so a non-nil
// return with a still-updated view is the expected partial-failure outcome.
// An error decoding or merging a payload aborts the rebuild instead: a
// corrupt peer must not silently vanish from the global answer.
func (a *Aggregator) PullOnce(ctx context.Context) error {
	a.pullMu.Lock()
	defer a.pullMu.Unlock()
	a.pulls.Add(1)

	// Backpressure: a combiner bounds its round so one slow child cannot
	// stall the whole level — children past the deadline are shed to stale
	// serving and the shed counter ticks.
	if a.tree != nil && a.tree.RoundTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.tree.RoundTimeout)
		defer cancel()
	}
	changed, errs := fetchRound(ctx, a.peers, &a.mu)
	if a.tree != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		a.sheds.Add(1)
	}

	// Nothing moved (every reachable peer answered 304) and a view is
	// already published: skip the decode + merge entirely — the whole point
	// of the ETag path is that idle rounds cost nothing.
	if !changed && a.view.Load() != nil {
		return errors.Join(errs...)
	}
	if badPeer, err := a.rebuild(); err != nil {
		// A payload that fails to decode or merge must not be retained: its
		// ETag would keep answering 304 and freeze the view behind a
		// rebuild that can never succeed. Dropping payload and ETag forces
		// a refetch next round, and the recorded error makes the peer show
		// unhealthy in Status until a usable payload arrives.
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

// rebuild decodes every retained payload and publishes the merged view; on
// failure it returns the peer whose payload could not be used. Caller holds
// pullMu (but not mu: decoding and merging large payloads must not block
// Status).
func (a *Aggregator) rebuild() (*peerState, error) {
	var merged any
	contributing := 0
	for _, p := range a.peers {
		if len(p.payload) == 0 {
			continue
		}
		dec, err := encoding.Decode(p.payload)
		if err != nil {
			return p, fmt.Errorf("peer %s: decoding snapshot: %w", p.src.Name(), err)
		}
		kind, _ := encoding.DetectKind(p.payload)
		sum, ok := dec.(summary.Summary[float64])
		if !ok {
			return p, fmt.Errorf("peer %s: payload kind %v is not a quantile summary", p.src.Name(), kind)
		}
		if a.tree != nil {
			// Per-level budget: a child that spent more than its level allows
			// would silently void the tree's end-to-end guarantee — reject it
			// like a corrupt payload (dropped and refetched, peer unhealthy).
			if err := a.tree.validateChild(p.src.Name(), dec); err != nil {
				return p, err
			}
		}
		a.mu.Lock()
		p.kind = kind
		p.n = sum.Count()
		a.mu.Unlock()
		contributing++
		if merged == nil {
			merged = dec
			continue
		}
		if err := mergeAny(merged, dec); err != nil {
			return p, fmt.Errorf("peer %s: %w", p.src.Name(), err)
		}
	}
	if merged == nil {
		a.view.Store(&view{version: a.rebuilds.Add(1)})
		return nil, nil
	}
	if a.tree != nil {
		// Spend this level's eps/h: prune the merged view to ⌈h/eps⌉+1
		// retained entries so the payload shipped upward is O(h/eps)
		// regardless of fan-in. The view is decoded fresh every rebuild, so
		// the degradation never compounds across rounds.
		if pr, ok := merged.(pruner); ok {
			pr.Prune(a.tree.pruneK())
		}
	}
	sum := merged.(summary.Summary[float64])
	a.view.Store(&view{sum: sum, n: sum.Count(), peers: contributing, version: a.rebuilds.Add(1)})
	return nil, nil
}

// mergeAny folds src into dst when both hold the same mergeable concrete
// summary type, delegating to the shared dispatch of internal/encoding.
// Every branch preserves the COMBINE budget eps_new = max.
func mergeAny(dst, src any) error {
	if err := encoding.MergeAny(dst, src); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// Start launches a background pull loop with the given interval and returns
// a function that stops it. Pull errors are retained per peer and visible
// via Status; the loop itself never stops on error.
func (a *Aggregator) Start(interval time.Duration) (stop func()) {
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
func (a *Aggregator) load() *view {
	if v := a.view.Load(); v != nil {
		return v
	}
	return &view{}
}

// Query returns an approximate ϕ-quantile over the union of all peers'
// streams (as of each peer's last pulled snapshot); false while no peer has
// contributed yet.
func (a *Aggregator) Query(phi float64) (float64, bool) {
	v := a.load()
	if v.sum == nil {
		return 0, false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.sum.Query(phi)
}

// EstimateRank estimates the number of items ≤ q across all peers.
func (a *Aggregator) EstimateRank(q float64) int {
	v := a.load()
	if v.sum == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.sum.EstimateRank(q)
}

// CDF returns the estimated fraction of items ≤ q across all peers, clamped
// to [0, 1].
func (a *Aggregator) CDF(q float64) float64 {
	v := a.load()
	if v.sum == nil || v.n == 0 {
		return 0
	}
	v.mu.Lock()
	r := v.sum.EstimateRank(q)
	v.mu.Unlock()
	if r < 0 {
		r = 0
	}
	if r > v.n {
		r = v.n
	}
	return float64(r) / float64(v.n)
}

// Count returns the total number of items covered by the merged view.
func (a *Aggregator) Count() int { return a.load().n }

// StoredItems returns the merged view's retained items in non-decreasing
// order.
func (a *Aggregator) StoredItems() []float64 {
	v := a.load()
	if v.sum == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.sum.StoredItems()
}

// StoredCount returns the number of items the merged view retains (the
// paper's space measure, for the global summary).
func (a *Aggregator) StoredCount() int {
	v := a.load()
	if v.sum == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.sum.StoredCount()
}

// Update panics: the aggregator is a read-only tier. Writes go to the
// underlying quantileserver nodes.
func (a *Aggregator) Update(float64) {
	panic("cluster: the aggregator is read-only; send updates to a server node")
}

// ContributingPeers returns how many peers' payloads are in the merged view.
func (a *Aggregator) ContributingPeers() int { return a.load().peers }

// Pulls returns the number of pull rounds performed.
func (a *Aggregator) Pulls() int { return int(a.pulls.Load()) }

// SnapshotVersion reports the merged view's rebuild version without
// serializing it; ok is false before the first successful rebuild. The
// version is a change detector (the content-hash ETag is derived from the
// payload itself): it ticks on every rebuild, so a rebuild that changed the
// content at an unchanged count can never serve a stale cached snapshot.
func (a *Aggregator) SnapshotVersion() (int64, bool) {
	v := a.load()
	if v.sum == nil {
		return 0, false
	}
	return v.version, true
}

// SnapshotPayload re-exports the merged view as a wire payload, so
// aggregators compose: a higher-level aggregator can pull from this one
// exactly as it pulls from a server node.
func (a *Aggregator) SnapshotPayload() ([]byte, int64, error) {
	v := a.load()
	if v.sum == nil {
		return nil, 0, errors.New("cluster: no merged view yet")
	}
	v.mu.Lock()
	payload, err := encoding.Encode(v.sum)
	v.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	return payload, v.version, nil
}

// Status reports the per-peer pull state for monitoring. It never waits on
// a pull round in flight — only on the brief field-update sections — so
// /v1/stats stays responsive while a dead peer times out.
func (a *Aggregator) Status() []PeerStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return statusLocked(a.peers)
}

// NewAggregatorHandler returns the aggregator's HTTP API: the same read
// endpoints a server node exposes (/v1/quantile, /v1/rank, /v1/cdf —
// identical JSON shapes, so clients need not know which tier they query),
// plus:
//
//	GET  /v1/stats     merged view size and per-peer pull health
//	GET  /v1/snapshot  the merged view re-exported as a wire payload (ETag'd
//	                   by a content hash, deltas served against recent
//	                   bases), so aggregators compose into trees
//	POST /v1/pull      force a pull round now; 502 when every peer failed
//
// Combiners
// with pushing children use NewTreeAggregatorHandler instead, which adds the
// POST /v1/child/{name}/snapshot route on top of this surface.
func NewAggregatorHandler(a *Aggregator) http.Handler {
	mux := http.NewServeMux()
	registerAggregatorAPI(mux, a)
	return mux
}

// registerAggregatorAPI mounts the aggregator surface on mux; shared by
// NewAggregatorHandler and NewTreeAggregatorHandler.
func registerAggregatorAPI(mux *http.ServeMux, a *Aggregator) {
	snaps := &snapCache{}
	registerReadAPI(mux, a)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		stats := map[string]any{
			"n":            a.Count(),
			"stored":       a.StoredCount(),
			"contributing": a.ContributingPeers(),
			"pulls":        a.Pulls(),
			"peers":        a.Status(),
		}
		if cfg := a.Tree(); cfg != nil {
			stats["tree"] = map[string]any{
				"eps":    cfg.Eps,
				"height": cfg.Height,
				"level":  cfg.Level,
				"sheds":  a.Sheds(),
			}
		}
		writeJSON(w, stats)
	})
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		serveSnapshot(w, r, snaps, a)
	})
	mux.HandleFunc("POST /v1/pull", func(w http.ResponseWriter, r *http.Request) {
		err := a.PullOnce(r.Context())
		if err != nil && a.ContributingPeers() == 0 {
			httpError(w, http.StatusBadGateway, "pull failed: %v", err)
			return
		}
		resp := map[string]any{"n": a.Count(), "contributing": a.ContributingPeers()}
		if err != nil {
			resp["partial_error"] = err.Error()
		}
		writeJSON(w, resp)
	})
}
