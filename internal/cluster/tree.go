package cluster

// Hierarchical aggregation: combiner nodes that pull children (leaf servers
// or other combiners), merge under a per-level error budget, and re-export
// the merged view upward, so aggregators compose into trees of height 2–3
// (and beyond) instead of one flat fan-in.
//
// Error accounting. The paper's lower bound fixes what each *summary* must
// pay; a tree splits the end-to-end budget eps across its levels. A tree of
// height h (levels counted from the leaves, which are level 1) gives every
// level eps/h to spend: leaves run their summaries at eps/h, and each
// combiner at level L ≥ 2 (a) verifies that every child's declared accuracy
// is within the cumulative budget of level L-1, i.e. (L-1)·eps/h — merging
// is free under the COMBINE rule (eps_merged = max over children) — and
// (b) prunes its merged view to ⌈h/eps⌉+1 retained entries, adding at most
// eps/h, before re-exporting it. By induction the level-L view carries error
// ≤ L·eps/h, so the root (level h) answers within eps — and every level
// ships O((h/eps)) entries upward regardless of fan-in.
//
// Backpressure. A combiner round is bounded by TreeConfig.RoundTimeout:
// children that do not answer within the deadline are shed from the round
// (the shed counter ticks, visible in /v1/stats) and keep contributing their
// last successful snapshot — the stale-serving discipline the flat
// aggregator already follows, which also means the combiner's own parent
// keeps revalidating 304 against an unchanged merged view instead of
// stalling on a slow grandchild.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"quantilelb/internal/encoding"
)

// TreeConfig declares a combiner's position in an aggregation tree and the
// tree-wide error budget. The zero value means "not a tree" (flat
// aggregation, no per-level accounting).
type TreeConfig struct {
	// Eps is the end-to-end rank-error budget of the whole tree: the root's
	// merged view answers within Eps·N.
	Eps float64
	// Height is the number of levels in the tree, counting the leaf servers
	// as level 1. Leaves must run their summaries at accuracy ≤ Eps/Height.
	Height int
	// Level is this combiner's level, between 2 and Height. The root of the
	// tree is level Height.
	Level int
	// RoundTimeout bounds one pull round; children that miss the deadline
	// are shed (stale-served) instead of stalling the round. Zero means no
	// deadline beyond the caller's context.
	RoundTimeout time.Duration
}

// validate checks the configuration invariants at construction time.
func (c TreeConfig) validate() error {
	if !(c.Eps > 0 && c.Eps < 1) {
		return fmt.Errorf("cluster: tree eps %v must be in (0, 1)", c.Eps)
	}
	if c.Height < 2 {
		return fmt.Errorf("cluster: tree height %d must be at least 2 (a height-1 tree is just a server)", c.Height)
	}
	if c.Level < 2 || c.Level > c.Height {
		return fmt.Errorf("cluster: tree level %d must be between 2 and the height %d", c.Level, c.Height)
	}
	return nil
}

// childBudget is the cumulative error budget a child of this combiner may
// have spent: (Level-1)·Eps/Height.
func (c TreeConfig) childBudget() float64 {
	return float64(c.Level-1) * c.Eps / float64(c.Height)
}

// pruneK is the retained-entry parameter the combiner prunes its merged view
// to: ⌈Height/Eps⌉, so one prune adds at most Eps/Height error.
func (c TreeConfig) pruneK() int {
	return int(math.Ceil(float64(c.Height) / c.Eps))
}

// epsReporter is the optional self-declared accuracy of a decoded child
// summary; every comparison-based family in this repository implements it.
type epsReporter interface{ Epsilon() float64 }

// pruner is the optional PRUNE operation of a decoded summary (gk, mlq, req).
type pruner interface{ Prune(k int) }

// validateChild enforces the per-level budget on one decoded child summary.
// Families that do not declare an accuracy (randomized sketches) pass
// unchecked — the budget rule is a comparison-based-summary contract.
func (c TreeConfig) validateChild(name string, dec any) error {
	e, ok := dec.(epsReporter)
	if !ok {
		return nil
	}
	// A hair of slack absorbs the float rounding of eps/h computed at the
	// leaf versus here.
	if budget := c.childBudget(); e.Epsilon() > budget*(1+1e-9) {
		return fmt.Errorf("cluster: child %s declares eps %v, exceeding the level-%d budget %v (= %d·%v/%d) — run leaves at eps/height and intermediate combiners with matching tree flags",
			name, e.Epsilon(), c.Level-1, budget, c.Level-1, c.Eps, c.Height)
	}
	return nil
}

// NewTree returns a combiner: an aggregator that enforces cfg's per-level
// budget on every child payload and prunes its merged view to ⌈h/eps⌉+1
// entries before re-exporting it. Children are pulled exactly like New's —
// leaf servers and lower combiners are indistinguishable sources.
func NewTree(cfg TreeConfig, sources ...Source) (*Aggregator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	a := New(sources...)
	a.tree = &cfg
	return a, nil
}

// NewTreeHTTP returns a combiner pulling GET /v1/snapshot from each child
// base URL with delta negotiation enabled (the tree-mode default: fan-in is
// exactly where snapshot bandwidth multiplies).
func NewTreeHTTP(cfg TreeConfig, client *http.Client, childURLs ...string) (*Aggregator, error) {
	srcs := make([]Source, len(childURLs))
	for i, u := range childURLs {
		srcs[i] = &HTTPSource{URL: u, Client: client, Delta: true}
	}
	return NewTree(cfg, srcs...)
}

// Tree returns the combiner's tree configuration, or nil for a flat
// aggregator.
func (a *Aggregator) Tree() *TreeConfig {
	if a.tree == nil {
		return nil
	}
	cfg := *a.tree
	return &cfg
}

// Sheds returns how many pull rounds hit the tree's RoundTimeout (children
// shed to stale serving).
func (a *Aggregator) Sheds() int { return int(a.sheds.Load()) }

// PushSource is a Source fed by pushes instead of pulls: a child behind NAT
// or a strict firewall POSTs its snapshots to the combiner's
// /v1/child/{name}/snapshot route (see NewTreeAggregatorHandler), and the
// combiner's pull loop reads the latest pushed payload locally. Offer
// replaces the retained payload — pushing is idempotent per snapshot, unlike
// POST /v1/merge, whose repeated application would double-count.
type PushSource struct {
	name    string
	mu      sync.Mutex
	payload []byte
	version uint64
}

// NewPushSource returns an empty push source. It contributes nothing until
// the first Offer.
func NewPushSource(name string) *PushSource { return &PushSource{name: name} }

// Name identifies the child in status reports.
func (ps *PushSource) Name() string { return ps.name }

// Offer replaces the retained snapshot payload with a newer one.
func (ps *PushSource) Offer(payload []byte) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.payload = payload
	ps.version++
}

// Fetch implements Source over the retained pushed payload; unchanged
// payloads answer notModified, mirroring the HTTP 304 discipline.
func (ps *PushSource) Fetch(_ context.Context, etag string) ([]byte, string, bool, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.payload == nil {
		return nil, "", false, errors.New("cluster: no snapshot pushed yet")
	}
	tag := strconv.FormatUint(ps.version, 10)
	if etag == tag {
		return nil, etag, true, nil
	}
	return ps.payload, tag, false, nil
}

// NewTreeAggregatorHandler returns the HTTP API of a combiner: everything
// NewAggregatorHandler serves, plus a push route for each named child
// source:
//
//	POST /v1/child/{name}/snapshot  replace the child's retained snapshot
//	                                with the request body (a full wire
//	                                payload; unknown children 404, payloads
//	                                that are not wire containers 400)
//
// The push sources must also be among the aggregator's Sources — the
// combiner still merges them through its normal pull rounds.
func NewTreeAggregatorHandler(a *Aggregator, children ...*PushSource) http.Handler {
	byName := make(map[string]*PushSource, len(children))
	for _, ps := range children {
		byName[ps.name] = ps
	}
	mux := http.NewServeMux()
	registerAggregatorAPI(mux, a)
	mux.HandleFunc("POST /v1/child/{name}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		ps := byName[r.PathValue("name")]
		if ps == nil {
			httpError(w, http.StatusNotFound, "unknown child %q", r.PathValue("name"))
			return
		}
		body, err := readBody(w, r)
		if err != nil {
			return
		}
		if _, err := encoding.DetectKind(body); err != nil {
			httpError(w, http.StatusBadRequest, "pushed payload: %v", err)
			return
		}
		ps.Offer(body)
		writeJSON(w, map[string]any{"child": ps.name, "bytes": len(body)})
	})
	return mux
}
