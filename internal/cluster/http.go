package cluster

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"

	"quantilelb/internal/encoding"
)

// readView is the slice of the summary API both HTTP tiers serve reads from:
// the sharded single-node summary and the cluster aggregator both satisfy it.
type readView interface {
	Query(phi float64) (float64, bool)
	EstimateRank(q float64) int
	CDF(q float64) float64
	Count() int
}

// registerReadAPI mounts the shared read endpoints (/v1/quantile, /v1/rank,
// /v1/cdf) on mux. The JSON shapes are identical on every node of the tier,
// so a client needs no knowledge of whether it is talking to a single server
// or to an aggregator.
func registerReadAPI(mux *http.ServeMux, v readView) {
	mux.HandleFunc("GET /v1/quantile", func(w http.ResponseWriter, r *http.Request) {
		handleQuantile(v, w, r)
	})
	mux.HandleFunc("GET /v1/rank", func(w http.ResponseWriter, r *http.Request) {
		handleRank(v, w, r)
	})
	mux.HandleFunc("GET /v1/cdf", func(w http.ResponseWriter, r *http.Request) {
		handleCDF(v, w, r)
	})
}

func handleQuantile(s readView, w http.ResponseWriter, r *http.Request) {
	phis := r.URL.Query()["phi"]
	if len(phis) == 0 {
		httpError(w, http.StatusBadRequest, "at least one phi parameter is required")
		return
	}
	type result struct {
		Phi   float64 `json:"phi"`
		Value float64 `json:"value"`
	}
	results := make([]result, 0, len(phis))
	for _, raw := range phis {
		phi, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(phi) || phi < 0 || phi > 1 {
			httpError(w, http.StatusBadRequest, "bad phi %q: want a number in [0,1]", raw)
			return
		}
		v, ok := s.Query(phi)
		if !ok {
			httpError(w, http.StatusNotFound, "summary is empty")
			return
		}
		results = append(results, result{Phi: phi, Value: v})
	}
	writeJSON(w, map[string]any{"results": results, "n": s.Count()})
}

func handleRank(s readView, w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("q")
	q, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(q) {
		httpError(w, http.StatusBadRequest, "bad q %q: want a float64", raw)
		return
	}
	writeJSON(w, map[string]any{"q": q, "rank": s.EstimateRank(q), "n": s.Count()})
}

func handleCDF(s readView, w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()["q"]
	if len(qs) == 0 {
		httpError(w, http.StatusBadRequest, "at least one q parameter is required")
		return
	}
	type point struct {
		Q float64 `json:"q"`
		P float64 `json:"p"`
	}
	points := make([]point, 0, len(qs))
	for _, raw := range qs {
		q, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(q) {
			httpError(w, http.StatusBadRequest, "bad q %q: want a float64", raw)
			return
		}
		points = append(points, point{Q: q, P: s.CDF(q)})
	}
	writeJSON(w, map[string]any{"points": points, "n": s.Count()})
}

// writeJSON marshals the payload before touching the ResponseWriter, so a
// payload JSON cannot represent (a NaN that slipped into the summary, say)
// produces a structured 500 instead of a 200 header with an empty body.
func writeJSON(w http.ResponseWriter, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		log.Printf("cluster: encoding response: %v", err)
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// snapshotSource is the slice of the snapshot API serveSnapshot needs; the
// sharded summary and the aggregator both provide it.
type snapshotSource interface {
	// SnapshotVersion cheaply reports the covered update count of the
	// current view; ok is false when no view exists yet.
	SnapshotVersion() (int64, bool)
	// SnapshotPayload serializes the current view.
	SnapshotPayload() ([]byte, int64, error)
}

// snapHistoryLen bounds the per-handler ring of recent snapshot payloads a
// handler retains as delta bases. A puller is normally at most one version
// behind, so a short ring covers the realistic base set; a base that has
// rotated out simply falls back to a full payload.
const snapHistoryLen = 8

// snapEntry is one snapshot the cache retains: its content ETag, the
// PayloadHash that ETag quotes (kept so a delta answer need not hash the
// payload again), and the payload.
type snapEntry struct {
	etag    string
	hash    uint64
	payload []byte
}

// snapCache is the per-handler snapshot state behind serveSnapshot: the
// current serialized payload keyed by the source's cheap version counter
// (so 304s and repeat GETs never re-encode an unchanged view), its
// content-derived ETag, and a ring of recent payloads that can serve as
// delta bases. Replacing the old per-boot nonce ETag with a content hash
// fixes a real defect: a restarted node with identical state used to
// invalidate every puller's cached ETag, forcing a full refetch of
// unchanged bytes; hashing the payload makes the ETag a pure function of
// content, so revalidation survives restarts (and the same hash is the
// base identity of the KindDelta format — see internal/encoding).
type snapCache struct {
	mu      sync.Mutex
	valid   bool
	version int64
	head    snapEntry
	history [snapHistoryLen]snapEntry
	next    int
}

// current returns the up-to-date snapshot, re-encoding only when the
// source's version moved since the last call.
func (c *snapCache) current(src snapshotSource) (snapEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := src.SnapshotVersion(); ok && c.valid && v == c.version {
		return c.head, nil
	}
	payload, v, err := src.SnapshotPayload()
	if err != nil {
		return snapEntry{}, err
	}
	hash := encoding.PayloadHash(payload)
	c.valid, c.version = true, v
	c.head = snapEntry{etag: contentETag(hash), hash: hash, payload: payload}
	c.remember(c.head)
	return c.head, nil
}

// remember records a snapshot in the delta-base ring (idempotent per ETag).
// Caller holds mu.
func (c *snapCache) remember(e snapEntry) {
	for _, h := range c.history {
		if h.etag == e.etag {
			return
		}
	}
	c.history[c.next] = e
	c.next = (c.next + 1) % snapHistoryLen
}

// base returns the retained snapshot whose content ETag matches, if any.
func (c *snapCache) base(etag string) (snapEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.history {
		if e.payload != nil && e.etag == etag {
			return e, true
		}
	}
	return snapEntry{}, false
}

// contentETag derives a snapshot ETag from the PayloadHash of its bytes
// alone: two byte-identical snapshots carry the same ETag across processes
// and restarts, and the quoted hash doubles as the delta-base name a client
// echoes in ?base=.
func contentETag(hash uint64) string {
	return `"` + strconv.FormatUint(hash, 36) + `"`
}

// serveSnapshot answers GET /v1/snapshot with the shared snapshot contract
// of the server and aggregator tiers:
//
//   - If-None-Match revalidation against the content-derived ETag (304 ships
//     no bytes; because the ETag hashes the payload, it also survives node
//     restarts with identical state).
//   - ?mode=delta&base=<etag>: when the named base is still in the handler's
//     history ring and the delta is smaller than the full payload, the
//     response is a KindDelta container (Delta-Base header set) the client
//     applies to its retained base via encoding.ApplyDelta. Unknown bases,
//     oversized payloads, and deltas that would not save bytes all fall back
//     to the full payload — mode=delta is a bandwidth hint, never a
//     correctness requirement.
//   - ?mode=full (or no mode) serves the complete payload.
func serveSnapshot(w http.ResponseWriter, r *http.Request, c *snapCache, src snapshotSource) {
	mode := r.URL.Query().Get("mode")
	if mode != "" && mode != "delta" && mode != "full" {
		httpError(w, http.StatusBadRequest, "bad mode %q: want delta or full", mode)
		return
	}
	head, err := c.current(src)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "snapshot unavailable: %v", err)
		return
	}
	w.Header().Set("ETag", head.etag)
	if r.Header.Get("If-None-Match") == head.etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if base := r.URL.Query().Get("base"); mode != "full" && base != "" && base != head.etag {
		if b, ok := c.base(base); ok && len(head.payload) <= encoding.MaxDeltaInputBytes && len(b.payload) <= encoding.MaxDeltaInputBytes {
			if delta, err := encoding.EncodeDeltaWithHashes(b.payload, head.payload, b.hash, head.hash); err == nil && len(delta) < len(head.payload) {
				w.Header().Set("Delta-Base", base)
				w.Write(delta)
				return
			}
		}
	}
	w.Write(head.payload)
}

// errorCode maps an HTTP status to the machine-readable "code" field of the
// error envelope; the set is closed so clients can switch on it.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusBadGateway:
		return "bad_gateway"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

// httpError sends the tier's structured JSON error envelope with the given
// status. Every non-2xx response of every cluster handler goes through it,
// so clients can always parse {"error": <human message>, "code": <machine
// code>} — the "error" string predates the "code" field and is kept
// verbatim for legacy clients.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf(format, args...),
		"code":  errorCode(status),
	})
}
