package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"

	"quantilelb/internal/encoding"
	"quantilelb/internal/sharded"
)

// MaxBodyBytes caps the request body of ingestion endpoints (/v1/update and
// /v1/merge) at 64 MiB.
const MaxBodyBytes = 64 << 20

// MaxItemWeight caps the weight a single {v,w} batch element may carry.
// Weights beyond it are rejected as overflow-inducing: with the body cap a
// request holds fewer than 2^23 items, so per-item weights up to 2^32 keep
// every total-weight accumulator far from int64 overflow, while an
// effectively unbounded weight would let one element dwarf every counter.
const MaxItemWeight = int64(1) << 32

// NewServerHandler returns the HTTP API of one writer node of the
// distributed tier, serving reads and writes of the given sharded summary:
//
//	POST /v1/update    body: whitespace/comma-separated float64s, or — with
//	                   Content-Type: application/json — a JSON array of
//	                   numbers, or a JSON array of {"v": value, "w": weight}
//	                   objects for weighted (pre-counted) batches: each value
//	                   is ingested as w stream items through the summary's
//	                   native weighted path (error ≤ ε·W over the total
//	                   weight W; "w" defaults to 1). Either way the whole
//	                   request is ingested as one batch through the
//	                   summary's bulk path. A single item can also be sent
//	                   as a ?x= query parameter. NaNs are rejected: they have
//	                   no place in a total order and would silently corrupt
//	                   a comparison-based summary. Weights that are NaN,
//	                   non-positive, non-integral, or above MaxItemWeight are
//	                   rejected whole with a structured 400.
//	GET  /v1/quantile  ?phi=0.5&phi=0.99 -> {"results":[{"phi":0.5,"value":...}],"n":...}
//	GET  /v1/rank      ?q=1.5            -> {"q":1.5,"rank":...,"n":...}
//	GET  /v1/cdf       ?q=1&q=2          -> {"points":[{"q":1,"p":...}],"n":...}
//	GET  /v1/stats                       -> shards, counts, snapshot freshness
//	GET  /v1/snapshot  the merged view as a binary wire payload
//	                   (internal/encoding format), ETag'd by a content hash
//	                   of the payload (so revalidation survives restarts);
//	                   If-None-Match yields 304 when nothing changed.
//	                   ?fresh=1 forces a snapshot rebuild first (used by
//	                   tests and pull-now tooling; the lock-free default
//	                   serves the published snapshot). ?mode=delta&base=<etag>
//	                   asks for an incremental KindDelta payload against a
//	                   recently served snapshot; see serveSnapshot.
//	POST /v1/merge     ingest a peer's wire payload: the decoded summary is
//	                   folded into one shard under the COMBINE rule
//	                   (eps_new = max), so nodes can push state to each other.
//
// The aggregator (cmd/quantileagg) serves the same read API over the merged
// view of many such nodes.
func NewServerHandler[S sharded.Mergeable[float64, S]](s *sharded.Sharded[float64, S]) http.Handler {
	mux := http.NewServeMux()
	registerServerAPI(mux, s)
	return mux
}

// registerServerAPI mounts the single-stream writer-node endpoints on mux;
// NewServerHandler and NewStoreServerHandler both build on it.
func registerServerAPI[S sharded.Mergeable[float64, S]](mux *http.ServeMux, s *sharded.Sharded[float64, S]) {
	snaps := &snapCache{}
	mux.HandleFunc("POST /v1/update", func(w http.ResponseWriter, r *http.Request) {
		handleUpdate(s, w, r)
	})
	registerReadAPI(mux, s)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		writeJSON(w, map[string]any{
			"shards":          st.Shards,
			"count":           st.Count,
			"snapshot_count":  st.SnapshotCount,
			"snapshot_stored": st.SnapshotStored,
			"snapshot_lag":    st.Count - st.SnapshotCount,
			"refreshes":       st.Refreshes,
		})
	})
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		handleSnapshot(s, snaps, w, r)
	})
	mux.HandleFunc("POST /v1/merge", func(w http.ResponseWriter, r *http.Request) {
		handleMerge(s, w, r)
	})
}

func handleUpdate[S sharded.Mergeable[float64, S]](s *sharded.Sharded[float64, S], w http.ResponseWriter, r *http.Request) {
	batch, weights, ok := parseUpdateRequest(w, r)
	if !ok {
		return // parseUpdateRequest wrote the response
	}
	if weights != nil && !s.Weighted() {
		httpError(w, http.StatusBadRequest, "this node's summary family has no native weighted path")
		return
	}
	resp := map[string]any{"accepted": len(batch)}
	if weights != nil {
		if len(batch) > 0 {
			s.WeightedUpdateBatch(batch, weights)
		}
		var total int64
		for _, wt := range weights {
			total += wt
		}
		resp["weight"] = total
	} else if len(batch) > 0 {
		s.UpdateBatch(batch)
	}
	resp["n"] = s.Count()
	writeJSON(w, resp)
}

// parseUpdateRequest parses an ingestion request (the ?x= parameters plus a
// whitespace/comma-separated or JSON-array body) into one batch, writing the
// error response itself when the request is malformed. A JSON body may be a
// plain array of numbers (unit weights) or an array of {"v":…,"w":…}
// objects — a weighted batch for pre-counted or importance-weighted
// observations — in which case the returned weights slice parallels the
// batch (nil for an unweighted request). Everything is parsed and validated
// before anything is ingested: a request is either accepted whole or
// rejected whole (there is no way to remove items from a summary, so a
// partial ingest before a 400 would leave a retrying client
// double-counting). Weighted requests additionally reject, with a structured
// 400, any element whose weight is NaN, non-positive, non-integral, or
// overflow-inducing (above MaxItemWeight). Shared by the single-stream and
// keyed update endpoints.
func parseUpdateRequest(w http.ResponseWriter, r *http.Request) ([]float64, []int64, bool) {
	var batch []float64
	for _, raw := range r.URL.Query()["x"] {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(v) {
			httpError(w, http.StatusBadRequest, "bad x parameter %q: want a non-NaN float64", raw)
			return nil, nil, false
		}
		batch = append(batch, v)
	}
	body, err := readBody(w, r)
	if err != nil {
		return nil, nil, false // readBody wrote the response
	}
	var weights []int64
	if len(body) > 0 {
		var fromBody []float64
		if isJSONContent(r.Header.Get("Content-Type")) {
			if isWeightedBatch(body) {
				fromBody, weights, err = parseJSONWeightedBatch(body)
				if err == nil && len(batch) > 0 {
					// ?x= items ride along with weight 1.
					unit := make([]int64, len(batch))
					for i := range unit {
						unit[i] = 1
					}
					weights = append(unit, weights...)
				}
			} else {
				fromBody, err = parseJSONBatch(body)
			}
		} else {
			fromBody, err = parseFloats(string(body))
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return nil, nil, false
		}
		batch = append(batch, fromBody...)
	}
	return batch, weights, true
}

// isWeightedBatch sniffs whether a JSON body is an array of objects (the
// weighted {v,w} format) rather than an array of numbers: the first
// non-whitespace byte inside the array decides.
func isWeightedBatch(body []byte) bool {
	i := 0
	for i < len(body) && isJSONSpace(body[i]) {
		i++
	}
	if i >= len(body) || body[i] != '[' {
		return false
	}
	i++
	for i < len(body) && isJSONSpace(body[i]) {
		i++
	}
	return i < len(body) && body[i] == '{'
}

func isJSONSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// parseJSONWeightedBatch decodes a JSON array of {"v": value, "w": weight}
// objects into parallel value/weight slices. The value is required (a null
// or missing v is rejected); the weight defaults to 1 when absent and must
// otherwise be a positive integral number no larger than MaxItemWeight —
// NaN, zero, negative, fractional, and overflow-inducing weights are all
// rejected whole with a structured 400 by the caller. Unknown fields are
// rejected so a typo ("weight" for "w") cannot silently ingest at weight 1.
func parseJSONWeightedBatch(body []byte) ([]float64, []int64, error) {
	type point struct {
		V *float64 `json:"v"`
		W *float64 `json:"w"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var raw []point
	if err := dec.Decode(&raw); err != nil {
		return nil, nil, fmt.Errorf("bad weighted batch: want an array of {\"v\":…,\"w\":…} objects: %v", err)
	}
	if dec.More() {
		return nil, nil, fmt.Errorf("bad weighted batch: trailing data after the array")
	}
	vals := make([]float64, len(raw))
	weights := make([]int64, len(raw))
	for i, p := range raw {
		if p.V == nil {
			return nil, nil, fmt.Errorf("bad weighted batch: element %d has no value (\"v\")", i)
		}
		if math.IsNaN(*p.V) {
			return nil, nil, fmt.Errorf("bad weighted batch: element %d has a NaN value", i)
		}
		vals[i] = *p.V
		if p.W == nil {
			weights[i] = 1
			continue
		}
		wt := *p.W
		switch {
		case math.IsNaN(wt):
			return nil, nil, fmt.Errorf("bad weighted batch: element %d has a NaN weight", i)
		case wt <= 0:
			return nil, nil, fmt.Errorf("bad weighted batch: element %d has non-positive weight %v", i, wt)
		case wt != math.Trunc(wt):
			return nil, nil, fmt.Errorf("bad weighted batch: element %d has non-integral weight %v (weights are counts)", i, wt)
		case wt > float64(MaxItemWeight):
			return nil, nil, fmt.Errorf("bad weighted batch: element %d has overflow-inducing weight %v (max %d)", i, wt, MaxItemWeight)
		}
		weights[i] = int64(wt)
	}
	return vals, weights, nil
}

func handleSnapshot[S sharded.Mergeable[float64, S]](s *sharded.Sharded[float64, S], snaps *snapCache, w http.ResponseWriter, r *http.Request) {
	if f := r.URL.Query().Get("fresh"); f == "1" || f == "true" {
		s.Refresh()
	}
	serveSnapshot(w, r, snaps, s)
}

func handleMerge[S sharded.Mergeable[float64, S]](s *sharded.Sharded[float64, S], w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		return
	}
	dec, err := encoding.Decode(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding payload: %v", err)
		return
	}
	other, ok := dec.(S)
	if !ok {
		httpError(w, http.StatusBadRequest,
			"payload holds a %T, which this node's summary cannot merge", dec)
		return
	}
	if err := s.MergeSummary(other); err != nil {
		httpError(w, http.StatusConflict, "merging payload: %v", err)
		return
	}
	writeJSON(w, map[string]any{"merged": other.Count(), "n": s.Count()})
}

// readBody drains an ingestion request body under the MaxBodyBytes cap,
// writing the error response itself when reading fails.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes; split the batch", MaxBodyBytes)
			return nil, err
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return nil, err
	}
	return body, nil
}

// isJSONContent reports whether a Content-Type header declares JSON. Media
// types are case-insensitive (RFC 9110) and may carry parameters like
// "; charset=utf-8".
func isJSONContent(ct string) bool {
	mediaType, _, err := mime.ParseMediaType(ct)
	return err == nil && mediaType == "application/json"
}

// parseJSONBatch decodes a JSON array of numbers — the batched payload
// format for producers that already aggregate items (log shippers, metric
// agents). NaN and infinities are rejected by JSON syntax itself; any other
// shape (object, nested array, string element) is rejected whole with a
// structured 400 by the caller.
func parseJSONBatch(body []byte) ([]float64, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	// Pointers distinguish a JSON null (left nil) from a number: null would
	// otherwise silently decode to 0 and be ingested.
	var raw []*float64
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("bad JSON batch: want an array of numbers: %v", err)
	}
	// A valid array followed by trailing garbage ("[1,2] oops") must not be
	// silently half-accepted.
	if dec.More() {
		return nil, fmt.Errorf("bad JSON batch: trailing data after the array")
	}
	out := make([]float64, len(raw))
	for i, p := range raw {
		if p == nil {
			return nil, fmt.Errorf("bad JSON batch: element %d is null, want a number", i)
		}
		out[i] = *p
	}
	return out, nil
}

// parseFloats splits a body on whitespace, commas and newlines.
func parseFloats(body string) ([]float64, error) {
	fields := strings.FieldsFunc(body, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == ','
	})
	out := make([]float64, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || math.IsNaN(v) {
			// Truncate the echoed token: a malformed multi-megabyte body
			// must not turn into a multi-megabyte error response.
			if len(f) > 32 {
				f = f[:32] + "…"
			}
			return nil, fmt.Errorf("bad value %q: want a non-NaN float64", f)
		}
		out = append(out, v)
	}
	return out, nil
}
