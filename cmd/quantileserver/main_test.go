package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	quantilelb "quantilelb"
	"quantilelb/internal/cluster"
	"quantilelb/internal/gk"
	"quantilelb/internal/sharded"
)

func newTestServer() (*sharded.Sharded[float64, *gk.Summary[float64]], http.Handler) {
	s := quantilelb.NewSharded(quantilelb.GKFactory(0.01), 4)
	return s, cluster.NewServerHandler(s)
}

func postUpdate(t *testing.T, h http.Handler, contentType, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/update", strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestUpdateJSONBatch exercises the batched JSON payload end to end: ingest
// through the handler, then read the ingested items back via rank queries.
func TestUpdateJSONBatch(t *testing.T) {
	s, h := newTestServer()
	rec := postUpdate(t, h, "application/json; charset=utf-8", "[1, 2.5, 3, 4.5, 5]")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if s.Count() != 5 {
		t.Fatalf("count = %d, want 5", s.Count())
	}
	s.Refresh()
	if r := s.EstimateRank(100); r != 5 {
		t.Errorf("rank(100) = %d, want 5", r)
	}
}

// TestUpdateTextBatch keeps the plain-text format working unchanged.
func TestUpdateTextBatch(t *testing.T) {
	s, h := newTestServer()
	rec := postUpdate(t, h, "", "1 2,3\n4\t5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if s.Count() != 5 {
		t.Fatalf("count = %d, want 5", s.Count())
	}
}

// TestUpdateRejectsWholeBatch: a malformed payload must not partially ingest.
func TestUpdateRejectsWholeBatch(t *testing.T) {
	s, h := newTestServer()
	if rec := postUpdate(t, h, "application/json", "[1, 2, \"x\"]"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON batch: status = %d", rec.Code)
	}
	if rec := postUpdate(t, h, "", "1 2 nope"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad text batch: status = %d", rec.Code)
	}
	if s.Count() != 0 {
		t.Fatalf("rejected batches must not ingest anything, count = %d", s.Count())
	}
}

// TestUpdateMalformedJSONStructuredError is the regression test for the
// malformed-batch bug class: every malformed JSON payload must produce a 400
// with a structured {"error": ...} JSON body — never an empty-bodied 4xx/5xx
// — and must leave the summary untouched.
func TestUpdateMalformedJSONStructuredError(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"object", `{"x": 1}`},
		{"truncated array", `[1, 2,`},
		{"string element", `["1"]`},
		{"null element", `[1, null, 3]`},
		{"nested array", `[[1, 2]]`},
		{"trailing garbage", `[1, 2] oops`},
		{"bare word", `hello`},
		{"empty object stream", `{}{}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, h := newTestServer()
			rec := postUpdate(t, h, "application/json", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %q)", rec.Code, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			var payload struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
				t.Fatalf("response body is not JSON: %v (body %q)", err, rec.Body.String())
			}
			if payload.Error == "" {
				t.Errorf("response carries no error message: %q", rec.Body.String())
			}
			if s.Count() != 0 {
				t.Errorf("rejected batch ingested %d items", s.Count())
			}
		})
	}
}

// TestUpdateRejectsNaN: NaN has no place in a total order; ingesting it
// would silently corrupt a comparison-based summary, so both ingest paths
// must reject it with a 400.
func TestUpdateRejectsNaN(t *testing.T) {
	s, h := newTestServer()
	if rec := postUpdate(t, h, "", "1 NaN 3"); rec.Code != http.StatusBadRequest {
		t.Fatalf("NaN in text batch: status = %d, want 400", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/update?x=NaN", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("NaN as x parameter: status = %d, want 400", rec.Code)
	}
	if s.Count() != 0 {
		t.Fatalf("NaN batches must not ingest, count = %d", s.Count())
	}
}

// TestSnapshotAndMergeRoundTrip drives the node-to-node push path: a
// snapshot pulled from one server merges into another, and the ETag answers
// 304 when nothing changed.
func TestSnapshotAndMergeRoundTrip(t *testing.T) {
	_, hA := newTestServer()
	sB, hB := newTestServer()
	if rec := postUpdate(t, hA, "", "1 2 3 4 5 6 7 8"); rec.Code != http.StatusOK {
		t.Fatalf("seeding server A: status = %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/snapshot?fresh=1", nil)
	rec := httptest.NewRecorder()
	hA.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/snapshot: status = %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("GET /v1/snapshot: no ETag")
	}
	payload := rec.Body.String()

	req = httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	hA.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("conditional GET /v1/snapshot: status = %d, want 304", rec.Code)
	}

	req = httptest.NewRequest(http.MethodPost, "/v1/merge", strings.NewReader(payload))
	rec = httptest.NewRecorder()
	hB.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/merge: status = %d, body %s", rec.Code, rec.Body.String())
	}
	if sB.Count() != 8 {
		t.Fatalf("server B count after merge = %d, want 8", sB.Count())
	}
	sB.Refresh()
	if r := sB.EstimateRank(100); r != 8 {
		t.Errorf("rank(100) after merge = %d, want 8", r)
	}
}

// TestMergeRejectsGarbage: corrupt payloads must yield a structured 400.
func TestMergeRejectsGarbage(t *testing.T) {
	s, h := newTestServer()
	req := httptest.NewRequest(http.MethodPost, "/v1/merge", strings.NewReader("not a payload"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST /v1/merge with garbage: status = %d, want 400", rec.Code)
	}
	if s.Count() != 0 {
		t.Fatalf("garbage merge ingested %d items", s.Count())
	}
}
