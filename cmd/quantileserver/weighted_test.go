package main

// Weighted-ingestion handler coverage: the {v,w} JSON batch format on both
// the single-stream and keyed update endpoints, including the structured-400
// contract for NaN, non-positive, non-integral, and overflow-inducing
// weights — rejected whole, with a JSON error body, ingesting nothing.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	quantilelb "quantilelb"
	"quantilelb/internal/cluster"
	"quantilelb/internal/gk"
	"quantilelb/internal/sharded"
	"quantilelb/internal/store"
	"quantilelb/internal/summary"
)

func newKeyedTestServer() (*sharded.Sharded[float64, *gk.Summary[float64]], *store.Store, http.Handler) {
	s := quantilelb.NewSharded(quantilelb.GKFactory(0.01), 4)
	st := quantilelb.NewStore(quantilelb.StoreConfig{Eps: 0.01})
	return s, st, cluster.NewStoreServerHandler(s, st)
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestWeightedUpdateBatch drives a weighted batch through the single-stream
// endpoint: the count must report the total weight and the quantiles must
// reflect it (an item of weight 3 out of 4 dominates the median).
func TestWeightedUpdateBatch(t *testing.T) {
	s, _, h := newKeyedTestServer()
	rec := post(t, h, "/v1/update", `[{"v": 10, "w": 3}, {"v": 20}]`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Accepted int   `json:"accepted"`
		Weight   int64 `json:"weight"`
		N        int   `json:"n"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response: %v", err)
	}
	if resp.Accepted != 2 || resp.Weight != 4 || resp.N != 4 {
		t.Fatalf("accepted/weight/n = %d/%d/%d, want 2/4/4", resp.Accepted, resp.Weight, resp.N)
	}
	s.Refresh()
	if v, _ := s.Query(0.5); v != 10 {
		t.Errorf("weighted median = %g, want 10 (weight 3 of 4)", v)
	}
	if r := s.EstimateRank(10); r != 3 {
		t.Errorf("rank(10) = %d, want 3 (the item's weight)", r)
	}
}

// TestWeightedKeyedUpdateBatch drives the same format through the keyed
// endpoint, per-key.
func TestWeightedKeyedUpdateBatch(t *testing.T) {
	_, st, h := newKeyedTestServer()
	rec := post(t, h, "/v1/k/checkout.latency/update", `[{"v": 41.5, "w": 99}, {"v": 97.0, "w": 1}]`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if n := st.Count("checkout.latency"); n != 100 {
		t.Fatalf("key count = %d, want total weight 100", n)
	}
	if v, _ := st.Query("checkout.latency", 0.5); v != 41.5 {
		t.Errorf("weighted per-key median = %g, want 41.5", v)
	}
}

// TestWeightedUpdateRejectsBadWeights: every malformed weight shape produces
// a structured 400 on both endpoints and ingests nothing.
func TestWeightedUpdateRejectsBadWeights(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"zero weight", `[{"v": 1, "w": 0}]`},
		{"negative weight", `[{"v": 1, "w": -2}]`},
		{"fractional weight", `[{"v": 1, "w": 1.5}]`},
		{"overflow-inducing weight", `[{"v": 1, "w": 1e300}]`},
		{"just above the cap", fmt.Sprintf(`[{"v": 1, "w": %d}]`, cluster.MaxItemWeight+1)},
		{"string weight", `[{"v": 1, "w": "3"}]`},
		{"missing value", `[{"w": 3}]`},
		{"null value", `[{"v": null, "w": 3}]`},
		{"unknown field", `[{"v": 1, "weight": 3}]`},
		{"trailing garbage", `[{"v": 1, "w": 2}] oops`},
		{"bad element mid-batch", `[{"v": 1, "w": 2}, {"v": 2, "w": 0}, {"v": 3, "w": 4}]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, st, h := newKeyedTestServer()
			for _, path := range []string{"/v1/update", "/v1/k/m/update"} {
				rec := post(t, h, path, tc.body)
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("%s: status = %d, want 400 (body %q)", path, rec.Code, rec.Body.String())
				}
				var payload struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil || payload.Error == "" {
					t.Fatalf("%s: want a structured {\"error\": ...} body, got %q (err %v)", path, rec.Body.String(), err)
				}
			}
			if s.Count() != 0 {
				t.Errorf("rejected weighted batch ingested %d into the stream summary", s.Count())
			}
			if st.Count("m") != 0 {
				t.Errorf("rejected weighted batch ingested %d into the store", st.Count("m"))
			}
		})
	}
}

// TestWeightedUpdateAtWeightCap: a weight of exactly MaxItemWeight is legal.
func TestWeightedUpdateAtWeightCap(t *testing.T) {
	s, _, h := newKeyedTestServer()
	rec := post(t, h, "/v1/update", fmt.Sprintf(`[{"v": 1, "w": %d}]`, cluster.MaxItemWeight))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := int64(s.Count()); got != cluster.MaxItemWeight {
		t.Fatalf("count = %d, want %d", got, cluster.MaxItemWeight)
	}
}

// TestWeightedKeyedFallbackGuard: a store whose per-key family has no native
// weighted path serves weighted batches through the guarded expansion — and
// rejects weights beyond the guard with a structured 400 instead of stalling
// the handler in an unbounded loop.
func TestWeightedKeyedFallbackGuard(t *testing.T) {
	st := quantilelb.NewStore(quantilelb.StoreConfig{
		Eps: 0.05,
		// The capacity-capped strawman has no WeightedUpdate: forces the
		// expansion fallback. Buffering is disabled because a buffered key's
		// exact buffer would serve any weight natively.
		PromoteItems: -1,
		Factory:      func(eps float64) store.Summary { return quantilelb.NewCapped(64) },
	})
	h := cluster.NewKeyedServerHandler(st)

	rec := post(t, h, "/v1/k/m/update", `[{"v": 1, "w": 100}]`)
	if rec.Code != http.StatusOK {
		t.Fatalf("in-guard expansion: status = %d, body %s", rec.Code, rec.Body.String())
	}
	if n := st.Count("m"); n != 100 {
		t.Fatalf("expanded count = %d, want 100", n)
	}

	rec = post(t, h, "/v1/k/m/update", fmt.Sprintf(`[{"v": 1, "w": %d}]`, int64(summary.MaxExpansionWeight)+1))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("beyond-guard expansion: status = %d, want 400 (body %s)", rec.Code, rec.Body.String())
	}
	if n := st.Count("m"); n != 100 {
		t.Fatalf("rejected expansion changed the count to %d", n)
	}
}
