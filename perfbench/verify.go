package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// exactSet is the exact multiset of values a tracked key holds: bodies the
// server acknowledged (with their multiplicity) plus restored preloads.
type exactSet struct {
	mu     sync.Mutex
	counts map[*body]int
	chunks [][]float64 // sorted
	n      int
}

func (e *exactSet) addBody(b *body) {
	e.mu.Lock()
	e.counts[b]++
	e.n += len(b.values)
	e.mu.Unlock()
}

func (e *exactSet) addValues(vals []float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	e.mu.Lock()
	e.chunks = append(e.chunks, s)
	e.n += len(s)
	e.mu.Unlock()
}

// rankBounds returns how many values are < v and ≤ v.
func (e *exactSet) rankBounds(v float64) (lo, hi int) {
	count := func(s []float64, mult int) {
		lo += mult * sort.SearchFloat64s(s, v)
		hi += mult * sort.Search(len(s), func(i int) bool { return s[i] > v })
	}
	for b, m := range e.counts {
		count(b.sorted, m)
	}
	for _, s := range e.chunks {
		count(s, 1)
	}
	return lo, hi
}

// union merges sets, as an aggregator merges the leaves holding a key.
func union(sets ...*exactSet) *exactSet {
	u := newExactSet()
	for _, s := range sets {
		for b, m := range s.counts {
			u.counts[b] += m
		}
		u.chunks = append(u.chunks, s.chunks...)
		u.n += s.n
	}
	return u
}

func newExactSet() *exactSet { return &exactSet{counts: map[*body]int{}} }

type trackKey struct {
	node int
	key  string
}

// tracker holds the exact sets of the tracked keys of every leaf. Its map
// is filled before any request is sent and only read afterwards.
type tracker struct {
	sets map[trackKey]*exactSet
}

func newTracker(leaves int, keys []string) *tracker {
	t := &tracker{sets: map[trackKey]*exactSet{}}
	for l := 0; l < leaves; l++ {
		for _, k := range keys {
			t.sets[trackKey{l, k}] = newExactSet()
		}
	}
	return t
}

func (t *tracker) add(node int, key string, b *body) {
	if s := t.sets[trackKey{node, key}]; s != nil {
		s.addBody(b)
	}
}

// checkResult is the outcome of the end-of-run correctness check.
type checkResult struct {
	Queries  int      `json:"queries"`
	Failures int      `json:"failures"`
	Worst    float64  `json:"worst_rank_error_over_allowance"`
	Errors   []string `json:"errors,omitempty"`
}

func (c *checkResult) fail(format string, args ...any) {
	c.Failures++
	if len(c.Errors) < 10 {
		c.Errors = append(c.Errors, fmt.Sprintf(format, args...))
	}
}

var checkClient = &http.Client{Timeout: 30 * time.Second}

func getJSON(method, u string, out any) error {
	req, err := http.NewRequest(method, u, nil)
	if err != nil {
		return err
	}
	resp, err := checkClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, u, resp.Status, strings.TrimSpace(string(b)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// verify checks every tracked key on every leaf — and, when the target has
// an aggregator, its merged view after a final forced pull — against the
// exact values sent: each answer must lie within rank error eps·n + 1 of its
// φ, and n must equal the number of values acknowledged.
func verify(t target, tr *tracker, keys []string) checkResult {
	var res checkResult
	for l, leaf := range t.leaves {
		res.Queries++
		if err := getJSON(http.MethodGet, leaf+"/v1/snapshot?fresh=1", nil); err != nil {
			res.fail("refresh: %v", err)
		}
		for _, k := range keys {
			checkKey(&res, leaf, k, tr.sets[trackKey{l, k}])
		}
	}
	if t.agg == "" {
		return res
	}
	res.Queries++
	if err := getJSON(http.MethodPost, t.agg+"/v1/pull", nil); err != nil {
		res.fail("final pull: %v", err)
	}
	for _, k := range keys {
		if k == "" {
			continue // the keyed aggregator serves store keys only
		}
		var sets []*exactSet
		for l := range t.leaves {
			sets = append(sets, tr.sets[trackKey{l, k}])
		}
		checkKey(&res, t.agg, k, union(sets...))
	}
	return res
}

func checkKey(res *checkResult, base, key string, want *exactSet) {
	if want.n == 0 {
		return // never written: nothing to check
	}
	q := url.Values{}
	for _, phi := range verifyPhis {
		q.Add("phi", strconv.FormatFloat(phi, 'g', -1, 64))
	}
	path := "/v1/quantile?"
	if key != "" {
		path = "/v1/k/" + url.PathEscape(key) + "/quantile?"
	}
	var got struct {
		Results []struct{ Phi, Value float64 }
		N       int
	}
	res.Queries++
	if err := getJSON(http.MethodGet, base+path+q.Encode(), &got); err != nil {
		res.fail("%v", err)
		return
	}
	if got.N != want.n || len(got.Results) != len(verifyPhis) {
		res.fail("%s key %q: n=%d with %d answers, want n=%d", base, key, got.N, len(got.Results), want.n)
		return
	}
	allow := eps*float64(want.n) + 1
	for _, r := range got.Results {
		target := math.Max(1, math.Min(float64(want.n), math.Floor(r.Phi*float64(want.n))))
		lo, hi := want.rankBounds(r.Value)
		rankErr := math.Max(0, math.Max(float64(lo+1)-target, target-float64(hi)))
		res.Worst = math.Max(res.Worst, rankErr/allow)
		if rankErr > allow {
			res.fail("%s key %q phi %g: answer %g has rank error %.0f > %.1f", base, key, r.Phi, r.Value, rankErr, allow)
		}
	}
}
