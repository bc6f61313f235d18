package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	quantilelb "quantilelb"
)

// eps is the accuracy every server runs with (-eps) and the allowance of the
// correctness check.
const eps = 0.01

// Request kinds.
const (
	kindWrite = iota
	kindRead
	kindPull
)

// Read operations, mirroring the per-key and single-stream read routes.
const (
	opQuantile = iota
	opRank
	opCDF
)

// readPhis are the φ a quantile read asks for; verifyPhis is the grid the
// end-of-run correctness check queries.
var (
	readPhis   = []float64{0.5, 0.9, 0.99}
	verifyPhis = []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}
)

// body is one pre-built write: the JSON array the server receives and the
// same values as numbers, in send order and sorted for the rank check.
type body struct {
	json   []byte
	values []float64
	sorted []float64
}

// request is one generated HTTP request. Everything a server sees is built
// here, before any timed section starts.
type request struct {
	kind int
	node int    // index into the target's nodes; aggNode for the aggregator
	key  string // store key; "" is the single stream
	path string // URL path and query
	body *body  // writes only
	op   int    // reads only
	args []float64
	due  time.Duration // open loop: send time relative to the loop start
}

// aggNode marks a request for the aggregator rather than a leaf server.
const aggNode = -1

// inputs is everything one workload run sends, generated from the seed.
type inputs struct {
	keys       []string      // zipf rank order: keys[0] is the hottest
	main       []*request    // the timed section's schedule
	rounds     [][]*request  // agg-pull and epilogue pull rounds: writes then one pull
	preload    [][][]float64 // per leaf, per key: values restored from a checkpoint
	tracked    []string      // keys whose exact values the correctness check keeps
	streamFill []*request    // single-stream warm-up writes (serve-mixed)
}

// requests counts the requests of every list, an upper bound on the samples
// one run records.
func (in *inputs) requests() int {
	n := len(in.main) + len(in.streamFill)
	for _, r := range in.rounds {
		n += len(r)
	}
	return n
}

// gen draws every random input of a run from one seeded source.
type gen struct {
	r     *rand.Rand
	zipf  *rand.Zipf
	keys  []string
	small []*body // 1–16 values
	big   []*body // 1024 values
}

func newGen(seed int64, stream uint64, nkeys, nbig int) *gen {
	r := rand.New(rand.NewPCG(uint64(seed), stream))
	g := &gen{r: r, zipf: rand.NewZipf(r, 1.1, 1, uint64(nkeys-1))}
	for i := 0; i < nkeys; i++ {
		g.keys = append(g.keys, fmt.Sprintf("svc%04d.latency_ms", i))
	}
	for i := 0; i < 2048; i++ {
		g.small = append(g.small, g.body(1+r.IntN(16)))
	}
	for i := 0; i < nbig; i++ {
		g.big = append(g.big, g.body(1024))
	}
	return g
}

// latency draws a latency-like value in milliseconds: log-normal around
// 20 ms with a 1% slow tail, rounded to microseconds (so values repeat, as
// real latencies do).
func (g *gen) latency() float64 {
	v := math.Exp(math.Log(20) + 0.6*g.r.NormFloat64())
	if g.r.IntN(100) == 0 {
		v *= 8
	}
	return math.Round(v*1000) / 1000
}

func (g *gen) body(n int) *body {
	b := &body{values: make([]float64, n)}
	buf := []byte{'['}
	for i := range b.values {
		v := g.latency()
		b.values[i] = v
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, v, 'f', -1, 64)
	}
	b.json = append(buf, ']')
	b.sorted = append([]float64(nil), b.values...)
	sort.Float64s(b.sorted)
	return b
}

func (g *gen) key() string { return g.keys[g.zipf.Uint64()] }

func writeReq(node int, key string, b *body) *request {
	path := "/v1/update"
	if key != "" {
		path = "/v1/k/" + url.PathEscape(key) + "/update"
	}
	return &request{kind: kindWrite, node: node, key: key, path: path, body: b}
}

// read builds a keyed (or, for key "", single-stream) read in the serve-mixed
// proportions: three-φ quantiles most of the time, then rank and CDF.
func (g *gen) read(node int, key string) *request {
	prefix := "/v1"
	if key != "" {
		prefix = "/v1/k/" + url.PathEscape(key)
	}
	rq := &request{kind: kindRead, node: node, key: key}
	q := url.Values{}
	switch p := g.r.IntN(10); {
	case p < 6 || key == "":
		rq.op, rq.args = opQuantile, readPhis
		for _, phi := range readPhis {
			q.Add("phi", strconv.FormatFloat(phi, 'g', -1, 64))
		}
		rq.path = prefix + "/quantile?" + q.Encode()
	case p < 8:
		rq.op, rq.args = opRank, []float64{g.latency()}
		q.Set("q", strconv.FormatFloat(rq.args[0], 'f', -1, 64))
		rq.path = prefix + "/rank?" + q.Encode()
	default:
		rq.op, rq.args = opCDF, []float64{g.latency(), g.latency()}
		for _, x := range rq.args {
			q.Add("q", strconv.FormatFloat(x, 'f', -1, 64))
		}
		rq.path = prefix + "/cdf?" + q.Encode()
	}
	return rq
}

// mixedRead draws a serve-mixed read: keyed on a zipf key, or one in ten on
// the single stream.
func (g *gen) mixedRead(node int) *request {
	if g.r.IntN(10) == 0 {
		return g.read(node, "")
	}
	return g.read(node, g.key())
}

// openSchedule builds an open-loop schedule: requests from next, due at
// Poisson arrivals of rate per second until span.
func (g *gen) openSchedule(rate float64, span time.Duration, next func() *request) []*request {
	var out []*request
	for t := time.Duration(0); ; {
		t += time.Duration(g.r.ExpFloat64() / rate * float64(time.Second))
		if t >= span {
			return out
		}
		rq := next()
		rq.due = t
		out = append(out, rq)
	}
}

// pullRounds builds n aggregator pull rounds: each writes a small batch to
// perLeaf zipf keys on every leaf, then forces one pull.
func (g *gen) pullRounds(n, leaves, perLeaf int) [][]*request {
	rounds := make([][]*request, n)
	for i := range rounds {
		for l := 0; l < leaves; l++ {
			for j := 0; j < perLeaf; j++ {
				rounds[i] = append(rounds[i], writeReq(l, g.key(), g.small[g.r.IntN(len(g.small))]))
			}
		}
		rounds[i] = append(rounds[i], &request{kind: kindPull, node: aggNode, path: "/v1/pull"})
	}
	return rounds
}

// preloadKeys draws per-key preload values with zipf-shaped sizes: hot keys
// hold thousands of items (promoted GK sketches), the tail stays below the
// store's promotion threshold (exact buffers).
func (g *gen) preloadKeys(top int) [][]float64 {
	out := make([][]float64, len(g.keys))
	for k := range out {
		n := 8 + top/(k+1)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = g.latency()
		}
		out[k] = vals
	}
	return out
}

// trackedKeys picks the correctness sample: the three hottest keys and two
// from the tail.
func trackedKeys(keys []string) []string {
	n := len(keys)
	return []string{keys[0], keys[1], keys[2], keys[n/8], keys[n/2]}
}

// writeCheckpoint writes a store checkpoint holding the given per-key values
// into dir, through the same store.Open/Close a server restores with.
func writeCheckpoint(dir string, keys []string, values [][]float64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := quantilelb.OpenStore(quantilelb.StoreConfig{Eps: eps, Dir: dir})
	if err != nil {
		return err
	}
	for k, key := range keys {
		st.UpdateBatch(key, values[k])
	}
	if err := st.Close(); err != nil {
		return err
	}
	// Close leaves an empty WAL; a restore reads the checkpoint alone.
	return os.Remove(filepath.Join(dir, "store.wal"))
}
