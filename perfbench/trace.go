package main

// The traced run. After the untraced run, the same generated requests are
// replayed twice more, with every span recorded from this file; nothing
// inside the program is instrumented.
//
//  1. Over loopback to the same handlers hosted in this process, built with
//     the constructors cmd/quantileserver and cmd/quantileagg use, each
//     behind a wrapper that records one span per request. The aggregator
//     pulls through a timing cluster.Source. Each read is repeated at once,
//     directly, on the object that served it, which times the handler's
//     child call for that request.
//  2. Request by request into each inner layer's entry point: a store in
//     memory and a persistent one, a sharded summary and one GK summary per
//     key. Every write feeds every write-path layer and every read the
//     read-path layers, so each layer has figures on every workload.
//
// Then the encoding functions run on the exact payload bytes the pulls of
// the first replay moved. Spans carry the request id the generator
// assigned; a layer's self time is its span minus its child's span for the
// same id.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	quantilelb "quantilelb"
	"quantilelb/internal/cluster"
	"quantilelb/internal/encoding"
	"quantilelb/internal/gk"
	"quantilelb/internal/sharded"
	"quantilelb/internal/store"
)

// perLayer lists the per-layer metrics in report order with their units.
var perLayer = []struct{ name, unit string }{
	{"net.self_p50_us", "us"},
	{"net.self_p99_us", "us"},
	{"cluster.update.self_ns_per_item", "ns/item"},
	{"cluster.update.self_p50_us", "us"},
	{"cluster.read.self_p50_us", "us"},
	{"cluster.body_bytes_per_item", "bytes/item"},
	{"cluster.snapshot.p50_ms", "ms"},
	{"store.update.ns_per_item", "ns/item"},
	{"store.update.self_ns_per_item", "ns/item"},
	{"store.update.p50_us", "us"},
	{"store.read.p50_us", "us"},
	{"store.keys", "count"},
	{"store.buffered_keys", "count"},
	{"store.promotions", "count"},
	{"store.bytes_per_key", "bytes/key"},
	{"store.wal.us_per_record", "us/record"},
	{"store.wal.bytes_per_item", "bytes/item"},
	{"store.checkpoint.p50_ms", "ms"},
	{"store.checkpoint.max_ms", "ms"},
	{"store.checkpoint.bytes", "bytes"},
	{"store.open.ms", "ms"},
	{"store.open.us_per_key", "us/key"},
	{"sharded.update.ns_per_item", "ns/item"},
	{"sharded.refresh.p50_ms", "ms"},
	{"sharded.refreshes", "count"},
	{"gk.update.ns_per_item", "ns/item"},
	{"gk.query.p50_ns", "ns"},
	{"encoding.encode_store.ms", "ms"},
	{"encoding.encode_delta.ms", "ms"},
	{"encoding.apply_delta.ms", "ms"},
	{"encoding.decode.us_per_key", "us/key"},
	{"encoding.merge.us_per_key", "us/key"},
	{"encoding.delta_ratio", "ratio"},
	{"cluster.pull.fetch_p50_ms", "ms"},
	{"cluster.pull.rebuild_p50_ms", "ms"},
	{"cluster.pull.delta_hit_ratio", "ratio"},
	{"cluster.pull.changed_key_ratio", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.cpu_s", "s"},
}

// span is one timed call: its layer name, the request id it served, the
// name of the span that caused it, and its start and end relative to the
// tracer's epoch.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the traced run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name string, id int, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name, id, parent, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// time runs f and records it as a span.
func (t *tracer) time(name string, id int, parent string, f func()) {
	start := time.Now()
	f()
	t.add(name, id, parent, start, time.Now())
}

// byID returns the summed duration of each id's spans of one name.
func (t *tracer) byID(name string) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.ID] += s.dur()
		}
	}
	return out
}

// durations returns every span duration of one name, in milliseconds.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// wrap times every request h serves under the id the generator sent.
// Snapshot fetches carry the id of the pull round that caused them. When
// pullID is set, a forced pull publishes its id there first, for the
// aggregator's fetches to carry.
func (t *tracer) wrap(name string, h http.Handler, pullID *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.Atoi(r.Header.Get(reqIDHeader))
		n, parent := name, "client"
		if strings.HasSuffix(r.URL.Path, "/store/snapshot") {
			n, parent = "leaf.snapshot", "agg.fetch"
		}
		if pullID != nil && strings.HasSuffix(r.URL.Path, "/pull") {
			pullID.Store(int64(id))
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(n, id, parent, start, time.Now())
	})
}

// pullIDTransport tags the aggregator's snapshot fetches with the id of
// the pull round in flight.
type pullIDTransport struct {
	id   *atomic.Int64
	base http.RoundTripper
}

func (p pullIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(reqIDHeader, strconv.FormatInt(p.id.Load(), 10))
	return p.base.RoundTrip(r)
}

// fetchRec is one snapshot fetch as the aggregator saw it.
type fetchRec struct {
	id          int
	start, end  time.Time
	moved       []byte // the bytes on the wire: a full payload or a delta
	notModified bool
	failed      bool
}

// timingSource is a cluster.Source that times and keeps every fetch of the
// source it wraps.
type timingSource struct {
	inner cluster.Source
	id    *atomic.Int64
	tr    *tracer
	mu    sync.Mutex
	recs  []fetchRec
}

func (s *timingSource) Name() string { return s.inner.Name() }

func (s *timingSource) Fetch(ctx context.Context, etag string) ([]byte, string, bool, error) {
	start := time.Now()
	p, tag, notModified, err := s.inner.Fetch(ctx, etag)
	rec := fetchRec{id: int(s.id.Load()), start: start, end: time.Now(), moved: p, notModified: notModified, failed: err != nil}
	s.tr.add("agg.fetch", rec.id, "agg.handler", rec.start, rec.end)
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
	return p, tag, notModified, err
}

type gkSharded = sharded.Sharded[float64, *gk.Summary[float64]]

// inLeaf is one writer node hosted in-process.
type inLeaf struct {
	s     *gkSharded
	st    *store.Store
	srv   *http.Server
	done  chan struct{}
	url   string
	stops []func()
}

// inproc hosts a workload's servers in the benchmark process.
type inproc struct {
	tr      *tracer
	leaves  []*inLeaf
	agg     *cluster.KeyedAggregator
	aggSrv  *http.Server
	aggDone chan struct{}
	aggURL  string
	srcs    []*timingSource
	pullID  atomic.Int64
}

// serve starts h on a fresh loopback port; done closes when it has stopped.
func serve(h http.Handler) (*http.Server, chan struct{}, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return srv, done, "http://" + ln.Addr().String(), nil
}

// startInproc builds the workload's leaves as cmd/quantileserver does with
// the benchmark's flags, from fresh copies of the preload checkpoints, and
// its aggregator as cmd/quantileagg does. It returns the time from the
// first constructor call until every server listens.
func startInproc(w *workload, runDir string, seconds int, tr *tracer) (*inproc, time.Duration, error) {
	ip := &inproc{tr: tr}
	dirs := make([]string, w.leaves)
	for l := range dirs {
		dirs[l] = filepath.Join(runDir, fmt.Sprintf("inproc%d", l))
		if err := copyPreload(runDir, l, dirs[l]); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	for _, dir := range dirs {
		lf := &inLeaf{s: quantilelb.NewSharded(quantilelb.GKFactory(eps), 16, quantilelb.WithRefreshEvery(4096))}
		lf.stops = append(lf.stops, lf.s.AutoRefresh(time.Second))
		st, err := quantilelb.OpenStore(quantilelb.StoreConfig{Eps: eps, MaxRetainedBytes: 256 << 20, Dir: dir})
		if err != nil {
			ip.stop()
			return nil, 0, err
		}
		lf.st = st
		lf.stops = append(lf.stops, st.StartJanitor(10*time.Second))
		if d := w.checkpoint(seconds); d > 0 {
			lf.stops = append(lf.stops, every(d, func() {
				if err := st.Checkpoint(); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench: in-process checkpoint:", err)
				}
			}))
		}
		ip.leaves = append(ip.leaves, lf)
		if lf.srv, lf.done, lf.url, err = serve(tr.wrap("handler", cluster.NewStoreServerHandler(lf.s, st), nil)); err != nil {
			ip.stop()
			return nil, 0, err
		}
	}
	if w.aggMain {
		if err := ip.startAgg(); err != nil {
			ip.stop()
			return nil, 0, err
		}
	}
	return ip, time.Since(t0), nil
}

// every runs f on a ticker until the returned stop function is called; stop
// returns once the ticker goroutine has exited.
func every(d time.Duration, f func()) func() {
	t := time.NewTicker(d)
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-t.C:
				f()
			case <-quit:
				return
			}
		}
	}()
	return func() { t.Stop(); close(quit); <-done }
}

func (ip *inproc) startAgg() error {
	client := &http.Client{Timeout: 5 * time.Second, Transport: pullIDTransport{&ip.pullID, &http.Transport{}}}
	var srcs []cluster.Source
	for _, lf := range ip.leaves {
		ts := &timingSource{inner: &cluster.HTTPSource{URL: lf.url, Client: client, Path: "/v1/store/snapshot", Delta: true}, id: &ip.pullID, tr: ip.tr}
		ip.srcs = append(ip.srcs, ts)
		srcs = append(srcs, ts)
	}
	ip.agg = cluster.NewKeyed(srcs...)
	if err := ip.agg.PullOnce(context.Background()); err != nil {
		return fmt.Errorf("first pull: %w", err)
	}
	var err error
	ip.aggSrv, ip.aggDone, ip.aggURL, err = serve(ip.tr.wrap("agg.handler", cluster.NewKeyedAggregatorHandler(ip.agg), &ip.pullID))
	return err
}

func (ip *inproc) target() target {
	t := target{agg: ip.aggURL}
	for _, lf := range ip.leaves {
		t.leaves = append(t.leaves, lf.url)
	}
	return t
}

func (ip *inproc) peakRSSMiB() (float64, error) { return vmHWM("/proc/self/status") }

func (ip *inproc) stop() {
	if ip.aggSrv != nil {
		ip.aggSrv.Close()
		<-ip.aggDone
	}
	for _, lf := range ip.leaves {
		if lf.srv != nil {
			lf.srv.Close()
			<-lf.done
		}
		for _, stop := range lf.stops {
			stop()
		}
		lf.st.Close()
	}
}

// reader is the read API shared by the store (per key), the sharded
// summary, the aggregator (per key) and a GK summary.
type reader interface {
	Query(phi float64) (float64, bool)
	EstimateRank(q float64) int
	CDF(q float64) float64
}

type storeKey struct {
	st  *store.Store
	key string
}

func (r storeKey) Query(phi float64) (float64, bool) { return r.st.Query(r.key, phi) }
func (r storeKey) EstimateRank(q float64) int        { return r.st.EstimateRank(r.key, q) }
func (r storeKey) CDF(q float64) float64             { return r.st.CDF(r.key, q) }

type aggKey struct {
	a   *cluster.KeyedAggregator
	key string
}

func (r aggKey) Query(phi float64) (float64, bool) { return r.a.Query(r.key, phi) }
func (r aggKey) EstimateRank(q float64) int        { return r.a.EstimateRank(r.key, q) }
func (r aggKey) CDF(q float64) float64             { return r.a.CDF(r.key, q) }

type gkReader struct{ *gk.Summary[float64] }

func (r gkReader) CDF(q float64) float64 {
	if r.Count() == 0 {
		return 0
	}
	return float64(r.EstimateRank(q)) / float64(r.Count())
}

func doRead(r reader, rq *request) {
	switch rq.op {
	case opQuantile:
		for _, phi := range rq.args {
			r.Query(phi)
		}
	case opRank:
		r.EstimateRank(rq.args[0])
	default:
		for _, q := range rq.args {
			r.CDF(q)
		}
	}
}

// directRead repeats a read on the in-process object that served it.
func (ip *inproc) directRead(s sample) {
	rq := s.rq
	if rq.kind != kindRead {
		return
	}
	var r reader
	switch {
	case rq.node == aggNode:
		r = aggKey{ip.agg, rq.key}
	case rq.key == "":
		r = ip.leaves[rq.node].s
	default:
		r = storeKey{ip.leaves[rq.node].st, rq.key}
	}
	ip.tr.time("direct.read", s.id, "handler", func() { doRead(r, rq) })
}

type traceResult struct {
	endToEnd map[string]metric
	layers   map[string]metric
	file     string
	check    checkResult
	failed   int
	attempts int
}

// runTrace replays the run's requests through the in-process servers and
// then through each layer, and derives the per-layer metrics.
func runTrace(cfg config, w *workload, runDir string, res *runResult) (*traceResult, error) {
	tr := &tracer{epoch: time.Now()}
	ip, setup, err := startInproc(w, runDir, cfg.seconds, tr)
	if err != nil {
		return nil, err
	}
	l := newLoader(ip.target(), newRunTracker(w, res.in), true, res.in.requests())
	l.epoch = tr.epoch
	l.after = ip.directRead
	// A quarter of the run and a few dozen pull rounds give every layer
	// enough samples; the replay's inputs are the run's, cut short.
	replay := *res.in
	replay.rounds = replay.rounds[:min(len(replay.rounds), warmPullRounds+tracePullRounds)]
	m, err := exercise(w, &replay, ip, l, max(1, cfg.seconds/4), runDir)
	ip.stop()
	if err != nil {
		return nil, err
	}
	m.metrics["setup_s"] = metric{Value: setup.Seconds(), Unit: "s", Samples: 1}
	for _, s := range l.samples {
		tr.add("client", s.id, "", tr.epoch.Add(s.start), tr.epoch.Add(s.end))
	}
	samples := append([]sample(nil), l.samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i].id < samples[j].id })

	lr, err := replayLayers(w, res.in, runDir, cfg.seconds, samples, tr)
	if err != nil {
		return nil, err
	}
	enc, err := replayEncoding(ip.srcs, tr)
	if err != nil {
		return nil, err
	}
	out := &traceResult{endToEnd: m.metrics, check: m.check, failed: m.failed, attempts: m.attempted}
	out.layers = deriveLayers(tr, samples, lr, enc, res)
	out.file = filepath.Join(cfg.work, "traces", w.name+".jsonl")
	if err := tr.write(out.file); err != nil {
		return nil, err
	}
	return out, nil
}

// layerReplay holds what the direct layer replay measured besides spans.
type layerReplay struct {
	walBytes  int64
	ckptBytes []int64
	openKeys  int
	refreshes int
	items     int
}

// replayLayers feeds the replayed requests, in id order, to each layer's
// entry point: every write to an in-memory store, a persistent store, a
// sharded summary and a per-key GK summary; every keyed read to the
// in-memory store, every single-stream read to the sharded summary, and
// every read to the GK summary of its key. The sharded summaries refresh on
// the server's one-second tick and the persistent stores checkpoint on the
// workload's timer, both in replayed time. At the end each persistent store
// closes (a final checkpoint) and is opened again.
func replayLayers(w *workload, in *inputs, runDir string, seconds int, samples []sample, tr *tracer) (*layerReplay, error) {
	const stream = "_stream" // the single stream, fed to the stores as a key
	lr := &layerReplay{}
	n := w.leaves
	mem := make([]*store.Store, n)
	persist := make([]*store.Store, n)
	dirs := make([]string, n)
	sh := make([]*gkSharded, n)
	gks := map[trackKey]*gk.Summary[float64]{}
	gkFor := func(node int, key string) *gk.Summary[float64] {
		g := gks[trackKey{node, key}]
		if g == nil {
			g = quantilelb.NewGK(eps)
			gks[trackKey{node, key}] = g
		}
		return g
	}
	for l := 0; l < n; l++ {
		mem[l] = store.New(store.Config{Eps: eps, MaxRetainedBytes: 256 << 20})
		dirs[l] = filepath.Join(runDir, fmt.Sprintf("layers%d", l))
		if err := copyPreload(runDir, l, dirs[l]); err != nil {
			return nil, err
		}
		if l < len(in.preload) {
			payload, err := os.ReadFile(filepath.Join(dirs[l], "store.ckpt"))
			if err != nil {
				return nil, err
			}
			if _, err := mem[l].MergePayload(payload); err != nil {
				return nil, err
			}
			for k, key := range in.keys {
				gkFor(l, key).UpdateBatch(in.preload[l][k])
				if w.aggMain {
					gkFor(aggNode, key).UpdateBatch(in.preload[l][k])
				}
			}
		}
		var err error
		if persist[l], err = store.Open(store.Config{Eps: eps, MaxRetainedBytes: 256 << 20, Dir: dirs[l]}); err != nil {
			return nil, err
		}
		sh[l] = quantilelb.NewSharded(quantilelb.GKFactory(eps), 16, quantilelb.WithRefreshEvery(4096))
	}
	walSize := func(l int) int64 {
		fi, err := os.Stat(filepath.Join(dirs[l], "store.wal"))
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	checkpoint := func(id int) error {
		for l := range persist {
			lr.walBytes += walSize(l)
			var err error
			tr.time("store.checkpoint", id, "timer", func() { err = persist[l].Checkpoint() })
			if err != nil {
				return err
			}
		}
		return nil
	}
	nextRefresh, ckptEvery := time.Second, w.checkpoint(seconds)
	nextCkpt := ckptEvery
	for _, s := range samples {
		for ; s.start >= nextRefresh; nextRefresh += time.Second {
			for l := range sh {
				tr.time("sharded.refresh", s.id, "timer", sh[l].Refresh)
			}
		}
		for ; ckptEvery > 0 && s.start >= nextCkpt; nextCkpt += ckptEvery {
			if err := checkpoint(s.id); err != nil {
				return nil, err
			}
		}
		rq := s.rq
		key := rq.key
		if key == "" {
			key = stream
		}
		switch rq.kind {
		case kindWrite:
			vals := rq.body.values
			l := rq.node
			lr.items += len(vals)
			tr.time("store.update", s.id, "handler", func() { mem[l].UpdateBatch(key, vals) })
			tr.time("store.update.persistent", s.id, "handler", func() { persist[l].UpdateBatch(key, vals) })
			tr.time("sharded.update", s.id, "handler", func() { sh[l].UpdateBatch(vals) })
			g := gkFor(l, key)
			tr.time("gk.update", s.id, "store.update", func() { g.UpdateBatch(vals) })
			if w.aggMain {
				gkFor(aggNode, key).UpdateBatch(vals)
			}
		case kindRead:
			l := max(rq.node, 0)
			if rq.key == "" {
				tr.time("sharded.read", s.id, "handler", func() { doRead(sh[l], rq) })
			} else {
				tr.time("store.read", s.id, "handler", func() { doRead(storeKey{mem[l], key}, rq) })
			}
			g := gkReader{gkFor(rq.node, key)}
			tr.time("gk.query", s.id, "store.read", func() { doRead(g, rq) })
		}
	}
	for l := range persist {
		lr.walBytes += walSize(l)
		var err error
		tr.time("store.checkpoint", -1, "close", func() { err = persist[l].Close() })
		if err != nil {
			return nil, err
		}
		fi, err := os.Stat(filepath.Join(dirs[l], "store.ckpt"))
		if err != nil {
			return nil, err
		}
		lr.ckptBytes = append(lr.ckptBytes, fi.Size())
		var st *store.Store
		tr.time("store.open", -1, "restart", func() {
			st, err = store.Open(store.Config{Eps: eps, MaxRetainedBytes: 256 << 20, Dir: dirs[l]})
		})
		if err != nil {
			return nil, err
		}
		lr.openKeys += st.Len()
		st.Close()
		lr.refreshes += sh[l].Stats().Refreshes
	}
	return lr, nil
}

// encodingReplay is what the encoding replay counted.
type encodingReplay struct {
	fetches, deltaFetches int
	deltaMoved, deltaFull int64
	changedKeys           int
	decodedKeys           int
	decodeKeys, mergeKeys int
	fetchMS, rebuildMS    []float64
}

// tracePullRounds bounds the pull rounds the traced replay runs.
const tracePullRounds = 50

// maxEncodingRounds bounds the pull rounds whose payloads are fully decoded,
// merged and re-encoded again; the rounds are spread over the run.
const maxEncodingRounds = 30

// replayEncoding runs the encoding functions on the payload bytes the
// aggregator's fetches moved, round by round: ApplyDelta on each delta
// received, EncodeDelta between consecutive full payloads of a peer (the
// leaf's work to serve that delta), and for sampled rounds DecodeStore and
// Decode of every key, a per-key merge across peers, and EncodeStore of the
// decoded keys. With one peer, each key merges with a second decode of
// itself, the merge a second leaf holding the same data would cost.
func replayEncoding(srcs []*timingSource, tr *tracer) (*encodingReplay, error) {
	er := &encodingReplay{}
	if len(srcs) == 0 {
		return er, nil
	}
	type peer struct {
		full []byte
		recs map[string][]byte
	}
	peers := make([]peer, len(srcs))
	fulls := func() [][]byte {
		out := make([][]byte, len(peers))
		for i, p := range peers {
			out[i] = p.full
		}
		return out
	}
	rounds := map[int][]*fetchRec{}
	var ids []int
	for p, s := range srcs {
		for i := range s.recs {
			rec := &s.recs[i]
			if rec.id == 0 {
				// Pulls no replayed request caused: the first, full pull at
				// start-up, and the correctness check's final one.
				if i == 0 && !rec.failed {
					peers[p].full = rec.moved
				}
				continue
			}
			if rounds[rec.id] == nil {
				ids = append(ids, rec.id)
				rounds[rec.id] = make([]*fetchRec, len(srcs))
			}
			rounds[rec.id][p] = rec
		}
	}
	sort.Ints(ids)
	records := func(payload []byte) (map[string][]byte, []encoding.KeyedPayload, error) {
		recs, err := encoding.DecodeStore(payload)
		if err != nil {
			return nil, nil, err
		}
		m := make(map[string][]byte, len(recs))
		for _, r := range recs {
			m[r.Key] = r.Payload
		}
		return m, recs, nil
	}
	for p := range peers {
		if peers[p].full != nil {
			m, _, err := records(peers[p].full)
			if err != nil {
				return nil, err
			}
			peers[p].recs = m
		}
	}
	stride := max(1, len(ids)/maxEncodingRounds)
	for i, id := range ids {
		changed := false
		var first, last time.Time
		for p, rec := range rounds[id] {
			if rec == nil {
				continue
			}
			if first.IsZero() || rec.start.Before(first) {
				first = rec.start
			}
			if rec.end.After(last) {
				last = rec.end
			}
			er.fetches++
			if rec.failed || rec.notModified {
				continue
			}
			full := rec.moved
			if encoding.IsDelta(rec.moved) {
				er.deltaFetches++
				var err error
				tr.time("encoding.apply_delta", id, "agg.fetch", func() { full, err = encoding.ApplyDelta(peers[p].full, rec.moved) })
				if err != nil {
					return nil, err
				}
				er.deltaMoved += int64(len(rec.moved))
				er.deltaFull += int64(len(full))
			}
			if peers[p].full != nil {
				base := peers[p].full
				tr.time("encoding.encode_delta", id, "leaf.snapshot", func() { encoding.EncodeDelta(base, full) })
			}
			m, _, err := records(full)
			if err != nil {
				return nil, err
			}
			for k, v := range m {
				if !bytes.Equal(peers[p].recs[k], v) {
					er.changedKeys++
				}
			}
			peers[p].full, peers[p].recs = full, m
			changed = true
		}
		if !first.IsZero() {
			er.fetchMS = append(er.fetchMS, ms(last.Sub(first)))
		}
		if !changed {
			continue
		}
		for _, pr := range peers {
			er.decodedKeys += len(pr.recs)
		}
		if i%stride == 0 {
			if err := encodeRound(fulls(), id, tr, er); err != nil {
				return nil, err
			}
		}
	}
	return er, nil
}

// encodeRound decodes every key of every peer's payload, re-encodes each
// peer's decoded keys as a store container, and merges the keys across
// peers (or, with one peer, with a second decode of itself).
func encodeRound(fulls [][]byte, id int, tr *tracer, er *encodingReplay) error {
	decodeAll := func(payload []byte) ([]string, []any, error) {
		recs, err := encoding.DecodeStore(payload)
		if err != nil {
			return nil, nil, err
		}
		keys := make([]string, len(recs))
		sums := make([]any, len(recs))
		for i, r := range recs {
			keys[i] = r.Key
			if sums[i], err = encoding.Decode(r.Payload); err != nil {
				return nil, nil, err
			}
		}
		return keys, sums, nil
	}
	type decoded struct {
		keys []string
		sums []any
	}
	var peers []decoded
	for _, full := range fulls {
		if full == nil {
			continue
		}
		var d decoded
		var err error
		tr.time("encoding.decode", id, "agg.rebuild", func() { d.keys, d.sums, err = decodeAll(full) })
		if err != nil {
			return err
		}
		er.decodeKeys += len(d.keys)
		peers = append(peers, d)
	}
	if len(peers) == 0 {
		return nil
	}
	var err error
	for _, d := range peers {
		tr.time("encoding.encode_store", id, "leaf.snapshot", func() {
			entries := make([]encoding.KeyedPayload, len(d.keys))
			for i, k := range d.keys {
				var p []byte
				if p, err = encoding.Encode(d.sums[i]); err != nil {
					return
				}
				entries[i] = encoding.KeyedPayload{Key: k, Payload: p}
			}
			_, err = encoding.EncodeStore(entries)
		})
		if err != nil {
			return err
		}
	}
	others := peers[1:]
	if len(others) == 0 {
		var d decoded
		var err error
		if d.keys, d.sums, err = decodeAll(fulls[0]); err != nil {
			return err
		}
		others = []decoded{d}
	}
	tr.time("encoding.merge", id, "agg.rebuild", func() {
		merged := map[string]any{}
		for i, k := range peers[0].keys {
			merged[k] = peers[0].sums[i]
		}
		for _, d := range others {
			for i, k := range d.keys {
				if cur, ok := merged[k]; ok {
					if merged[k], err = encoding.MergeAdopting(cur, d.sums[i]); err != nil {
						return
					}
					er.mergeKeys++
				} else {
					merged[k] = d.sums[i]
				}
			}
		}
	})
	if err != nil {
		return err
	}
	return nil
}
