package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Phases of a run; only phaseMain and phaseEpilogue samples feed metrics.
const (
	phaseWarm = iota
	phaseMain
	phaseEpilogue
)

// target names the servers a run drives: leaf base URLs and, when the
// workload has one, the keyed aggregator's.
type target struct {
	leaves []string
	agg    string
}

func (t target) base(node int) string {
	if node == aggNode {
		return t.agg
	}
	return t.leaves[node]
}

// sample is one request as the generator saw it. Times are offsets from the
// loader's epoch. due is when the request was due: its scheduled time in an
// open loop, the moment the worker's previous answer arrived in a closed one.
type sample struct {
	rq              *request
	id              int
	phase           int
	open            bool
	due, start, end time.Duration
	ok              bool
}

// latency is the request's time as reported: from when it was due in an
// open loop, from when it was sent in a closed loop.
func (s sample) latency() time.Duration {
	if s.open {
		return s.end - s.due
	}
	return s.end - s.start
}

// reqIDHeader carries a request's id to the in-process handlers of the
// traced replay, which record their spans under it.
const reqIDHeader = "X-Bench-Req"

// loader sends generated requests and records one sample per request. Each
// worker owns one HTTP client holding at most one connection per server,
// so the number of workers bounds the connections in use.
type loader struct {
	t       target
	epoch   time.Time
	track   *tracker
	traceID bool         // send reqIDHeader
	after   func(sample) // called with every sample once recorded; may be nil

	nextID  atomic.Int64
	mu      sync.Mutex
	samples []sample
	errs    map[string]int
	steal   []stealPoint // guarded by mu
}

// stealPoint is the machine's cumulative steal time at one moment.
type stealPoint struct {
	at    time.Duration
	steal float64
}

// trackSteal samples the machine's steal time every 20ms until the
// returned function is first called; it returns once sampling has stopped.
func (l *loader) trackSteal() func() {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			l.mu.Lock()
			l.steal = append(l.steal, stealPoint{l.now(), stealSeconds()})
			l.mu.Unlock()
			select {
			case <-t.C:
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(quit); <-done }) }
}

// stealShare is the share of the machine's CPU time the hypervisor took
// between two moments, from the samples nearest to them.
func (l *loader) stealShare(from, to time.Duration) float64 {
	var a, b *stealPoint
	for i := range l.steal {
		p := &l.steal[i]
		if p.at <= from || a == nil {
			a = p
		}
		if b == nil || p.at <= to {
			b = p
		}
	}
	if a == nil || b.at <= a.at {
		return 0
	}
	return (b.steal - a.steal) / (b.at - a.at).Seconds() / float64(runtime.NumCPU())
}

// newLoader returns a loader with room for capacity samples, so that
// recording one never copies the whole list while workers wait.
func newLoader(t target, track *tracker, traceID bool, capacity int) *loader {
	return &loader{t: t, epoch: time.Now(), track: track, traceID: traceID, errs: map[string]int{},
		samples: make([]sample, 0, capacity)}
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: failedLatency,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func (l *loader) now() time.Duration { return time.Since(l.epoch) }

// send issues one request and records its sample.
func (l *loader) send(c *http.Client, rq *request, phase int, open bool, due time.Duration) sample {
	s := sample{rq: rq, id: int(l.nextID.Add(1)), phase: phase, open: open, due: due}
	method := http.MethodGet
	var rd io.Reader
	if rq.kind != kindRead {
		method = http.MethodPost
	}
	if rq.body != nil {
		rd = bytes.NewReader(rq.body.json)
	}
	req, err := http.NewRequest(method, l.t.base(rq.node)+rq.path, rd)
	if err != nil {
		panic(err) // paths are generated; a bad one is a benchmark bug
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if l.traceID {
		req.Header.Set(reqIDHeader, strconv.Itoa(s.id))
	}
	s.start = l.now()
	resp, err := c.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s.ok = err == nil && resp.StatusCode/100 == 2
	}
	s.end = l.now()
	if s.ok && rq.kind == kindWrite {
		l.track.add(rq.node, rq.key, rq.body)
	}
	l.mu.Lock()
	l.samples = append(l.samples, s)
	if !s.ok {
		if err != nil {
			l.errs[rq.path+": "+err.Error()]++
		} else {
			l.errs[rq.path+": "+resp.Status]++
		}
	}
	l.mu.Unlock()
	if l.after != nil {
		l.after(s)
	}
	return s
}

// closedLoop sends reqs in order from workers that each wait for an answer
// before sending their next request, until the list or stopAt runs out.
// phase maps a request index to its phase.
func (l *loader) closedLoop(reqs []*request, workers int, stopAt time.Duration, phase func(int) int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			free := l.now()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || l.now() >= stopAt {
					return
				}
				free = l.send(c, reqs[i], phase(i), false, free).end
			}
		}()
	}
	wg.Wait()
}

// openLoop sends reqs at start+rq.due regardless of earlier answers, from
// workers that each take the next due request; a request due while every
// worker is busy goes out late and its latency counts the wait.
func (l *loader) openLoop(reqs []*request, workers int, start, stopAt time.Duration, phase func(int) int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start + reqs[i].due
				if due >= stopAt {
					return
				}
				if d := due - l.now(); d > 0 {
					sleep(d)
				}
				l.send(c, reqs[i], phase(i), true, due)
			}
		}()
	}
	wg.Wait()
}

// pullRounds runs rounds back to back on one worker — each round's writes,
// then its forced pull — until the rounds run out or, once minRounds have
// run, stopAt passes.
func (l *loader) pullRounds(rounds [][]*request, minRounds int, stopAt time.Duration, phase int) {
	c := newClient()
	defer c.CloseIdleConnections()
	free := l.now()
	for r, round := range rounds {
		if r >= minRounds && l.now() >= stopAt {
			return
		}
		for _, rq := range round {
			free = l.send(c, rq, phase, false, free).end
		}
	}
}

// sleep blocks the calling thread in nanosleep(2): the runtime's timers wake
// sleepers on a millisecond grid on Linux, far coarser than the gaps
// between open-loop requests.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func allPhase(p int) func(int) int { return func(int) int { return p } }

// selected returns the samples of one phase and kind, in id order.
func (l *loader) selected(phase, kind int) []sample {
	var out []sample
	for _, s := range l.samples {
		if s.phase == phase && s.rq.kind == kind {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// failedLatency is what a failed, refused or timed-out request counts as:
// the client timeout, above any latency limit.
const failedLatency = 10 * time.Second

func latenciesMS(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		d := s.latency()
		if !s.ok {
			d = max(d, failedLatency)
		}
		out = append(out, ms(d))
	}
	return out
}

// stealSeconds returns the CPU time the hypervisor has taken from this
// machine since boot (the steal column of /proc/stat), 0 where unknown.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// cpuSeconds returns the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
