package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Workload sizes. The serve-mixed rate is a little under half of the
// highest rate the code this benchmark was introduced on sustained on a
// 2-core machine: busy enough that the CPUs seldom go idle and wait on the
// host to wake them, with room left for the CPU time a shared host takes
// away. It is a constant so that every commit is offered the same load.
const (
	warmFor        = time.Second // untimed traffic before the timed section
	setupRepeats   = 9           // set-ups per run; setup_s is their median
	mixedKeys      = 8000        // enough that checkpoint pauses set the p99 even on a fast host
	mixedPreload   = 20000       // items of the hottest preloaded key
	mixedRate      = 3000        // requests per second
	pullKeys       = 1000
	pullPreload    = 40000
	pullPerLeaf    = 32  // keys written on each leaf per round
	pullReadRate   = 500 // aggregator reads per second during agg-pull
	minPullRounds  = 200 // at least 20 rounds in each of the ten windows
	warmPullRounds = 5
	epilogueRounds = 120
)

// workload describes one traffic mix: how many leaf servers it runs, how
// often they checkpoint, whether an aggregator is part of the timed section,
// and how to generate and drive its requests.
type workload struct {
	name       string
	leaves     int
	leafEnv    []string
	checkpoint func(seconds int) time.Duration // 0: never during the run
	aggMain    bool
	prepare    func(seed int64, seconds int) *inputs
	drive      func(l *loader, in *inputs, seconds int)
}

func noCheckpoint(int) time.Duration { return 0 }

var workloads = map[string]*workload{
	"serve-mixed": {
		name:   "serve-mixed",
		leaves: 1,
		// A checkpoint every 500 ms keeps the pauses at a steady 5–10% of
		// the time, so the p99 tails fall well inside them rather than at
		// their edge, where a small change in pause length would move the
		// p99 a lot; each window a metric's median is taken over holds
		// eight of them.
		checkpoint: func(int) time.Duration { return 500 * time.Millisecond },
		prepare:    prepareMixed,
		drive:      driveMixed,
	},
	"agg-pull": {
		name:       "agg-pull",
		leaves:     2,
		leafEnv:    []string{"GOMAXPROCS=1"}, // one core per leaf
		checkpoint: noCheckpoint,
		aggMain:    true,
		prepare:    preparePull,
		drive:      drivePull,
	},
}

func workloadNames() []string { return []string{"serve-mixed", "agg-pull"} }

// prepareMixed: an open loop at mixedRate, 90% reads and 10% small writes,
// over a store restored from a checkpoint of mixedKeys zipf-sized keys. With
// writes this rare the checkpoint grows by about a quarter during a run, so
// its pauses, and the tails they set, change little from the first window
// to the last.
func prepareMixed(seed int64, seconds int) *inputs {
	g := newGen(seed, 2, mixedKeys, 16)
	in := &inputs{keys: g.keys, preload: [][][]float64{g.preloadKeys(mixedPreload)}}
	// The single stream is not persisted: fill it before the timed section
	// so single-stream reads have data.
	for _, b := range g.big {
		in.streamFill = append(in.streamFill, writeReq(0, "", b))
	}
	in.main = g.openSchedule(mixedRate, warmFor+time.Duration(seconds)*time.Second, func() *request {
		switch p := g.r.IntN(100); {
		case p < 90:
			return g.mixedRead(0)
		case p < 92:
			return writeReq(0, "", g.small[g.r.IntN(len(g.small))])
		default:
			return writeReq(0, g.key(), g.small[g.r.IntN(len(g.small))])
		}
	})
	in.rounds = g.pullRounds(epilogueRounds, 1, pullPerLeaf)
	in.tracked = append(trackedKeys(g.keys), "")
	return in
}

func driveMixed(l *loader, in *inputs, seconds int) {
	l.closedLoop(in.streamFill, 1, 1<<62, allPhase(phaseWarm))
	start := l.now()
	l.openLoop(in.main, 2, start, start+warmFor+time.Duration(seconds)*time.Second, func(i int) int {
		if in.main[i].due < warmFor {
			return phaseWarm
		}
		return phaseMain
	})
}

// preparePull: two leaves restored from checkpoints of the same pullKeys
// keys; rounds of small writes on both leaves followed by a forced pull,
// beside a low-rate open-loop reader on the aggregator.
func preparePull(seed int64, seconds int) *inputs {
	g := newGen(seed, 3, pullKeys, 0)
	in := &inputs{keys: g.keys}
	for l := 0; l < 2; l++ {
		in.preload = append(in.preload, g.preloadKeys(pullPreload))
	}
	in.rounds = g.pullRounds(warmPullRounds+minPullRounds+20*seconds, 2, pullPerLeaf)
	in.main = g.openSchedule(pullReadRate, warmFor+time.Duration(seconds)*time.Second, func() *request {
		return g.read(aggNode, g.key())
	})
	in.tracked = trackedKeys(g.keys)
	return in
}

func drivePull(l *loader, in *inputs, seconds int) {
	l.pullRounds(in.rounds[:warmPullRounds], warmPullRounds, 0, phaseWarm)
	start := l.now()
	stopAt := start + time.Duration(seconds)*time.Second
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.openLoop(in.main, 1, start, stopAt, allPhase(phaseMain))
	}()
	l.pullRounds(in.rounds[warmPullRounds:], minPullRounds, stopAt, phaseMain)
	wg.Wait()
}

// servers is what a run drives: the server processes of an untraced run,
// or the same handlers hosted in-process for the traced replay.
type servers interface {
	target() target
	// startAgg adds the keyed aggregator over the leaves; it returns once
	// the aggregator has made its first full pull and answers.
	startAgg() error
	peakRSSMiB() (float64, error)
	stop()
}

// fleet is the set of server processes of one run.
type fleet struct {
	leaves []*proc
	agg    *proc
	bin    string
	runDir string
}

func (f *fleet) target() target {
	t := target{}
	for _, p := range f.leaves {
		t.leaves = append(t.leaves, p.url)
	}
	if f.agg != nil {
		t.agg = f.agg.url
	}
	return t
}

func (f *fleet) stop() {
	for _, p := range append(f.leaves, f.agg) {
		if p != nil {
			p.stop()
		}
	}
}

// peakRSSMiB sums the resident-set high-water marks of the processes.
func (f *fleet) peakRSSMiB() (float64, error) {
	sum := 0.0
	for _, p := range append(f.leaves, f.agg) {
		if p == nil {
			continue
		}
		v, err := p.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// startCluster launches the workload's leaves from fresh copies of their
// preload checkpoints (or empty store directories), then its aggregator,
// and returns once every server answers, with the time that took from the
// first launch.
func startCluster(w *workload, bin, runDir string, seconds int) (*fleet, time.Duration, error) {
	dirs := make([]string, w.leaves)
	for l := range dirs {
		dirs[l] = filepath.Join(runDir, "leaf"+strconv.Itoa(l))
		if err := copyPreload(runDir, l, dirs[l]); err != nil {
			return nil, 0, err
		}
	}
	c := &fleet{bin: bin, runDir: runDir}
	t0 := time.Now()
	for l, dir := range dirs {
		args := []string{"-family", "gk", "-eps", strconv.FormatFloat(eps, 'g', -1, 64),
			"-store-dir", dir, "-store-checkpoint", w.checkpoint(seconds).String()}
		p, err := launch(fmt.Sprintf("leaf%d", l), filepath.Join(bin, "quantileserver"), runDir, w.leafEnv, args...)
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		c.leaves = append(c.leaves, p)
	}
	for _, p := range c.leaves {
		if err := p.waitReady(60 * time.Second); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	if w.aggMain {
		if err := c.startAgg(); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	return c, time.Since(t0), nil
}

// startAgg launches a keyed aggregator over the leaves with delta pulls on
// and a timer long enough that only forced pulls run.
func (f *fleet) startAgg() error {
	var urls []string
	for _, p := range f.leaves {
		urls = append(urls, p.url)
	}
	p, err := launch("agg", filepath.Join(f.bin, "quantileagg"), f.runDir, nil,
		"-keyed", "-peers", strings.Join(urls, ","), "-interval", "1h")
	if err != nil {
		return err
	}
	f.agg = p
	return p.waitReady(60 * time.Second)
}

// aggWireBytes sums the snapshot bytes the aggregator has received from its
// peers (the wire_bytes of its /v1/stats).
func aggWireBytes(aggURL string) (int64, error) {
	var st struct {
		Peers []struct {
			WireBytes int64 `json:"wire_bytes"`
		}
	}
	if err := getJSON("GET", aggURL+"/v1/stats", &st); err != nil {
		return 0, err
	}
	var sum int64
	for _, p := range st.Peers {
		sum += p.WireBytes
	}
	return sum, nil
}
