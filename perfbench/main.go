// Command perfbench is the repository's service benchmark. It builds on the
// quantileserver and quantileagg binaries of the checkout (perfbench/run.sh
// builds them), runs them as separate processes on loopback, drives them
// from this one load-generator process, checks their answers, and prints
// every metric by name:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
//
// The workloads are serve-mixed and agg-pull (see workloads.go). With
// --trace 1 the run is followed by a traced replay of the same requests
// through each layer's entry point (see trace.go) and the
// per-layer metrics are printed instead of the end-to-end ones. The last
// line of standard output is always one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// The line before it is a JSON report with provenance, the sample count
// behind every percentile, the correctness check and generator health.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root
	bin      string // directory holding quantileserver and quantileagg
	work     string // scratch directory for stores, logs and traces
}

// metric is one reported value.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Parts   []float64 `json:"parts,omitempty"` // per-window values the median is taken over
	Steal   []float64 `json:"window_steal,omitempty"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed section in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds the traced per-layer replay")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the built quantileserver and quantileagg")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory")
	flag.Parse()
	cfg.trace = traceFlag == 1
	// The generator keeps every request and sample in memory; collecting
	// that heap less often keeps its own pauses out of the latencies.
	debug.SetGCPercent(800)
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, out io.Writer) error {
	w := workloads[cfg.workload]
	if w == nil {
		return fmt.Errorf("unknown workload %q: want one of %s", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	for _, b := range []string{"quantileserver", "quantileagg"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			return fmt.Errorf("server binary missing: %w", err)
		}
	}
	runDir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	res, err := runWorkload(cfg, w, runDir)
	if err != nil {
		return err
	}
	report := map[string]any{
		"provenance": provenance(cfg),
		"workload":   w.name,
		"end_to_end": res.metrics,
		"failed_frac": map[string]any{
			"value": float64(res.failed) / float64(res.attempted), "failed": res.failed, "attempted": res.attempted,
		},
		"check":   res.check,
		"loadgen": res.loadgen,
		"errors":  res.errs,
	}
	final, attempted, failed, failures := res.metrics, res.attempted, res.failed, res.check.Failures
	if cfg.trace {
		tr, err := runTrace(cfg, w, runDir, res)
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		report["traced_end_to_end"] = tr.endToEnd
		report["traced_check"] = tr.check
		report["per_layer"] = tr.layers
		report["trace_file"] = tr.file
		final = tr.layers
		// The replay's answers are checked like the run's.
		attempted += tr.attempts
		failed += tr.failed
		failures += tr.check.Failures
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(report); err != nil {
		return err
	}
	plain := map[string]metric{}
	for k, m := range final {
		plain[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	return enc.Encode(map[string]any{
		"correct":   failures == 0 && failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   plain,
	})
}

// runResult is what one untraced run measured, plus what the traced replay
// needs to repeat it.
type runResult struct {
	*measured
	in *inputs
}

func runWorkload(cfg config, w *workload, runDir string) (*runResult, error) {
	in := w.prepare(cfg.seed, cfg.seconds)
	for l, pre := range in.preload {
		if err := writeCheckpoint(filepath.Join(runDir, fmt.Sprintf("preload%d", l)), in.keys, pre); err != nil {
			return nil, fmt.Errorf("writing preload checkpoint: %w", err)
		}
	}
	var c *fleet
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		var d time.Duration
		var err error
		if c, d, err = startCluster(w, cfg.bin, runDir, cfg.seconds); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRepeats-1 {
			c.stop()
		}
	}
	defer c.stop()
	m, err := exercise(w, in, c, newLoader(c.target(), newRunTracker(w, in), false, in.requests()), cfg.seconds, runDir)
	if err != nil {
		return nil, err
	}
	m.metrics["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: len(setups), Parts: setups}
	return &runResult{measured: m, in: in}, nil
}

// newRunTracker tracks the workload's sampled keys, starting from the
// values their preload checkpoints restore.
func newRunTracker(w *workload, in *inputs) *tracker {
	tr := newTracker(w.leaves, in.tracked)
	for l, pre := range in.preload {
		for k, key := range in.keys {
			if s := tr.sets[trackKey{l, key}]; s != nil {
				s.addValues(pre[k])
			}
		}
	}
	return tr
}

// measured is what exercise observed: every end-to-end metric but setup_s,
// the failure count, the correctness check and the generator's health.
type measured struct {
	metrics   map[string]metric
	attempted int
	failed    int
	check     checkResult
	loadgen   map[string]float64
	errs      map[string]int
	storeStat map[string]float64
}

// exercise drives one workload against running servers: its warm-up and
// timed section, then — for workloads whose timed section has no aggregator
// — an epilogue of aggregator pull rounds on the store the timed section
// left behind, then the correctness check.
func exercise(w *workload, in *inputs, sv servers, l *loader, seconds int, runDir string) (*measured, error) {
	var before int64
	if w.aggMain {
		var err error
		if before, err = aggWireBytes(sv.target().agg); err != nil {
			return nil, err
		}
	}
	stopSteal := l.trackSteal()
	defer stopSteal()
	cpu0, steal0 := cpuSeconds(), stealSeconds()
	w.drive(l, in, seconds)
	cpu, steal := cpuSeconds()-cpu0, stealSeconds()-steal0
	rss, err := sv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	pullPhase := phaseMain
	if !w.aggMain {
		// The epilogue runs after the timed section, so the section itself
		// stays free of aggregator traffic. The kernel writes back what the
		// section logged before it starts rather than during it.
		if err := flushWALs(runDir); err != nil {
			return nil, err
		}
		pullPhase = phaseEpilogue
		if err := sv.startAgg(); err != nil {
			return nil, err
		}
		l.t.agg = sv.target().agg
		if before, err = aggWireBytes(l.t.agg); err != nil {
			return nil, err
		}
		l.pullRounds(in.rounds, len(in.rounds), 0, phaseEpilogue)
	}
	stopSteal()
	after, err := aggWireBytes(l.t.agg)
	if err != nil {
		return nil, err
	}
	storeStat, err := leafStoreStats(l.t)
	if err != nil {
		return nil, err
	}
	m := &measured{check: verify(l.t, l.track, in.tracked), storeStat: storeStat, errs: l.errs}
	writes := l.selected(phaseMain, kindWrite)
	reads := l.selected(phaseMain, kindRead)
	pulls := l.selected(pullPhase, kindPull)
	m.metrics = map[string]metric{
		"write_items_per_s": l.windowed(writes, "items/s", itemsPerSecond),
		"write_p50_ms":      l.windowed(writes, "ms", latencyPct(50)),
		"write_p99_ms":      l.windowed(writes, "ms", latencyPct(99)),
		"read_p50_ms":       l.windowed(reads, "ms", latencyPct(50)),
		"read_p99_ms":       l.windowed(reads, "ms", latencyPct(99)),
		"pull_p50_ms":       l.windowed(pulls, "ms", latencyPct(50)),
		"pull_p90_ms":       l.windowed(pulls, "ms", latencyPct(90)),
		"pull_bytes":        {Value: float64(after-before) / float64(len(pulls)), Unit: "bytes", Samples: len(pulls)},
		"peak_rss_mb":       {Value: rss, Unit: "MiB"},
	}
	var late []float64
	for _, s := range l.samples {
		if s.phase == phaseMain {
			late = append(late, ms(s.start-s.due))
		}
	}
	m.loadgen = map[string]float64{
		"late_p50_ms": percentile(late, 50), "late_p99_ms": percentile(late, 99),
		"late_samples": float64(len(late)), "cpu_s": cpu, "machine_steal_s": steal,
	}
	m.attempted, m.failed = len(l.samples)+m.check.Queries, m.check.Failures
	for _, s := range l.samples {
		if !s.ok {
			m.failed++
		}
	}
	return m, nil
}

// windows is how many consecutive parts a run's writes, reads and pulls are
// split into. Each part gets its own value, and a metric is the median of
// the values of the parts in which the hypervisor took at most maxSteal of
// the machine's CPU time: on a shared host a part whose CPUs were taken
// away measures the neighbours, not the program, and the median keeps a
// few disturbed parts that slip through from moving the result. When more
// than half the parts exceed maxSteal, the least-disturbed half is used.
const (
	windows  = 10
	maxSteal = 0.02
)

// windowed splits samples, in send order, into windows parts of equal count
// and reports the median of f over the undisturbed parts, beside every
// part's own value and steal share.
func (l *loader) windowed(ss []sample, unit string, f func([]sample) float64) metric {
	type part struct {
		n            int
		value, steal float64
	}
	var parts []part
	m := metric{Unit: unit}
	for w := 0; w < windows; w++ {
		if p := ss[w*len(ss)/windows : (w+1)*len(ss)/windows]; len(p) > 0 {
			parts = append(parts, part{len(p), f(p), l.stealShare(p[0].start, p[len(p)-1].end)})
			m.Parts = append(m.Parts, parts[len(parts)-1].value)
			m.Steal = append(m.Steal, parts[len(parts)-1].steal)
		}
	}
	var kept []part
	for _, p := range parts {
		if p.steal <= maxSteal {
			kept = append(kept, p)
		}
	}
	if len(kept) < (len(parts)+1)/2 {
		sort.SliceStable(parts, func(i, j int) bool { return parts[i].steal < parts[j].steal })
		kept = parts[:(len(parts)+1)/2]
	}
	var vals []float64
	for _, p := range kept {
		vals = append(vals, p.value)
		m.Samples += p.n
	}
	m.Value = median(vals)
	return m
}

// latencyPct is the p-th latency percentile of a part.
func latencyPct(p float64) func([]sample) float64 {
	return func(ss []sample) float64 { return percentile(latenciesMS(ss), p) }
}

// itemsPerSecond is the items acknowledged per second of a part's span.
func itemsPerSecond(ss []sample) float64 {
	items := 0
	for _, s := range ss {
		if s.ok {
			items += len(s.rq.body.values)
		}
	}
	return float64(items) / (ss[len(ss)-1].end - ss[0].start).Seconds()
}

// flushWALs fsyncs every store WAL under runDir.
func flushWALs(runDir string) error {
	paths, err := filepath.Glob(filepath.Join(runDir, "*", "store.wal"))
	if err != nil {
		return err
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return fmt.Errorf("flushing %s: %w", p, err)
		}
	}
	return nil
}

// leafStoreStats sums the leaves' /v1/store/stats counters.
func leafStoreStats(t target) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, leaf := range t.leaves {
		var st map[string]float64
		if err := getJSON("GET", leaf+"/v1/store/stats", &st); err != nil {
			return nil, err
		}
		for k, v := range st {
			sum[k] += v
		}
	}
	return sum, nil
}

// provenance records what produced a result: machine, toolchain, code and
// run parameters.
func provenance(cfg config) map[string]any {
	cpu := ""
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu_model":   cpu,
		"go_version":  runtime.Version(),
		"commit":      gitCommit(cfg.root),
		"source_hash": sourceHash(cfg.root),
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
	}
}

// gitCommit returns the commit of a checkout that is a git work tree, or "".
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return ""
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes the checkout's Go sources and module files, which
// identifies the code measured even where no commit is available.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
