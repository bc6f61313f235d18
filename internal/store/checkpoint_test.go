package store

// Checkpoint protocol tests: exactly-once recovery at every step boundary of
// a checkpoint (including a failed one and the first one after a legacy
// directory), file I/O outside the writers' lock, and the write pause a
// checkpoint inflicts.

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"
)

// copyDir copies the regular files of src into a fresh temporary directory:
// the state a process crash at this instant would leave on disk.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// walOps lists the ops of the intact records of one WAL segment.
func walOps(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ops []byte
	for len(b) >= 8 {
		n := int(binary.LittleEndian.Uint32(b))
		if n == 0 || 8+n > len(b) || walChecksum(b[8:8+n]) != binary.LittleEndian.Uint32(b[4:]) {
			break
		}
		ops = append(ops, b[8])
		b = b[8+n:]
	}
	return ops
}

// crashPoint is a copy of the store directory taken at one checkpoint step
// boundary, with the per-key counts acknowledged before the copy.
type crashPoint struct {
	step string
	dir  string
	want map[string]int
}

// ackedWriter applies updates and deletes to a store and tracks the count
// every key must reopen with.
type ackedWriter struct {
	s     *Store
	acked map[string]int
	next  float64
}

func (w *ackedWriter) round(keys ...string) {
	for _, k := range keys {
		w.next++
		if int(w.next)%3 == 0 {
			w.s.UpdateBatch(k, []float64{w.next, -w.next})
			w.acked[k] += 2
		} else {
			w.s.Update(k, w.next)
			w.acked[k]++
		}
	}
}

func (w *ackedWriter) delete(k string) {
	w.s.Delete(k)
	delete(w.acked, k)
}

// recordCrashPoints makes every checkpoint step of s first ack one more
// round of updates (so acknowledged updates land after the rotate too) and
// then copy the directory.
func recordCrashPoints(t *testing.T, w *ackedWriter, dir string, keys []string, points *[]crashPoint) {
	w.s.step = func(step string) {
		w.round(keys...)
		want := make(map[string]int, len(w.acked))
		for k, n := range w.acked {
			want[k] = n
		}
		*points = append(*points, crashPoint{step: step, dir: copyDir(t, dir), want: want})
	}
}

// checkCrashPoints reopens every copy and requires each key to count
// exactly its acknowledged updates.
func checkCrashPoints(t *testing.T, cfg Config, points []crashPoint) {
	t.Helper()
	for i, p := range points {
		cfg.Dir = p.dir
		r, err := Open(cfg)
		if err != nil {
			t.Fatalf("crash point %d (%s): reopen: %v", i, p.step, err)
		}
		if got := r.Len(); got != len(p.want) {
			t.Errorf("crash point %d (%s): %d keys, want %d", i, p.step, got, len(p.want))
		}
		for k, n := range p.want {
			if got := r.Count(k); got != n {
				t.Errorf("crash point %d (%s): key %q counts %d, want exactly %d", i, p.step, k, got, n)
			}
		}
	}
}

func TestCheckpointCrashPoints(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Eps: 0.02, Dir: dir, PromoteItems: 16}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"alpha", "beta", "gamma", "delta"}
	w := &ackedWriter{s: s, acked: map[string]int{}}
	for i := 0; i < 30; i++ {
		w.round(keys...)
	}
	var points []crashPoint
	recordCrashPoints(t, w, dir, keys, &points)

	// A first checkpoint succeeds: one frozen segment, retired at the end.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w.delete("gamma")
	w.round(keys...) // gamma is recreated from empty

	// A checkpoint that fails after its rotate (the temp path is blocked by
	// a directory) leaves its frozen segment behind.
	tmp := filepath.Join(dir, checkpointFile+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint over a blocked temp path succeeded")
	}
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	w.round(keys...)

	// The next one freezes a second segment and must retire both.
	var frozenAtPublish int
	record := w.s.step
	w.s.step = func(step string) {
		if step == "published" {
			segs, err := frozenSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			frozenAtPublish = len(segs)
		}
		record(step)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if frozenAtPublish != 2 {
		t.Fatalf("frozen segments at publish = %d, want 2", frozenAtPublish)
	}
	if segs, _ := frozenSegments(dir); len(segs) != 0 {
		t.Fatalf("frozen segments after checkpoint = %v, want none", segs)
	}

	steps := map[string]int{}
	for _, p := range points {
		steps[p.step]++
	}
	for _, step := range []string{"rotated", "segment-synced", "temp-synced", "published", "deleted"} {
		if steps[step] == 0 {
			t.Fatalf("no crash point at step %q (have %v)", step, steps)
		}
	}
	checkCrashPoints(t, cfg, points)

	// The live directory reopens exactly too.
	checkCrashPoints(t, cfg, []crashPoint{{step: "live", dir: copyDir(t, dir), want: w.acked}})
}

// writeLegacyDir lays out a directory the way the store wrote it before WAL
// segments were named: store.ckpt plus a headerless store.wal.
func writeLegacyDir(t *testing.T, dir string, w *ackedWriter, keys []string) {
	t.Helper()
	for i := 0; i < 20; i++ {
		w.round(keys...)
	}
	payload, _, err := w.s.SnapshotPayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointFile), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	w.s.wal = &walWriter{f: f}
	for i := 0; i < 7; i++ {
		w.round(keys...)
	}
	w.delete(keys[0])
	w.round(keys...)
	f.Close()
}

func TestOpenLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"a", "b", "c"}
	w := &ackedWriter{s: New(Config{Eps: 0.02, PromoteItems: 16}), acked: map[string]int{}}
	writeLegacyDir(t, dir, w, keys)
	if ops := walOps(t, filepath.Join(dir, walFile)); len(ops) == 0 || ops[0] == walOpCheckpoint {
		t.Fatalf("legacy WAL ops = %v, want headerless records", ops)
	}

	cfg := Config{Eps: 0.02, Dir: dir, PromoteItems: 16}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCrashPoints(t, cfg, []crashPoint{{step: "open", dir: copyDir(t, dir), want: w.acked}})
	w.s = s
	for k, n := range w.acked {
		if got := s.Count(k); got != n {
			t.Fatalf("legacy reopen: key %q counts %d, want %d", k, got, n)
		}
	}

	// The first checkpoint after it stays exact at every crash point.
	var points []crashPoint
	recordCrashPoints(t, w, dir, keys, &points)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(points) < 5 {
		t.Fatalf("only %d crash points", len(points))
	}
	checkCrashPoints(t, cfg, points)

	// A legacy directory whose WAL a checkpoint truncated to nothing opens
	// as its checkpoint alone.
	empty := copyDir(t, dir)
	if err := os.WriteFile(filepath.Join(empty, walFile), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	payload, err := os.ReadFile(filepath.Join(empty, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	want := New(Config{})
	if _, err := want.MergePayload(payload); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, k := range want.Keys() {
		counts[k] = want.Count(k)
	}
	checkCrashPoints(t, cfg, []crashPoint{{step: "empty-wal", dir: empty, want: counts}})
}

func TestOpenRefusesUnnamedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Update("k", 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Update("k", 2)
	// A checkpoint that no segment names (here: one from another store)
	// must not have this store's WAL replayed onto it.
	other := New(Config{})
	other.Update("x", 1)
	payload, _, err := other.SnapshotPayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointFile), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open replayed a WAL onto a checkpoint it does not name")
	}
	// Without any WAL file there is nothing to replay.
	if err := os.Remove(filepath.Join(dir, walFile)); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if r.Count("x") != 1 || r.Has("k") {
		t.Fatalf("reopened keys = %v", r.Keys())
	}
}

func TestCheckpointIOOutsideLock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Eps: 0.02, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Update("k", 1)
	s.Update("gone", 1)
	held, release := make(chan struct{}), make(chan struct{})
	s.step = func(step string) {
		if step == "rotated" {
			close(held)
			<-release
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.Checkpoint() }()
	<-held
	// The checkpoint now sits after its unlock and before any fsync: an
	// Update and a Delete must complete meanwhile.
	wrote := make(chan struct{})
	go func() {
		s.Update("k", 2)
		s.Delete("gone")
		close(wrote)
	}()
	select {
	case <-wrote:
	case <-time.After(10 * time.Second):
		t.Fatal("writers blocked behind the checkpoint's file I/O")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Eps: 0.02, Dir: copyDir(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Count("k") != 2 || r.Has("gone") {
		t.Fatalf("reopened: k counts %d, gone present %v", r.Count("k"), r.Has("gone"))
	}
}

func TestCheckpointAfterClose(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.Update("k", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint after Close succeeded")
	}
	if err := s.Close(); err == nil {
		t.Fatal("second Close succeeded")
	}
}

// serveMixedStore builds the serve-mixed benchmark's store in dir (empty for
// an in-memory store): 8,000 keys where key k holds 8 + 20000/(k+1) values.
// write performs one small zipf-keyed UpdateBatch, as the benchmark's
// writers do.
func serveMixedStore(b *testing.B, dir string) (s *Store, write func()) {
	const keys = 8000
	s, err := Open(Config{Eps: 0.01, Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, keys)
	rng := rand.New(rand.NewSource(1))
	for k := range names {
		names[k] = "key-" + strconv.Itoa(k)
		xs := make([]float64, 8+20000/(k+1))
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		s.UpdateBatch(names[k], xs)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(2)), 1.1, 1, keys-1)
	return s, func() {
		s.UpdateBatch(names[zipf.Uint64()], []float64{rng.Float64() * 1000, rng.Float64() * 1000})
	}
}

// BenchmarkCheckpointWritePause measures what a checkpoint costs the
// writers, in the serve-mixed shape (serveMixedStore) with 150 small writes
// between checkpoints. During each checkpoint a writer goroutine, pausing
// 50 µs between writes, records its longest UpdateBatch; the reported
// pause-ms is the median of those maxima.
func BenchmarkCheckpointWritePause(b *testing.B) {
	s, write := serveMixedStore(b, b.TempDir())
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	pauses := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 150; j++ {
			write()
		}
		stop, longest := make(chan struct{}), make(chan time.Duration)
		go func() {
			var worst time.Duration
			for {
				select {
				case <-stop:
					longest <- worst
					return
				default:
				}
				t0 := time.Now()
				write()
				worst = max(worst, time.Since(t0))
				time.Sleep(50 * time.Microsecond)
			}
		}()
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		close(stop)
		pauses = append(pauses, float64((<-longest).Microseconds())/1000)
	}
	b.StopTimer()
	sort.Float64s(pauses)
	b.ReportMetric(pauses[len(pauses)/2], "pause-ms")
}
