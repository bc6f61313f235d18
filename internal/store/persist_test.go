package store

// Crash-safe persistence tests: checkpoint/WAL round trips, torn-tail
// tolerance, and the kill-and-reopen recovery contract — a child process is
// SIGKILLed mid-ingest and the reopened store must hold every update the
// child had acked (the WAL append precedes the in-memory apply, so an acked
// update is always on disk).

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"quantilelb/internal/encoding"
)

func TestOpenWithoutDirIsEphemeral(t *testing.T) {
	s, err := Open(Config{Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if s.Persistent() {
		t.Fatal("store without Dir reports persistent")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a non-persistent store should error")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close on a non-persistent store: %v", err)
	}
}

func TestCheckpointReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Eps: 0.02, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		s.Update("a", float64(i))
	}
	s.UpdateBatch("b", []float64{1, 2, 3})
	if err := s.WeightedUpdate("c", 7, 41); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st := s.Stats()
	if st.Checkpoints != 1 || st.LastCheckpointUnix == 0 {
		t.Fatalf("checkpoint stats = %+v", st)
	}
	// The checkpoint retires the WAL records it covers: store.wal holds only
	// the record naming the new checkpoint's hash, and no frozen segment is
	// left.
	if ops := walOps(t, filepath.Join(dir, walFile)); len(ops) != 1 || ops[0] != walOpCheckpoint {
		t.Fatalf("WAL after checkpoint: ops %v, want only the checkpoint record", ops)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if hash, named, err := segmentName(filepath.Join(dir, walFile)); err != nil || !named || hash != encoding.PayloadHash(ckpt) {
		t.Fatalf("store.wal names %016x (named %v, err %v), want %016x", hash, named, err, encoding.PayloadHash(ckpt))
	}
	if segs, err := frozenSegments(dir); err != nil || len(segs) != 0 {
		t.Fatalf("frozen segments after checkpoint: %v (err %v)", segs, err)
	}

	r, err := Open(Config{Eps: 0.02, Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if r.Count("a") != 500 || r.Count("b") != 3 || r.Count("c") != 41 {
		t.Fatalf("reopened counts = %d/%d/%d", r.Count("a"), r.Count("b"), r.Count("c"))
	}
	if v, ok := r.Query("a", 0.5); !ok || v < 0 || v > 499 {
		t.Fatalf("reopened query = %v, %v", v, ok)
	}
}

func TestWALReplaysUncheckpointedUpdates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Eps: 0.02, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Half the state checkpointed, half only in the WAL, plus a logged
	// delete — the crash shape Open must reassemble.
	s.UpdateBatch("ckpt", []float64{1, 2, 3, 4})
	s.Update("victim", 9)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.UpdateBatch("wal-only", []float64{5, 6})
	s.Update("ckpt", 5)
	if err := s.WeightedUpdateBatch("wal-weighted", []float64{1, 2}, []int64{10, 20}); err != nil {
		t.Fatal(err)
	}
	s.Delete("victim")
	// No Close, no second Checkpoint: the reopen sees ckpt + WAL tail.

	r, err := Open(Config{Eps: 0.02, Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if r.Count("ckpt") != 5 || r.Count("wal-only") != 2 || r.Count("wal-weighted") != 30 {
		t.Fatalf("replayed counts = %d/%d/%d", r.Count("ckpt"), r.Count("wal-only"), r.Count("wal-weighted"))
	}
	if r.Has("victim") {
		t.Fatal("logged delete not replayed")
	}
	if got := r.Stats().WALReplayed; got != 4 {
		t.Fatalf("WALReplayed = %d, want 4", got)
	}
}

func TestWALToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Eps: 0.02, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Update("k", 1)
	s.Update("k", 2)
	// Simulate a crash mid-append: garbage half-record at the tail.
	walPath := filepath.Join(dir, walFile)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(Config{Eps: 0.02, Dir: dir})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if r.Count("k") != 2 {
		t.Fatalf("replayed count = %d, want 2", r.Count("k"))
	}
	// The torn bytes were truncated away, so new appends frame cleanly and a
	// third open sees everything.
	r.Update("k", 3)
	r2, err := Open(Config{Eps: 0.02, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Count("k") != 3 {
		t.Fatalf("count after truncate-and-append = %d, want 3", r2.Count("k"))
	}
}

func TestDisableWALOnlyPersistsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Eps: 0.02, Dir: dir, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Update("k", 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Update("k", 2) // not logged, not checkpointed: lost by design

	r, err := Open(Config{Eps: 0.02, Dir: dir, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Count("k") != 1 {
		t.Fatalf("count = %d, want 1 (checkpointed state only)", r.Count("k"))
	}
	if r.Stats().WALRecords != 0 {
		t.Fatalf("WALRecords = %d with WAL disabled", r.Stats().WALRecords)
	}
}

// The kill-and-reopen contract. The helper (run as a child process) ingests
// one update per key per round and appends the round number to an ack file
// after the store has acked the whole round. The parent SIGKILLs it
// mid-ingest, reopens the store directory, and requires every key to hold at
// least as many updates as the last fully-acked round — i.e. zero lost acked
// updates on surviving keys — and at most one more, the round in flight: no
// update is replayed twice.
const (
	killHelperEnvFlag = "STORE_KILL_HELPER"
	killHelperEnvDir  = "STORE_KILL_DIR"
	killHelperKeys    = 48
	killHelperAckFile = "acked"
)

func killHelperKey(i int) string { return fmt.Sprintf("key-%02d", i) }

func TestHelperKillIngest(t *testing.T) {
	if os.Getenv(killHelperEnvFlag) != "1" {
		t.Skip("helper process for TestKillAndReopenRecovery")
	}
	dir := os.Getenv(killHelperEnvDir)
	s, err := Open(Config{Eps: 0.02, Dir: dir, PromoteItems: 32})
	if err != nil {
		t.Fatalf("helper open: %v", err)
	}
	ack, err := os.OpenFile(filepath.Join(dir, killHelperAckFile), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("helper ack file: %v", err)
	}
	for round := 1; ; round++ {
		for i := 0; i < killHelperKeys; i++ {
			s.Update(killHelperKey(i), float64(round*killHelperKeys+i))
		}
		fmt.Fprintf(ack, "%d\n", round)
		if round%64 == 0 {
			// Exercise the checkpoint/WAL interplay while being killed.
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("helper checkpoint: %v", err)
			}
		}
	}
}

func lastAckedRound(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	last := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if n, err := strconv.Atoi(strings.TrimSpace(sc.Text())); err == nil {
			last = n
		}
	}
	return last
}

func TestKillAndReopenRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperKillIngest$")
	cmd.Env = append(os.Environ(), killHelperEnvFlag+"=1", killHelperEnvDir+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting helper: %v", err)
	}
	// Let it ingest long enough to cross promotion thresholds and at least
	// one checkpoint, then kill it mid-flight — SIGKILL, no cleanup.
	ackPath := filepath.Join(dir, killHelperAckFile)
	deadline := time.Now().Add(20 * time.Second)
	for lastAckedRound(ackPath) < 130 {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("helper too slow: only %d rounds acked", lastAckedRound(ackPath))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("killing helper: %v", err)
	}
	cmd.Wait() // reaps; exit status is expectedly non-zero

	acked := lastAckedRound(ackPath)
	if acked < 130 {
		t.Fatalf("acked rounds = %d, want >= 130", acked)
	}
	r, err := Open(Config{Eps: 0.02, Dir: dir, PromoteItems: 32})
	if err != nil {
		t.Fatalf("reopen after SIGKILL: %v", err)
	}
	st := r.Stats()
	if st.Keys != killHelperKeys {
		t.Fatalf("reopened keys = %d, want %d", st.Keys, killHelperKeys)
	}
	for i := 0; i < killHelperKeys; i++ {
		k := killHelperKey(i)
		if got := r.Count(k); got < acked {
			t.Errorf("key %q lost acked updates: count %d < acked rounds %d", k, got, acked)
		} else if got > acked+1 {
			// Each round updates every key once; at most one round was
			// logged but not yet acked when the kill landed.
			t.Errorf("key %q replayed updates twice: count %d > acked rounds %d + 1", k, got, acked)
		}
		if _, ok := r.Query(k, 0.5); !ok {
			t.Errorf("key %q not queryable after recovery", k)
		}
	}
	// The rounds crossed the promotion threshold, so recovery rebuilt
	// promoted sketches, not just buffers.
	if st.PromotedKeys != killHelperKeys {
		t.Errorf("PromotedKeys = %d, want %d", st.PromotedKeys, killHelperKeys)
	}
	// And the recovered store keeps ingesting and persisting.
	r.Update(killHelperKey(0), 1)
	if err := r.Checkpoint(); err != nil {
		t.Errorf("checkpoint after recovery: %v", err)
	}
}
