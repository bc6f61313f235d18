package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"quantilelb/internal/encoding"
)

// Crash-safe persistence for the keyed store.
//
// Files under Config.Dir:
//
//   - store.ckpt — one KindStore container payload (the same bytes
//     SnapshotPayload produces), replaced atomically on every Checkpoint:
//     written to store.ckpt.tmp, fsynced, renamed over the old checkpoint,
//     directory fsynced. A reader therefore always sees either the previous
//     complete checkpoint or the new complete checkpoint, never a torn one.
//
//   - store.wal — the live segment of an append-only log of every mutation
//     accepted since the last capture. Each record is length- and
//     checksum-framed:
//
//     u32 bodyLen | u32 fnv1a(body) | body
//     body: u8 op | u32 keyLen | key |
//     op=update:     u32 n | n × f64 values
//     op=weighted:   u32 n | n × f64 values | n × i64 weights
//     op=delete:     (nothing)
//     op=checkpoint: u64 PayloadHash of a container (keyLen is 0)
//
//   - store.wal.<n> — frozen segments: earlier store.wal files, renamed
//     aside by a checkpoint's rotate and deleted once a checkpoint that
//     covers them is published.
//
// A checkpoint holds persistMu (write-locked) only for its capture and its
// rotate: it splices the container, renames store.wal to the next frozen
// segment, and starts a new store.wal whose first record (op=checkpoint)
// names the container's PayloadHash. Writers append and apply under a
// shared persistMu read-lock, so every record in the frozen segments is
// inside the capture and every record in the new segment is outside it.
// The file I/O runs after unlocking: fsync the new segment and the
// directory, write and fsync store.ckpt.tmp, rename it over store.ckpt,
// fsync the directory, delete the frozen segments.
//
// When segments exist, Open hashes store.ckpt and replays, in order, the
// segments from the last one whose first record names that hash; a segment that names nothing
// (today's headerless store.wal, or an empty one) names the checkpoint
// beside it only when it is the oldest segment. So a crash at any step
// replays each acknowledged record exactly once: before the rename the old
// checkpoint is named by the frozen segment, after it the new checkpoint is
// named by store.wal. Replay of a segment stops at the first record whose
// frame is short or whose checksum mismatches (the torn tail of a crash
// mid-append); the live segment is truncated there. A record is appended —
// one write syscall, so it reaches the kernel's page cache and survives
// SIGKILL — before the update is applied in memory.
const (
	checkpointFile = "store.ckpt"
	walFile        = "store.wal"

	walOpUpdate     = 1
	walOpWeighted   = 2
	walOpDelete     = 3
	walOpCheckpoint = 4

	// checkpointBodyLen is the body of an op=checkpoint record: op, a zero
	// key length, and the container hash.
	checkpointBodyLen = 1 + 4 + 8

	// maxWALBody rejects absurd frame lengths during replay so a corrupt
	// length prefix cannot drive a multi-gigabyte allocation. It bounds one
	// record's body: op + key (≤ MaxStoreKeyBytes from the container format)
	// + a batch; batches beyond the budget are split by the writer.
	maxWALBody = 1 << 26 // 64 MiB
)

// walWriter appends framed records to the live WAL segment. mu serializes
// appends (and the offset); Store.persistMu coordinates with Checkpoint.
type walWriter struct {
	mu        sync.Mutex
	f         *os.File
	dir       string
	syncEvery int
	sinceSync int
	fresh     bool // f's directory entry may not be durable yet
	scratch   []byte
}

// segPath names frozen segment n.
func segPath(dir string, n uint64) string {
	return filepath.Join(dir, walFile+"."+strconv.FormatUint(n, 10))
}

// frozenSegments lists the numbers of the frozen segments in dir, ascending.
func frozenSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if rest, ok := strings.CutPrefix(e.Name(), walFile+"."); ok {
			if n, err := strconv.ParseUint(rest, 10, 64); err == nil {
				out = append(out, n)
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// segmentName reads a segment's first record and reports the container hash
// it names; named is false when the first record is not an intact
// op=checkpoint record (a headerless or empty segment).
func segmentName(path string) (hash uint64, named bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	var frame [8 + checkpointBodyLen]byte
	if _, err := io.ReadFull(f, frame[:]); err != nil {
		return 0, false, nil
	}
	body := frame[8:]
	if binary.LittleEndian.Uint32(frame[0:4]) != checkpointBodyLen ||
		binary.LittleEndian.Uint32(frame[4:8]) != walChecksum(body) ||
		body[0] != walOpCheckpoint {
		return 0, false, nil
	}
	return binary.LittleEndian.Uint64(body[5:]), true, nil
}

// Open builds a Store like New and, when cfg.Dir is non-empty, makes it
// persistent: it creates the directory, loads store.ckpt, and replays the
// WAL segments from the last one that names that checkpoint's hash
// (tolerating a torn tail). Without WAL files there is nothing to replay; if
// segments exist but none names the checkpoint, Open returns an error rather
// than guess. Unless cfg.DisableWAL, the store then logs every subsequent
// mutation to store.wal. The returned store answers queries over everything
// the dead process had acked, each update counted once.
func Open(cfg Config) (*Store, error) {
	s := New(cfg)
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", cfg.Dir, err)
	}
	s.dir = cfg.Dir
	ckptPath := filepath.Join(cfg.Dir, checkpointFile)
	payload, err := os.ReadFile(ckptPath)
	haveCkpt := err == nil
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: reading checkpoint: %w", err)
	}
	if len(payload) > 0 {
		if _, err := s.MergePayload(payload); err != nil {
			return nil, fmt.Errorf("store: replaying checkpoint %s: %w", ckptPath, err)
		}
	}
	if s.frozen, err = frozenSegments(cfg.Dir); err != nil {
		return nil, fmt.Errorf("store: listing WAL segments: %w", err)
	}
	s.nextSeg = 1
	if n := len(s.frozen); n > 0 {
		s.nextSeg = s.frozen[n-1] + 1
	}

	// The chain: frozen segments in order, then store.wal when it exists.
	walPath := filepath.Join(cfg.Dir, walFile)
	var chain []string
	for _, n := range s.frozen {
		chain = append(chain, segPath(cfg.Dir, n))
	}
	if _, err := os.Stat(walPath); err == nil {
		chain = append(chain, walPath)
	}
	start := 0
	if len(chain) > 0 {
		start = -1
		ckptHash := encoding.PayloadHash(payload)
		for i, path := range chain {
			hash, named, err := segmentName(path)
			if err != nil {
				return nil, fmt.Errorf("store: reading WAL segment: %w", err)
			}
			if (named && haveCkpt && hash == ckptHash) || (!named && i == 0) {
				start = i
			}
		}
		if start < 0 {
			return nil, fmt.Errorf("store: no WAL segment in %s names checkpoint %016x", cfg.Dir, ckptHash)
		}
	}

	var replayed int64
	for i := start; i < len(chain); i++ {
		if chain[i] == walPath {
			break // the live segment is replayed below, where it is kept open
		}
		f, err := os.Open(chain[i])
		if err != nil {
			return nil, fmt.Errorf("store: opening WAL segment: %w", err)
		}
		n, _, err := s.replayWAL(f)
		f.Close()
		replayed += n
		if err != nil {
			return nil, fmt.Errorf("store: replaying WAL segment %s: %w", chain[i], err)
		}
	}
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	n, goodEnd, err := s.replayWAL(f)
	replayed += n
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: replaying WAL: %w", err)
	}
	s.walReplayed.Store(replayed)
	if fi, statErr := f.Stat(); statErr == nil && fi.Size() > goodEnd {
		// Torn tail from a crash mid-append: drop it so the next replay does
		// not stop early and so new records frame cleanly.
		if err := f.Truncate(goodEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seeking WAL: %w", err)
	}
	if cfg.DisableWAL {
		f.Close()
	} else {
		s.wal = &walWriter{f: f, dir: cfg.Dir, syncEvery: cfg.WALSyncEvery}
	}
	return s, nil
}

// replayWAL applies every intact record of one segment from the start of f,
// skipping the op=checkpoint record that heads it, and returns the number of
// records applied and the file offset just past the last intact record.
// Framing damage (short frame, checksum mismatch, oversized length) ends the
// replay without error — that is the expected shape of a crash — while
// body-level damage inside an intact frame is a real error.
func (s *Store) replayWAL(f *os.File) (replayed int64, goodEnd int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	header := make([]byte, 8)
	var body []byte
	for {
		if _, err := io.ReadFull(f, header); err != nil {
			return replayed, goodEnd, nil // clean EOF or torn header
		}
		bodyLen := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if bodyLen == 0 || bodyLen > maxWALBody {
			return replayed, goodEnd, nil // corrupt length prefix
		}
		if cap(body) < int(bodyLen) {
			body = make([]byte, bodyLen)
		}
		body = body[:bodyLen]
		if _, err := io.ReadFull(f, body); err != nil {
			return replayed, goodEnd, nil // torn body
		}
		if walChecksum(body) != sum {
			return replayed, goodEnd, nil // bit rot or torn overwrite
		}
		if goodEnd == 0 && body[0] == walOpCheckpoint {
			goodEnd += int64(8 + bodyLen) // the segment's name, not a mutation
			continue
		}
		if err := s.applyWALRecord(body); err != nil {
			return replayed, goodEnd, err
		}
		replayed++
		goodEnd += int64(8 + bodyLen)
	}
}

// applyWALRecord decodes one verified record body and applies it through the
// non-logging ingestion paths.
func (s *Store) applyWALRecord(body []byte) error {
	if len(body) < 5 {
		return errors.New("record body too short")
	}
	op := body[0]
	keyLen := binary.LittleEndian.Uint32(body[1:5])
	rest := body[5:]
	if uint64(keyLen) > uint64(len(rest)) {
		return errors.New("record key overruns body")
	}
	key := string(rest[:keyLen])
	rest = rest[keyLen:]
	switch op {
	case walOpDelete:
		if len(rest) != 0 {
			return errors.New("delete record has trailing bytes")
		}
		s.deleteNoLog(key)
		return nil
	case walOpUpdate, walOpWeighted:
		if len(rest) < 4 {
			return errors.New("record value count missing")
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		rest = rest[4:]
		per := uint64(8)
		if op == walOpWeighted {
			per = 16
		}
		if uint64(n)*per != uint64(len(rest)) {
			return errors.New("record values overrun body")
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
		}
		if op == walOpUpdate {
			s.updateBatchNoLog(key, xs)
			return nil
		}
		ws := make([]int64, n)
		var total int64
		base := int(n) * 8
		for i := range ws {
			ws[i] = int64(binary.LittleEndian.Uint64(rest[base+i*8:]))
			if ws[i] <= 0 {
				return errors.New("record has non-positive weight")
			}
			total += ws[i]
		}
		return s.weightedUpdateBatchNoLog(key, xs, ws, total)
	case walOpCheckpoint:
		return errors.New("checkpoint record inside a WAL segment")
	default:
		return fmt.Errorf("unknown record op %d", op)
	}
}

// walChecksum is the frame checksum of a record body.
func walChecksum(body []byte) uint32 {
	h := fnv.New32a()
	h.Write(body)
	return h.Sum32()
}

// appendFrame appends body to buf as one framed record.
func appendFrame(buf, body []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, walChecksum(body))
	return append(buf, body...)
}

// append frames and writes one record body in a single write syscall. WAL
// write failures are deliberately non-fatal to ingestion (availability over
// durability): the record count simply stops advancing, which monitoring
// sees as WALRecords flatlining against Updates. When it fsyncs the first
// record of a fresh segment, it fsyncs the directory as well, so an fsynced
// record never hangs on a directory entry that a power loss could drop.
func (w *walWriter) append(s *Store, body []byte) {
	w.mu.Lock()
	buf := appendFrame(w.scratch[:0], body)
	w.scratch = buf[:0]
	if _, err := w.f.Write(buf); err == nil {
		s.walRecords.Add(1)
		if w.syncEvery > 0 {
			w.sinceSync++
			if w.sinceSync >= w.syncEvery {
				w.sinceSync = 0
				if w.f.Sync() == nil && w.fresh && syncDir(w.dir) == nil {
					w.fresh = false
				}
			}
		}
	}
	w.mu.Unlock()
}

// appendUpdate logs an unweighted (ws == nil) or weighted batch for key.
func (w *walWriter) appendUpdate(s *Store, key string, xs []float64, ws []int64) {
	op := byte(walOpUpdate)
	size := 5 + len(key) + 4 + len(xs)*8
	if ws != nil {
		op = walOpWeighted
		size += len(ws) * 8
	}
	body := make([]byte, 0, size)
	body = append(body, op)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(key)))
	body = append(body, key...)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(xs)))
	for _, x := range xs {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(x))
	}
	for _, wt := range ws {
		body = binary.LittleEndian.AppendUint64(body, uint64(wt))
	}
	w.append(s, body)
}

// appendDelete logs a key deletion.
func (w *walWriter) appendDelete(s *Store, key string) {
	body := make([]byte, 0, 5+len(key))
	body = append(body, walOpDelete)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(key)))
	body = append(body, key...)
	w.append(s, body)
}

// syncDir fsyncs a directory, making renames, creates and deletes in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Checkpoint persists the store's full state to Dir/store.ckpt and retires
// the WAL records it covers. Writers wait only for its capture and rotate:
// under the persistMu write lock it splices the container (SnapshotPayload)
// and rotates the WAL — store.wal becomes a frozen segment and a new
// store.wal begins with a record naming the container's hash. The file I/O
// follows with writers running: fsync the new segment and the directory,
// write and fsync store.ckpt.tmp, rename it over store.ckpt, fsync the
// directory, delete the frozen segments. A crash at any point reopens with
// every acknowledged update counted once (see Open). Every I/O error is
// returned; a checkpoint that fails after its rotate leaves its frozen
// segment for the next checkpoint to retire. Checkpoints serialize with
// each other and with Close. Returns an error on a non-persistent or
// closed store.
func (s *Store) Checkpoint() error {
	if s.dir == "" {
		return errors.New("store: Checkpoint on a store without persistence (use Open with Config.Dir)")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.closed {
		return errors.New("store: Checkpoint after Close")
	}
	return s.checkpointLocked()
}

// checkpointLocked runs one checkpoint. Caller holds ckptMu.
func (s *Store) checkpointLocked() error {
	// snapMu before persistMu: a snapshot the HTTP tier has in flight
	// delays this checkpoint, not the writers.
	s.snapMu.Lock()
	s.persistMu.Lock()
	payload, _, err := s.snapshotLocked()
	var seg *os.File
	if err == nil {
		seg, err = s.rotateLocked(encoding.PayloadHash(payload))
	}
	s.persistMu.Unlock()
	s.snapMu.Unlock()
	if err != nil {
		return fmt.Errorf("store: checkpoint capture: %w", err)
	}
	if err := s.publish(payload, seg); err != nil {
		return err
	}
	s.checkpoints.Add(1)
	s.lastCheckpoint.Store(s.now().UnixNano())
	return nil
}

// rotateLocked freezes store.wal as the next numbered segment and starts a
// new store.wal whose first record names hash, switching the writer to it.
// On error the writer keeps its current file, which stays in the chain
// either as store.wal or as the frozen segment. Caller holds ckptMu and the
// persistMu write lock.
func (s *Store) rotateLocked(hash uint64) (*os.File, error) {
	walPath := filepath.Join(s.dir, walFile)
	if err := os.Rename(walPath, segPath(s.dir, s.nextSeg)); err == nil {
		s.frozen = append(s.frozen, s.nextSeg)
		s.nextSeg++
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("freezing WAL segment: %w", err)
	}
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("starting WAL segment: %w", err)
	}
	body := make([]byte, 0, checkpointBodyLen)
	body = append(body, walOpCheckpoint)
	body = binary.LittleEndian.AppendUint32(body, 0)
	body = binary.LittleEndian.AppendUint64(body, hash)
	if _, err := f.Write(appendFrame(nil, body)); err != nil {
		f.Close()
		return nil, fmt.Errorf("naming WAL segment: %w", err)
	}
	if w := s.wal; w != nil {
		w.mu.Lock()
		old := w.f
		w.f, w.sinceSync, w.fresh = f, 0, true
		w.mu.Unlock()
		// Every write to the frozen segment has returned; closing it can
		// lose none of them.
		_ = old.Close()
	}
	return f, nil
}

// stepDone reports a checkpoint step boundary to the test seam.
func (s *Store) stepDone(step string) {
	if s.step != nil {
		s.step(step)
	}
}

// publish makes a captured container the checkpoint after the rotate that
// named it in seg, then deletes the frozen segments it covers. Caller holds
// ckptMu but not persistMu.
func (s *Store) publish(payload []byte, seg *os.File) error {
	s.stepDone("rotated")
	err := seg.Sync()
	if s.wal == nil { // nothing appends to it
		if cerr := seg.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("store: syncing WAL segment: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: syncing %s: %w", s.dir, err)
	}
	s.stepDone("segment-synced")
	ckptPath := filepath.Join(s.dir, checkpointFile)
	tmpPath := ckptPath + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: checkpoint temp: %w", err)
	}
	_, err = tmp.Write(payload)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: writing checkpoint: %w", err)
	}
	s.stepDone("temp-synced")
	if err := os.Rename(tmpPath, ckptPath); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: publishing checkpoint: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: syncing %s: %w", s.dir, err)
	}
	s.stepDone("published")
	// store.wal now names the published checkpoint, so every frozen segment
	// is redundant; one that fails to go is retried by the next checkpoint.
	var errs []error
	kept := s.frozen[:0]
	for _, n := range s.frozen {
		if err := os.Remove(segPath(s.dir, n)); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, err)
			kept = append(kept, n)
			continue
		}
		s.stepDone("deleted")
	}
	s.frozen = kept
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("store: deleting WAL segments: %w", err)
	}
	return nil
}

// Close checkpoints a persistent store one last time and closes the WAL; it
// is a no-op on a non-persistent store. It waits for a checkpoint in flight,
// and a later Checkpoint or Close returns an error. The store must not be
// used after Close.
func (s *Store) Close() error {
	if s.dir == "" {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.closed {
		return errors.New("store: Close after Close")
	}
	s.closed = true
	err := s.checkpointLocked()
	if w := s.wal; w != nil {
		s.persistMu.Lock()
		w.mu.Lock()
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.mu.Unlock()
		s.persistMu.Unlock()
	}
	return err
}

// Persistent reports whether the store was built with Open and a Config.Dir
// (and therefore supports Checkpoint/Close).
func (s *Store) Persistent() bool { return s.dir != "" }
