// Package encoding provides compact binary serialization for the float64
// quantile summaries, so sketches can be shipped between workers and a
// coordinator (the distributed aggregation setting of Section 1 of the paper
// and the "mergeable summaries" line of work it cites) or checkpointed to
// disk. It covers all ten summary families: GK, KLL, MRL, the reservoir,
// the sliding window, the multi-level MLQ summary, the relative-error REQ
// summary, the exact buffer of cold store keys, the biased summary, and the
// randomized Felber–Ostrovsky summary. Every family but the sliding window
// merges, so a coordinator can round-trip and merge whichever family its
// workers run. The generic Encode/Decode pair and the merge helpers dispatch
// through one table with a row per family; per-kind functions remain for
// callers that know what they hold.
//
// The format is versioned, little-endian, and self-describing enough to
// reject foreign payloads: a 4-byte magic, a format version, a summary kind,
// followed by kind-specific fields (the full wire format is documented in
// DESIGN.md). Only the information needed to continue answering queries (and
// merging) is serialized; instrumentation counters are not.
package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"quantilelb/internal/biased"
	"quantilelb/internal/exact"
	"quantilelb/internal/fo"
	"quantilelb/internal/gk"
	"quantilelb/internal/kll"
	"quantilelb/internal/mlq"
	"quantilelb/internal/mrl"
	"quantilelb/internal/order"
	"quantilelb/internal/req"
	"quantilelb/internal/sampling"
	"quantilelb/internal/window"
)

// Magic identifies serialized summaries from this package.
const Magic = uint32(0x51534d31) // "QSM1"

// Version is the current format version. Version 2 added the per-tuple run
// weight to the GK record (weighted-input support); payloads written by
// version 1 are rejected rather than silently misread.
const Version = uint16(2)

// Kind identifies the summary type inside a payload.
type Kind uint16

// Supported kinds.
const (
	KindGK        Kind = 1
	KindKLL       Kind = 2
	KindMRL       Kind = 3
	KindReservoir Kind = 4
	KindWindow    Kind = 5
	KindStore     Kind = 6
	KindMLQ       Kind = 7
	KindREQ       Kind = 8
	KindDelta     Kind = 9
	KindExact     Kind = 10
	KindBiased    Kind = 11
	KindFO        Kind = 12
)

// family is one summary family's row in the dispatch table behind
// Kind.String, Encode, Decode, CheckMergeable and MergeAny.
type family struct {
	kind Kind
	name string
	ops  familyOps
}

// familyOps is a family's typed codec and merge rule, taking values of type
// any; codec[S] implements it for the family's concrete summary type S.
type familyOps interface {
	holds(s any) bool
	merges() bool
	encode(s any) ([]byte, error)
	decode(payload []byte) (any, error)
	check(dst, src any) error
	merge(dst, src any) error
}

// codec holds one family's typed functions.
type codec[S interface{ Count() int }] struct {
	enc func(S) ([]byte, error)
	dec func([]byte) (S, error)
	// mergeFn is nil for a family with no merge operation.
	mergeFn func(dst, src S) error
	// params, when set, rejects a src whose structural parameter differs
	// from dst's. An empty src merges regardless, as the Merge methods allow.
	params func(dst, src S) error
}

func (c codec[S]) holds(s any) bool             { _, ok := s.(S); return ok }
func (c codec[S]) merges() bool                 { return c.mergeFn != nil }
func (c codec[S]) encode(s any) ([]byte, error) { return c.enc(s.(S)) }
func (c codec[S]) merge(dst, src any) error     { return c.mergeFn(dst.(S), src.(S)) }

func (c codec[S]) decode(payload []byte) (any, error) {
	s, err := c.dec(payload)
	if err != nil {
		// An untyped nil: S's typed nil pointer would make the any non-nil.
		return nil, err
	}
	return s, nil
}

func (c codec[S]) check(dst, src any) error {
	if c.params == nil || src.(S).Count() == 0 {
		return nil
	}
	return c.params(dst.(S), src.(S))
}

// mismatch reports a structural parameter that differs between two sides of
// a merge.
func mismatch(param string, dst, src int) error {
	if dst == src {
		return nil
	}
	return fmt.Errorf("%w: %s mismatch (%d vs %d)", ErrNotMergeable, param, dst, src)
}

// families lists every single-summary kind. KindStore and KindDelta are
// containers of other payloads and have no row. Only kll, mrl and mlq need a
// parameter check: req and fo merges are free COMBINEs (req re-certifies its
// gaps, fo aligns levels by absolute weight exponent), and the other
// families merge any two members.
var families = [...]family{
	{KindGK, "gk", codec[*gk.Summary[float64]]{EncodeGK, DecodeGK, (*gk.Summary[float64]).Merge, nil}},
	{KindKLL, "kll", codec[*kll.Sketch[float64]]{EncodeKLL, DecodeKLL, (*kll.Sketch[float64]).Merge,
		func(d, s *kll.Sketch[float64]) error { return mismatch("kll k", d.K(), s.K()) }}},
	{KindMRL, "mrl", codec[*mrl.Summary[float64]]{EncodeMRL, DecodeMRL, (*mrl.Summary[float64]).Merge,
		func(d, s *mrl.Summary[float64]) error {
			return mismatch("mrl buffer capacity", d.BufferCapacity(), s.BufferCapacity())
		}}},
	{KindReservoir, "reservoir", codec[*sampling.Reservoir[float64]]{EncodeReservoir, DecodeReservoir,
		(*sampling.Reservoir[float64]).Merge, nil}},
	{KindWindow, "window", codec[*window.Summary[float64]]{EncodeWindow, DecodeWindow, nil, nil}},
	{KindMLQ, "mlq", codec[*mlq.Summary]{EncodeMLQ, DecodeMLQ, (*mlq.Summary).Merge,
		func(d, s *mlq.Summary) error { return mismatch("mlq block size", d.BlockSize(), s.BlockSize()) }}},
	{KindREQ, "req", codec[*req.Summary]{EncodeREQ, DecodeREQ, (*req.Summary).Merge, nil}},
	{KindExact, "exact", codec[*exact.Buffer]{EncodeExact, DecodeExact, (*exact.Buffer).Merge, nil}},
	{KindBiased, "biased", codec[*biased.Summary[float64]]{EncodeBiased, DecodeBiased,
		(*biased.Summary[float64]).Merge, nil}},
	{KindFO, "fo", codec[*fo.Summary[float64]]{EncodeFO, DecodeFO, (*fo.Summary[float64]).Merge, nil}},
}

// familyOf returns the row of the family s belongs to, or nil.
func familyOf(s any) *family {
	for i := range families {
		if families[i].ops.holds(s) {
			return &families[i]
		}
	}
	return nil
}

// familyByKind returns the row of kind k, or nil for a container or unknown
// kind.
func familyByKind(k Kind) *family {
	for i := range families {
		if families[i].kind == k {
			return &families[i]
		}
	}
	return nil
}

// String returns the short family name used in reports and peer status
// (e.g. "gk", "kll").
func (k Kind) String() string {
	if f := familyByKind(k); f != nil {
		return f.name
	}
	if k == KindStore {
		return "store"
	}
	if k == KindDelta {
		return "delta"
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// ErrBadPayload is returned when the payload is not a serialized summary
// produced by this package.
var ErrBadPayload = errors.New("encoding: not a quantilelb summary payload")

// writer appends little-endian fields to buf. A field allocates only when
// buf is out of room, and newPayload sizes it exactly for every summary
// kind and for containers.
type writer struct {
	buf []byte
}

func (w *writer) u16(v uint16)  { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

// raw appends bytes verbatim (store records, delta literals).
func (w *writer) raw(b []byte) { w.buf = append(w.buf, b...) }

// reader reads little-endian fields from the front of buf, the unread rest
// of a payload. A read past the end poisons it as io.ReadFull would fail:
// io.EOF when nothing was left, io.ErrUnexpectedEOF when part of the field
// was; every later read returns zero.
type reader struct {
	buf []byte
	err error
}

func (r *reader) u16() uint16 {
	if b := r.bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// bytes consumes the next n bytes and returns them as a capacity-clipped
// sub-slice of the payload, not a copy; nil once the reader is poisoned.
func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = io.ErrUnexpectedEOF
		if len(r.buf) == 0 {
			r.err = io.EOF
		}
		r.buf = nil
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// need reports whether at least n more payload bytes remain, poisoning the
// reader when they do not. Every length-prefixed allocation below is guarded
// by it so a corrupt payload can declare at most as many elements as it has
// bytes to back them — without the guard a few flipped length bits would
// make Decode attempt a multi-gigabyte allocation.
func (r *reader) need(n int64) bool {
	if r.err != nil {
		return false
	}
	if int64(len(r.buf)) < n {
		r.err = fmt.Errorf("encoding: payload declares %d more bytes but only %d remain", n, len(r.buf))
		return false
	}
	return true
}

// EncodeGK serializes a float64 Greenwald–Khanna summary.
func EncodeGK(s *gk.Summary[float64]) ([]byte, error) {
	if s == nil {
		return nil, errors.New("encoding: nil summary")
	}
	w := newPayload(KindGK, gkFieldsLen(s.StoredCount()))
	writeGKFields(&w, s)
	return w.buf, nil
}

// gkFieldsLen is the size of a writeGKFields record holding n tuples.
func gkFieldsLen(n int) int { return 8 + 2 + 8 + 4 + 32*n }

// writeGKFields appends a GK summary's state (accuracy, policy, count,
// tuples — each with its weighted-run length) without the payload header, so
// it can serve both as the KindGK body and as the per-block record of
// KindWindow.
func writeGKFields(w *writer, s *gk.Summary[float64]) {
	w.f64(s.Epsilon())
	w.u16(uint16(s.PolicyUsed()))
	w.i64(int64(s.Count()))
	tuples := s.Tuples()
	w.u32(uint32(len(tuples)))
	for _, t := range tuples {
		w.f64(t.V)
		w.i64(int64(t.G))
		w.i64(int64(t.Delta))
		w.i64(int64(t.Wt))
	}
}

// readGKFields reads the record written by writeGKFields and restores the
// summary.
func readGKFields(r *reader) (*gk.Summary[float64], error) {
	eps := r.f64()
	policy := gk.Policy(r.u16())
	count := r.i64()
	numTuples := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated GK header: %w", r.err)
	}
	if count < 0 || numTuples > uint32(count)+1 {
		return nil, fmt.Errorf("encoding: inconsistent GK payload (n=%d, tuples=%d)", count, numTuples)
	}
	if !r.need(int64(numTuples) * 32) {
		return nil, fmt.Errorf("encoding: truncated GK tuples: %w", r.err)
	}
	tuples := make([]gk.Tuple[float64], numTuples)
	for i := range tuples {
		tuples[i] = gk.Tuple[float64]{V: r.f64(), G: int(r.i64()), Delta: int(r.i64()), Wt: int(r.i64())}
	}
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated GK tuples: %w", r.err)
	}
	s, err := gk.Restore(order.Floats[float64](), eps, policy, int(count), tuples)
	if err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	return s, nil
}

// DecodeGK reconstructs a float64 Greenwald–Khanna summary.
func DecodeGK(payload []byte) (*gk.Summary[float64], error) {
	r, err := openKind(payload, KindGK, "GK")
	if err != nil {
		return nil, err
	}
	return readGKFields(&r)
}

// EncodeKLL serializes a float64 KLL sketch.
func EncodeKLL(s *kll.Sketch[float64]) ([]byte, error) {
	if s == nil {
		return nil, errors.New("encoding: nil sketch")
	}
	levels := s.Compactors()
	mn, mx, ok := s.Extremes()
	body := 8 + 8 + 4 + extremesLen(ok)
	for _, level := range levels {
		body += 4 + 8*len(level)
	}
	w := newPayload(KindKLL, body)
	w.i64(int64(s.K()))
	w.i64(int64(s.Count()))
	w.u32(uint32(len(levels)))
	for _, level := range levels {
		w.u32(uint32(len(level)))
		for _, x := range level {
			w.f64(x)
		}
	}
	writeExtremes(&w, mn, mx, ok)
	return w.buf, nil
}

// DecodeKLL reconstructs a float64 KLL sketch. The decoded sketch continues
// to accept updates and merges (its random source is freshly seeded from the
// retained state size, which does not affect correctness guarantees).
func DecodeKLL(payload []byte) (*kll.Sketch[float64], error) {
	r, err := openKind(payload, KindKLL, "KLL")
	if err != nil {
		return nil, err
	}
	k := int(r.i64())
	count := r.i64()
	numLevels := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated KLL header: %w", r.err)
	}
	if k < 2 || count < 0 || numLevels > 64 {
		return nil, fmt.Errorf("encoding: inconsistent KLL payload (k=%d, n=%d, levels=%d)", k, count, numLevels)
	}
	levels := make([][]float64, numLevels)
	for i := range levels {
		sz := r.u32()
		if r.err != nil {
			return nil, fmt.Errorf("encoding: truncated KLL level header: %w", r.err)
		}
		if int64(sz) > count+1 {
			return nil, fmt.Errorf("encoding: inconsistent KLL level size %d", sz)
		}
		if !r.need(int64(sz) * 8) {
			return nil, fmt.Errorf("encoding: truncated KLL level: %w", r.err)
		}
		level := make([]float64, sz)
		for j := range level {
			level[j] = r.f64()
		}
		levels[i] = level
	}
	mn, mx, hasExtremes := readExtremes(&r)
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated KLL payload: %w", r.err)
	}
	s, err := kll.Restore(order.Floats[float64](), k, int(count), levels, mn, mx, hasExtremes)
	if err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	return s, nil
}

// EncodeMRL serializes a float64 MRL summary: the per-buffer capacity, the
// declared maximum stream length, every full buffer level-wise, and the
// partially filled level-0 buffer.
func EncodeMRL(s *mrl.Summary[float64]) ([]byte, error) {
	if s == nil {
		return nil, errors.New("encoding: nil summary")
	}
	levels := s.Buffers()
	current := s.Pending()
	mn, mx, ok := s.Extremes()
	body := 8 + 8 + 8 + 8 + 4 + 4 + 8*len(current) + extremesLen(ok)
	for _, bufs := range levels {
		body += 4
		for _, buf := range bufs {
			body += 4 + 8*len(buf)
		}
	}
	w := newPayload(KindMRL, body)
	w.f64(s.Epsilon())
	w.i64(int64(s.BufferCapacity()))
	w.i64(int64(s.MaxN()))
	w.i64(int64(s.Count()))
	w.u32(uint32(len(levels)))
	for _, bufs := range levels {
		w.u32(uint32(len(bufs)))
		for _, buf := range bufs {
			w.u32(uint32(len(buf)))
			for _, x := range buf {
				w.f64(x)
			}
		}
	}
	w.u32(uint32(len(current)))
	for _, x := range current {
		w.f64(x)
	}
	writeExtremes(&w, mn, mx, ok)
	return w.buf, nil
}

// DecodeMRL reconstructs a float64 MRL summary serialized by EncodeMRL. The
// decoded summary continues to accept updates and merges.
func DecodeMRL(payload []byte) (*mrl.Summary[float64], error) {
	r, err := openKind(payload, KindMRL, "MRL")
	if err != nil {
		return nil, err
	}
	eps := r.f64()
	capacity := r.i64()
	maxN := r.i64()
	count := r.i64()
	numLevels := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated MRL header: %w", r.err)
	}
	if capacity < 1 || maxN < 1 || count < 0 || numLevels > 64 {
		return nil, fmt.Errorf("encoding: inconsistent MRL payload (capacity=%d, maxN=%d, n=%d, levels=%d)", capacity, maxN, count, numLevels)
	}
	levels := make([][][]float64, numLevels)
	for l := range levels {
		numBufs := r.u32()
		if r.err != nil {
			return nil, fmt.Errorf("encoding: truncated MRL level header: %w", r.err)
		}
		if int64(numBufs) > count {
			return nil, fmt.Errorf("encoding: inconsistent MRL level %d buffer count %d", l, numBufs)
		}
		// Each serialized buffer occupies at least its 4-byte length prefix.
		if !r.need(int64(numBufs) * 4) {
			return nil, fmt.Errorf("encoding: truncated MRL level: %w", r.err)
		}
		levels[l] = make([][]float64, numBufs)
		for b := range levels[l] {
			sz := r.u32()
			if r.err != nil {
				return nil, fmt.Errorf("encoding: truncated MRL buffer header: %w", r.err)
			}
			if int64(sz) > capacity {
				return nil, fmt.Errorf("encoding: MRL buffer of %d items exceeds capacity %d", sz, capacity)
			}
			if !r.need(int64(sz) * 8) {
				return nil, fmt.Errorf("encoding: truncated MRL buffer: %w", r.err)
			}
			buf := make([]float64, sz)
			for i := range buf {
				buf[i] = r.f64()
			}
			levels[l][b] = buf
		}
	}
	curLen := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated MRL payload: %w", r.err)
	}
	if int64(curLen) > capacity {
		return nil, fmt.Errorf("encoding: MRL partial buffer of %d items exceeds capacity %d", curLen, capacity)
	}
	if !r.need(int64(curLen) * 8) {
		return nil, fmt.Errorf("encoding: truncated MRL payload: %w", r.err)
	}
	current := make([]float64, curLen)
	for i := range current {
		current[i] = r.f64()
	}
	mn, mx, hasExtremes := readExtremes(&r)
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated MRL payload: %w", r.err)
	}
	s, err := mrl.Restore(order.Floats[float64](), eps, int(capacity), int(maxN), int(count), levels, current, mn, mx, hasExtremes)
	if err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	return s, nil
}

// EncodeReservoir serializes a float64 reservoir sampler: capacity, stream
// count, the sample, and the exact extremes.
func EncodeReservoir(r *sampling.Reservoir[float64]) ([]byte, error) {
	if r == nil {
		return nil, errors.New("encoding: nil reservoir")
	}
	sample := r.Sample()
	mn, mx, ok := r.Extremes()
	w := newPayload(KindReservoir, 8+8+4+8*len(sample)+extremesLen(ok))
	w.i64(int64(r.Capacity()))
	w.i64(int64(r.Count()))
	w.u32(uint32(len(sample)))
	for _, x := range sample {
		w.f64(x)
	}
	writeExtremes(&w, mn, mx, ok)
	return w.buf, nil
}

// DecodeReservoir reconstructs a float64 reservoir serialized by
// EncodeReservoir. The decoded reservoir continues to accept updates and
// merges (its random source is freshly seeded, which does not affect the
// uniformity of the restored sample).
func DecodeReservoir(payload []byte) (*sampling.Reservoir[float64], error) {
	r, err := openKind(payload, KindReservoir, "reservoir")
	if err != nil {
		return nil, err
	}
	capacity := r.i64()
	count := r.i64()
	sampleLen := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated reservoir header: %w", r.err)
	}
	if capacity < 1 || count < 0 || int64(sampleLen) > capacity || int64(sampleLen) > count {
		return nil, fmt.Errorf("encoding: inconsistent reservoir payload (capacity=%d, n=%d, sample=%d)", capacity, count, sampleLen)
	}
	if !r.need(int64(sampleLen) * 8) {
		return nil, fmt.Errorf("encoding: truncated reservoir sample: %w", r.err)
	}
	sample := make([]float64, sampleLen)
	for i := range sample {
		sample[i] = r.f64()
	}
	mn, mx, hasExtremes := readExtremes(&r)
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated reservoir payload: %w", r.err)
	}
	s, err := sampling.Restore(order.Floats[float64](), int(capacity), int(count), sample, mn, mx, hasExtremes)
	if err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	return s, nil
}

// writeExtremes appends the shared extremes trailer: a u16 presence flag
// followed by min and max when present.
func writeExtremes(w *writer, mn, mx float64, ok bool) {
	if ok {
		w.u16(1)
		w.f64(mn)
		w.f64(mx)
	} else {
		w.u16(0)
	}
}

// extremesLen is the size of an extremes trailer.
func extremesLen(ok bool) int {
	if ok {
		return 2 + 16
	}
	return 2
}

// readExtremes reads the extremes trailer written by writeExtremes.
func readExtremes(r *reader) (mn, mx float64, ok bool) {
	if r.u16() == 1 {
		return r.f64(), r.f64(), true
	}
	return 0, 0, false
}

// EncodeWindow serializes a float64 sliding-window summary: the accuracy and
// window length, the total items seen, and every live block (stream offset,
// item count, and the block's own ε/2-accurate GK summary as a nested GK
// record).
func EncodeWindow(s *window.Summary[float64]) ([]byte, error) {
	if s == nil {
		return nil, errors.New("encoding: nil summary")
	}
	blocks := s.ExportBlocks()
	body := 8 + 8 + 8 + 4
	for _, b := range blocks {
		body += 16 + gkFieldsLen(b.Summary.StoredCount())
	}
	w := newPayload(KindWindow, body)
	w.f64(s.Epsilon())
	w.i64(int64(s.WindowLen()))
	w.i64(int64(s.TotalSeen()))
	w.u32(uint32(len(blocks)))
	for _, b := range blocks {
		w.i64(int64(b.Start))
		w.i64(int64(b.Count))
		writeGKFields(&w, b.Summary)
	}
	return w.buf, nil
}

// DecodeWindow reconstructs a sliding-window summary serialized by
// EncodeWindow. The decoded summary continues to accept updates; expiry picks
// up exactly where the encoder's stream position left off.
func DecodeWindow(payload []byte) (*window.Summary[float64], error) {
	r, err := openKind(payload, KindWindow, "window")
	if err != nil {
		return nil, err
	}
	eps := r.f64()
	windowLen := r.i64()
	totalSeen := r.i64()
	numBlocks := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated window header: %w", r.err)
	}
	if windowLen < 2 || totalSeen < 0 || int64(numBlocks) > totalSeen {
		return nil, fmt.Errorf("encoding: inconsistent window payload (W=%d, n=%d, blocks=%d)", windowLen, totalSeen, numBlocks)
	}
	// Each serialized block occupies at least its two offsets plus a minimal
	// GK record (eps, policy, count, tuple count): 8+8+8+2+8+4 bytes.
	if !r.need(int64(numBlocks) * 38) {
		return nil, fmt.Errorf("encoding: truncated window blocks: %w", r.err)
	}
	blocks := make([]window.BlockState[float64], numBlocks)
	for i := range blocks {
		start := r.i64()
		count := r.i64()
		if r.err != nil {
			return nil, fmt.Errorf("encoding: truncated window block header: %w", r.err)
		}
		sum, err := readGKFields(&r)
		if err != nil {
			return nil, fmt.Errorf("encoding: window block %d: %w", i, err)
		}
		blocks[i] = window.BlockState[float64]{Start: int(start), Count: int(count), Summary: sum}
	}
	// RestoreOwned: the block summaries were freshly built from the payload
	// above, so the defensive deep copy of Restore would be pure waste.
	s, err := window.RestoreOwned(order.Floats[float64](), eps, int(windowLen), int(totalSeen), blocks)
	if err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	return s, nil
}

// Encode serializes any supported float64 summary, dispatching on its
// concrete type; the payload records the kind so Decode can reverse it
// without being told what it holds. It is the entry point the distributed
// tier uses (internal/sharded.SnapshotPayload, internal/cluster).
func Encode(s any) ([]byte, error) {
	if f := familyOf(s); f != nil {
		return f.ops.encode(s)
	}
	return nil, fmt.Errorf("encoding: unsupported summary type %T", s)
}

// Decode reconstructs whichever summary a payload holds, dispatching on the
// Kind tag. The result is one of *gk.Summary[float64], *kll.Sketch[float64],
// *mrl.Summary[float64], *sampling.Reservoir[float64],
// *window.Summary[float64], *mlq.Summary, *req.Summary, *exact.Buffer,
// *biased.Summary[float64], or *fo.Summary[float64]; on error it is an
// untyped nil. Use DetectKind first when the caller needs to know the kind
// without paying for the full decode.
func Decode(payload []byte) (any, error) {
	kind, err := DetectKind(payload)
	if err != nil {
		return nil, err
	}
	if f := familyByKind(kind); f != nil {
		return f.ops.decode(payload)
	}
	if kind == KindStore {
		return nil, errors.New("encoding: payload is a KindStore container, not a single summary; use DecodeStore")
	}
	if kind == KindDelta {
		return nil, errors.New("encoding: payload is a KindDelta container, not a full summary; use ApplyDelta with its base payload first")
	}
	return nil, fmt.Errorf("encoding: unknown summary kind %d", kind)
}

// DetectKind returns the summary kind stored in a payload without decoding it
// fully.
func DetectKind(payload []byte) (Kind, error) {
	_, kind, err := openPayload(payload)
	return kind, err
}

func openPayload(payload []byte) (reader, Kind, error) {
	r := reader{buf: payload}
	if r.u32() != Magic {
		return reader{}, 0, ErrBadPayload
	}
	if v := r.u16(); v != Version {
		return reader{}, 0, fmt.Errorf("encoding: unsupported format version %d", v)
	}
	kind := Kind(r.u16())
	if r.err != nil {
		return reader{}, 0, ErrBadPayload
	}
	return r, kind, nil
}

// headerLen is the size of the shared payload header.
const headerLen = 8

// newPayload starts a payload with the shared header: magic, format version
// and kind. body is the size of the fields that follow; when it is exact,
// the payload is allocated once and its capacity equals its final length.
func newPayload(kind Kind, body int) writer {
	w := writer{buf: make([]byte, 0, headerLen+body)}
	w.u32(Magic)
	w.u16(Version)
	w.u16(uint16(kind))
	return w
}

// openKind opens a payload and checks that it holds want; label names the
// kind in the error.
func openKind(payload []byte, want Kind, label string) (reader, error) {
	r, kind, err := openPayload(payload)
	if err != nil {
		return reader{}, err
	}
	if kind != want {
		return reader{}, fmt.Errorf("encoding: payload holds kind %d, want %s (%d)", kind, label, want)
	}
	return r, nil
}
