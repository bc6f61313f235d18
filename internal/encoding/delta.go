package encoding

// Delta snapshots: the incremental wire format of the cluster tier's
// /v1/snapshot endpoint. A KindDelta payload carries only the byte ranges of
// a full snapshot that changed since a *base* snapshot the receiver already
// holds, as a sequence of copy-from-base and add-literal operations — the
// rsync discipline, applied to the already-compact wire payloads of this
// package. Because every summary family serializes its retained state as
// flat arrays (GK tuples, KLL compactor levels, MLQ cascade entries, REQ
// entry quadruples), an ingest round that touches a fraction of the
// structure leaves long unchanged runs in the payload, and the delta carries
// only the tuples/levels/entries that moved (shifted runs are found too: the
// encoder matches base blocks at any head offset).
//
// The format is deliberately family-agnostic: a delta between two KindGK
// payloads, two KindStore containers, or any other pair of identical-kind
// payloads round-trips the same way, so the cluster tier negotiates deltas
// without knowing which family a peer runs. Both endpoints are identified by
// content hash, which is also what the cluster derives snapshot ETags from:
// the delta names the exact base it applies to, and ApplyDelta refuses a
// base whose bytes do not hash to that name (ErrDeltaBaseMismatch) instead
// of reconstructing garbage.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// MaxDeltaInputBytes bounds the payloads EncodeDelta will diff. Beyond it
// the quadratic-ish block scan stops being worth the bytes saved; callers
// fall back to shipping the full payload.
const MaxDeltaInputBytes = 16 << 20

// MaxDeltaHeadBytes bounds the reconstructed-payload length a KindDelta
// payload may declare, so a corrupt delta cannot demand a multi-gigabyte
// allocation. It matches the cluster tier's snapshot body cap.
const MaxDeltaHeadBytes = 64 << 20

// ErrDeltaBaseMismatch is returned by ApplyDelta when the supplied base
// payload is not the one the delta was computed against (its content hash
// differs from the recorded base hash). The caller should refetch a full
// snapshot.
var ErrDeltaBaseMismatch = errors.New("encoding: delta base payload does not match the delta's recorded base")

// deltaBlockSize is the granularity of base-block matching: the encoder
// indexes the base payload in 32-byte blocks (one GK tuple, four float64
// entries) and recognizes unchanged runs of at least this length.
const deltaBlockSize = 32

// delta op tags.
const (
	deltaOpCopy = 0 // u32 base offset, u32 length
	deltaOpAdd  = 1 // u32 length, raw bytes
)

// PayloadHash returns the FNV-1a 64-bit hash of a payload. It is the content
// identity the delta format (and the cluster tier's snapshot ETags) are built
// on: two byte-identical payloads hash equal across processes and restarts.
func PayloadHash(payload []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range payload {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// hashBlock hashes one fixed-size block for the encoder's base index; same
// FNV-1a core as PayloadHash, inlined over a block.
func hashBlock(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// EncodeDelta computes a KindDelta payload that reconstructs head from base.
// It succeeds for any two byte slices, but is only worth shipping when the
// result is smaller than head — callers (the cluster's snapshot handler)
// compare lengths and fall back to the full payload otherwise. Inputs longer
// than MaxDeltaInputBytes are refused; serve the full payload instead.
func EncodeDelta(base, head []byte) ([]byte, error) {
	if len(base) > MaxDeltaInputBytes || len(head) > MaxDeltaInputBytes {
		return nil, fmt.Errorf("encoding: payload of %d/%d bytes exceeds the %d-byte delta input cap", len(base), len(head), MaxDeltaInputBytes)
	}

	// Index the base in aligned blocks: block hash → first offset. First
	// occurrence wins; duplicate blocks (zero runs, repeated tuples) still
	// match, just against one canonical offset.
	index := make(map[uint64]int, len(base)/deltaBlockSize+1)
	for o := 0; o+deltaBlockSize <= len(base); o += deltaBlockSize {
		h := hashBlock(base[o : o+deltaBlockSize])
		if _, ok := index[h]; !ok {
			index[h] = o
		}
	}

	w := newPayload(KindDelta, 8+8+4+4)
	w.u64(PayloadHash(base))
	w.u64(PayloadHash(head))
	w.u32(uint32(len(head)))
	// The op count precedes the ops; it is patched in once they are written.
	countAt := len(w.buf)
	w.u32(0)
	opCount := 0
	litStart := 0
	emitAdd := func(lit []byte) {
		if len(lit) == 0 {
			return
		}
		w.u16(deltaOpAdd)
		w.u32(uint32(len(lit)))
		w.raw(lit)
		opCount++
	}
	emitCopy := func(off, length int) {
		w.u16(deltaOpCopy)
		w.u32(uint32(off))
		w.u32(uint32(length))
		opCount++
	}

	i := 0
	for i+deltaBlockSize <= len(head) {
		h := hashBlock(head[i : i+deltaBlockSize])
		o, ok := index[h]
		if !ok || !bytes.Equal(head[i:i+deltaBlockSize], base[o:o+deltaBlockSize]) {
			i++
			continue
		}
		// Extend the match backward into the pending literal, then forward as
		// far as the bytes agree, so one op covers a maximal unchanged run.
		start := i
		for start > litStart && o > 0 && head[start-1] == base[o-1] {
			start--
			o--
		}
		length := i - start + deltaBlockSize
		for start+length < len(head) && o+length < len(base) && head[start+length] == base[o+length] {
			length++
		}
		emitAdd(head[litStart:start])
		emitCopy(o, length)
		i = start + length
		litStart = i
	}
	emitAdd(head[litStart:])

	binary.LittleEndian.PutUint32(w.buf[countAt:], uint32(opCount))
	return w.buf, nil
}

// DeltaHeader is the negotiation-relevant prefix of a KindDelta payload.
type DeltaHeader struct {
	// BaseHash is the content hash (PayloadHash) of the full payload the
	// delta applies to.
	BaseHash uint64
	// HeadHash is the content hash of the payload the delta reconstructs.
	HeadHash uint64
	// HeadLen is the reconstructed payload's length in bytes.
	HeadLen int
}

// DecodeDeltaHeader reads the header of a KindDelta payload without applying
// it.
func DecodeDeltaHeader(delta []byte) (DeltaHeader, error) {
	r, err := openKind(delta, KindDelta, "delta")
	if err != nil {
		return DeltaHeader{}, err
	}
	hdr := DeltaHeader{BaseHash: r.u64(), HeadHash: r.u64(), HeadLen: int(r.u32())}
	if r.err != nil {
		return DeltaHeader{}, fmt.Errorf("encoding: truncated delta header: %w", r.err)
	}
	if hdr.HeadLen < 0 || hdr.HeadLen > MaxDeltaHeadBytes {
		return DeltaHeader{}, fmt.Errorf("encoding: delta declares a %d-byte payload, cap is %d", hdr.HeadLen, MaxDeltaHeadBytes)
	}
	return hdr, nil
}

// IsDelta reports whether a payload is a well-formed-enough KindDelta
// container (valid header and kind tag); the cluster's pull path uses it to
// decide whether a fetched snapshot needs ApplyDelta before decoding.
func IsDelta(payload []byte) bool {
	kind, err := DetectKind(payload)
	return err == nil && kind == KindDelta
}

// ApplyDelta reconstructs the full head payload from the base payload the
// delta was computed against. It verifies the base's content hash before
// applying (ErrDeltaBaseMismatch on a stale or wrong base) and the
// reconstructed head's hash after, so a corrupt delta can never hand a
// silently wrong payload to Decode. Every copy range and literal length is
// bounds-checked against the inputs, so a hostile delta cannot read outside
// the base or allocate beyond its declared (capped) head length.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	r, err := openKind(delta, KindDelta, "delta")
	if err != nil {
		return nil, err
	}
	baseHash := r.u64()
	headHash := r.u64()
	headLen := r.u32()
	opCount := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated delta header: %w", r.err)
	}
	if int64(headLen) > MaxDeltaHeadBytes {
		return nil, fmt.Errorf("encoding: delta declares a %d-byte payload, cap is %d", headLen, MaxDeltaHeadBytes)
	}
	// Each op occupies at least its 2-byte tag plus one u32.
	if !r.need(int64(opCount) * 6) {
		return nil, fmt.Errorf("encoding: truncated delta ops: %w", r.err)
	}
	if PayloadHash(base) != baseHash {
		return nil, ErrDeltaBaseMismatch
	}
	out := make([]byte, 0, headLen)
	for i := uint32(0); i < opCount; i++ {
		tag := r.u16()
		switch tag {
		case deltaOpCopy:
			off := r.u32()
			length := r.u32()
			if r.err != nil {
				return nil, fmt.Errorf("encoding: truncated delta copy op: %w", r.err)
			}
			end := int64(off) + int64(length)
			if end > int64(len(base)) {
				return nil, fmt.Errorf("encoding: delta copy [%d,%d) escapes the %d-byte base", off, end, len(base))
			}
			if int64(len(out))+int64(length) > int64(headLen) {
				return nil, fmt.Errorf("encoding: delta ops overflow the declared %d-byte payload", headLen)
			}
			out = append(out, base[off:end]...)
		case deltaOpAdd:
			length := r.u32()
			if r.err != nil {
				return nil, fmt.Errorf("encoding: truncated delta add op: %w", r.err)
			}
			if int64(len(out))+int64(length) > int64(headLen) {
				return nil, fmt.Errorf("encoding: delta ops overflow the declared %d-byte payload", headLen)
			}
			if !r.need(int64(length)) {
				return nil, fmt.Errorf("encoding: truncated delta literal: %w", r.err)
			}
			out = append(out, r.bytes(int(length))...)
		default:
			return nil, fmt.Errorf("encoding: unknown delta op tag %d", tag)
		}
		if r.err != nil {
			return nil, fmt.Errorf("encoding: truncated delta op: %w", r.err)
		}
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("encoding: %d trailing bytes after delta ops", len(r.buf))
	}
	if len(out) != int(headLen) {
		return nil, fmt.Errorf("encoding: delta reconstructed %d bytes, declared %d", len(out), headLen)
	}
	if PayloadHash(out) != headHash {
		return nil, errors.New("encoding: delta reconstruction does not hash to the declared head")
	}
	return out, nil
}
