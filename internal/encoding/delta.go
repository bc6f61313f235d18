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
// content hash (XXH64, see PayloadHash), which is also what the cluster
// derives snapshot ETags from: the delta names the exact base it applies to,
// and ApplyDelta refuses a base whose bytes do not hash to that name
// (ErrDeltaBaseMismatch) instead of reconstructing garbage. No persisted
// state holds a content hash; a peer whose hash differs (an older build)
// only ever sees its deltas rejected and falls back to full payloads.
//
// The content hash consumes payloads in 32-byte stripes, the encoder
// indexes the base in a flat open-addressing table of block numbers, and
// matches extend eight bytes per step, so a delta between two large,
// mostly equal payloads costs about what reading them does.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// MaxDeltaInputBytes bounds the payloads EncodeDelta will diff. Beyond it
// the block scan stops being worth the bytes saved; callers fall back to
// shipping the full payload.
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

// XXH64 primes.
const (
	xxPrime1 uint64 = 11400714785074694791
	xxPrime2 uint64 = 14029467366897019727
	xxPrime3 uint64 = 1609587929392839161
	xxPrime4 uint64 = 9650029242287828579
	xxPrime5 uint64 = 2870177450012600261
)

// PayloadHash returns the XXH64 hash (seed 0) of a payload. It is the
// content identity the delta format (and the cluster tier's snapshot ETags)
// are built on: two byte-identical payloads hash equal across processes and
// restarts. The hash is computed four 64-bit lanes at a time, so it runs at
// memory speed on container-sized payloads.
func PayloadHash(p []byte) uint64 {
	n := len(p)
	var h uint64
	if n >= 32 {
		v1, v2, v3, v4 := xxPrime1, xxPrime2, uint64(0), uint64(0)
		v1 += xxPrime2
		v4 -= xxPrime1
		for ; len(p) >= 32; p = p[32:] {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(p[0:8]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(p[8:16]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(p[16:24]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(p[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMergeRound(h, v1)
		h = xxMergeRound(h, v2)
		h = xxMergeRound(h, v3)
		h = xxMergeRound(h, v4)
	} else {
		h = xxPrime5
	}
	h += uint64(n)
	for ; len(p) >= 8; p = p[8:] {
		h ^= xxRound(0, binary.LittleEndian.Uint64(p))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
	}
	if len(p) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(p)) * xxPrime1
		h = bits.RotateLeft64(h, 23)*xxPrime2 + xxPrime3
		p = p[4:]
	}
	for _, b := range p {
		h ^= uint64(b) * xxPrime5
		h = bits.RotateLeft64(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

// xxRound folds one 64-bit input word into an XXH64 lane.
func xxRound(acc, input uint64) uint64 {
	acc += input * xxPrime2
	return bits.RotateLeft64(acc, 31) * xxPrime1
}

// xxMergeRound folds a finished lane into the XXH64 accumulator.
func xxMergeRound(acc, lane uint64) uint64 {
	acc ^= xxRound(0, lane)
	return acc*xxPrime1 + xxPrime4
}

// hashBlock hashes one deltaBlockSize block for the encoder's base index:
// a multiply-rotate over its four 64-bit words. The index takes the top
// bits, which the final multiply mixes from every input bit. It is not a
// content identity (the index compares block bytes on every probe), only a
// slot spreader.
func hashBlock(b []byte) uint64 {
	_ = b[deltaBlockSize-1]
	h := binary.LittleEndian.Uint64(b[0:8]) * xxPrime1
	h = (bits.RotateLeft64(h, 31) ^ binary.LittleEndian.Uint64(b[8:16])) * xxPrime2
	h = (bits.RotateLeft64(h, 31) ^ binary.LittleEndian.Uint64(b[16:24])) * xxPrime1
	return (bits.RotateLeft64(h, 31) ^ binary.LittleEndian.Uint64(b[24:32])) * xxPrime2
}

// blockIndex maps the content of a deltaBlockSize block to the offset of its
// first occurrence among the base's aligned blocks. It is an open-addressing
// table of block numbers plus one (zero marks an empty slot), at most half
// full, probed linearly from the top bits of hashBlock; every probe compares
// block bytes, so a hash collision costs a probe and never a false match.
type blockIndex struct {
	base  []byte
	slots []uint32
	shift uint // 64 - log2(len(slots))
}

// newBlockIndex indexes base's aligned blocks. The table is one allocation
// of the smallest power of two at least twice the block count.
func newBlockIndex(base []byte) blockIndex {
	blocks := len(base) / deltaBlockSize
	if blocks == 0 {
		return blockIndex{}
	}
	logSlots := bits.Len(uint(2*blocks - 1))
	x := blockIndex{base: base, slots: make([]uint32, 1<<logSlots), shift: uint(64 - logSlots)}
	mask := len(x.slots) - 1
	for b := 0; b < blocks; b++ {
		block := base[b*deltaBlockSize : (b+1)*deltaBlockSize]
		s := int(hashBlock(block) >> x.shift)
		for {
			e := x.slots[s]
			if e == 0 {
				x.slots[s] = uint32(b + 1)
				break
			}
			if x.holds(e, block) {
				break // a duplicate: the first occurrence keeps the slot
			}
			s = (s + 1) & mask
		}
	}
	return x
}

// holds reports whether the base block an occupied slot names equals block.
func (x *blockIndex) holds(e uint32, block []byte) bool {
	o := int(e-1) * deltaBlockSize
	return bytes.Equal(x.base[o:o+deltaBlockSize], block)
}

// find returns the base offset of the first aligned block whose bytes equal
// block, or -1.
func (x *blockIndex) find(block []byte) int {
	if len(x.slots) == 0 {
		return -1
	}
	mask := len(x.slots) - 1
	for s := int(hashBlock(block) >> x.shift); ; s = (s + 1) & mask {
		e := x.slots[s]
		if e == 0 {
			return -1
		}
		if x.holds(e, block) {
			return int(e-1) * deltaBlockSize
		}
	}
}

// matchForward returns how many bytes a and b agree on from their starts,
// comparing eight bytes per step.
func matchForward(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < n && a[i] == b[i]; i++ {
	}
	return i
}

// EncodeDelta computes a KindDelta payload that reconstructs head from base.
// It succeeds for any two byte slices, but is only worth shipping when the
// result is smaller than head — callers (the cluster's snapshot handler)
// compare lengths and fall back to the full payload otherwise. Inputs longer
// than MaxDeltaInputBytes are refused; serve the full payload instead.
//
// The base is indexed in aligned 32-byte blocks (blockIndex: the first
// occurrence of each distinct block is the canonical match, so duplicate
// blocks such as zero runs still match). The head is scanned byte by byte
// for an indexed block; a hit is extended backward into the pending literal
// and forward eight bytes at a time, so one copy op covers a maximal
// unchanged run. The op stream is a pure function of (base, head). Apart
// from the output, the index is the only allocation: between a quarter and
// a half of len(base).
func EncodeDelta(base, head []byte) ([]byte, error) {
	return EncodeDeltaWithHashes(base, head, PayloadHash(base), PayloadHash(head))
}

// EncodeDeltaWithHashes is EncodeDelta for a caller that already holds
// PayloadHash(base) and PayloadHash(head) — the cluster tier keeps them as
// its snapshot ETags — and so skips two passes over the payloads. The hashes
// are written into the delta's header unchecked: a wrong baseHash makes
// ApplyDelta refuse the delta with ErrDeltaBaseMismatch, and a wrong
// headHash makes it refuse the reconstruction.
func EncodeDeltaWithHashes(base, head []byte, baseHash, headHash uint64) ([]byte, error) {
	if len(base) > MaxDeltaInputBytes || len(head) > MaxDeltaInputBytes {
		return nil, fmt.Errorf("encoding: payload of %d/%d bytes exceeds the %d-byte delta input cap", len(base), len(head), MaxDeltaInputBytes)
	}
	index := newBlockIndex(base)

	w := newPayload(KindDelta, 8+8+4+4)
	w.u64(baseHash)
	w.u64(headHash)
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
		o := index.find(head[i : i+deltaBlockSize])
		if o < 0 {
			i++
			continue
		}
		// Extend the match backward into the pending literal, then forward as
		// far as the bytes agree.
		start := i
		for start > litStart && o > 0 && head[start-1] == base[o-1] {
			start--
			o--
		}
		length := i - start + deltaBlockSize
		length += matchForward(head[start+length:], base[o+length:])
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
