package encoding

// KindREQ is the wire format of the relative-error summary (internal/req):
// the construction parameters (eps, ingest buffer size b), the total weight,
// the buffered not-yet-folded items as (value, weight) pairs, and the sorted
// entry list — value, weight, and the Rmin/Rmax rank bounds, 32 bytes per
// entry. Every length prefix is guarded by need() like the other kinds, and
// req.Restore re-validates the decoded structure (sortedness, bound
// consistency, exact first/last entries, weight conservation) so a corrupt
// payload is rejected rather than revived into an inconsistent summary.

import (
	"errors"
	"fmt"

	"quantilelb/internal/req"
)

// EncodeREQ serializes a relative-error summary.
func EncodeREQ(s *req.Summary) ([]byte, error) {
	if s == nil {
		return nil, errors.New("encoding: nil summary")
	}
	buffered := s.Buffered()
	entries := s.Entries()
	w := newPayload(KindREQ, 8+4+8+4+16*len(buffered)+4+32*len(entries))
	w.f64(s.Epsilon())
	w.u32(uint32(s.BufferSize()))
	w.i64(int64(s.Count()))
	w.u32(uint32(len(buffered)))
	for _, p := range buffered {
		w.f64(p.V)
		w.i64(p.W)
	}
	w.u32(uint32(len(entries)))
	for _, e := range entries {
		w.f64(e.V)
		w.i64(e.W)
		w.i64(e.Rmin)
		w.i64(e.Rmax)
	}
	return w.buf, nil
}

// DecodeREQ reconstructs a relative-error summary, validating the payload
// both structurally (length guards, buffer cap) and semantically
// (req.Restore's invariant checks, including exactness of the extreme
// entries and total-weight conservation against the recorded count).
func DecodeREQ(payload []byte) (*req.Summary, error) {
	r, err := openKind(payload, KindREQ, "REQ")
	if err != nil {
		return nil, err
	}
	eps := r.f64()
	b := r.u32()
	count := r.i64()
	numBuffered := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated REQ header: %w", r.err)
	}
	if count < 0 || b < 2 || numBuffered > b {
		return nil, fmt.Errorf("encoding: inconsistent REQ payload (n=%d, b=%d, buffered=%d)", count, b, numBuffered)
	}
	if !r.need(int64(numBuffered) * 16) {
		return nil, fmt.Errorf("encoding: truncated REQ buffer: %w", r.err)
	}
	buffered := make([]req.WeightedValue, numBuffered)
	for i := range buffered {
		buffered[i] = req.WeightedValue{V: r.f64(), W: r.i64()}
	}
	numEntries := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated REQ entry count: %w", r.err)
	}
	if !r.need(int64(numEntries) * 32) {
		return nil, fmt.Errorf("encoding: truncated REQ entries: %w", r.err)
	}
	entries := make([]req.Entry, numEntries)
	for i := range entries {
		entries[i] = req.Entry{V: r.f64(), W: r.i64(), Rmin: r.i64(), Rmax: r.i64()}
	}
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated REQ payload: %w", r.err)
	}
	s, err := req.Restore(eps, int(b), buffered, entries)
	if err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	if int64(s.Count()) != count {
		return nil, fmt.Errorf("encoding: REQ payload count %d does not match restored weight %d", count, s.Count())
	}
	return s, nil
}
