package encoding

// KindMLQ is the wire format of the multi-level summary (internal/mlq): the
// construction parameters (eps, block size b, horizon L), the total weight,
// the buffered not-yet-flushed items as (value, weight) pairs, and each
// cascade level as its accumulated eps plus its entries — value, weight, and
// the Rmin/Rmax rank bounds, 32 bytes per entry. Every length prefix is
// guarded by need() like the other kinds, and mlq.Restore re-validates the
// decoded structure (sortedness, bound consistency, per-level entry caps,
// weight conservation) so a corrupt payload is rejected rather than revived
// into an inconsistent summary.

import (
	"errors"
	"fmt"

	"quantilelb/internal/mlq"
)

// maxMLQLevels bounds the declared level count; the cascade covers b·2^(L-1)
// weight by level L, so 64 levels exceed any attainable stream.
const maxMLQLevels = 64

// EncodeMLQ serializes a multi-level summary.
func EncodeMLQ(s *mlq.Summary) ([]byte, error) {
	if s == nil {
		return nil, errors.New("encoding: nil summary")
	}
	buffered := s.Buffered()
	levels := s.Levels()
	body := 8 + 4 + 4 + 8 + 4 + 16*len(buffered) + 4
	for _, lv := range levels {
		body += 8 + 4 + 32*len(lv.Entries)
	}
	w := newPayload(KindMLQ, body)
	w.f64(s.Epsilon())
	w.u32(uint32(s.BlockSize()))
	w.u32(uint32(s.MaxLevels()))
	w.i64(int64(s.Count()))
	w.u32(uint32(len(buffered)))
	for _, p := range buffered {
		w.f64(p.V)
		w.i64(p.W)
	}
	w.u32(uint32(len(levels)))
	for _, lv := range levels {
		w.f64(lv.Eps)
		w.u32(uint32(len(lv.Entries)))
		for _, e := range lv.Entries {
			w.f64(e.V)
			w.i64(e.W)
			w.i64(e.Rmin)
			w.i64(e.Rmax)
		}
	}
	return w.buf, nil
}

// DecodeMLQ reconstructs a multi-level summary, validating the payload both
// structurally (length guards, level caps) and semantically (mlq.Restore's
// invariant checks, including the per-level b+1 entry cap below the horizon
// and total-weight conservation against the recorded count).
func DecodeMLQ(payload []byte) (*mlq.Summary, error) {
	r, err := openKind(payload, KindMLQ, "MLQ")
	if err != nil {
		return nil, err
	}
	eps := r.f64()
	b := r.u32()
	maxLevels := r.u32()
	count := r.i64()
	numBuffered := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated MLQ header: %w", r.err)
	}
	if count < 0 || b < 2 || maxLevels > maxMLQLevels || numBuffered > b {
		return nil, fmt.Errorf("encoding: inconsistent MLQ payload (n=%d, b=%d, levels=%d, buffered=%d)", count, b, maxLevels, numBuffered)
	}
	if !r.need(int64(numBuffered) * 16) {
		return nil, fmt.Errorf("encoding: truncated MLQ buffer: %w", r.err)
	}
	buffered := make([]mlq.WeightedValue, numBuffered)
	for i := range buffered {
		buffered[i] = mlq.WeightedValue{V: r.f64(), W: r.i64()}
	}
	numLevels := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated MLQ levels: %w", r.err)
	}
	if numLevels > maxMLQLevels {
		return nil, fmt.Errorf("encoding: MLQ payload declares %d levels (max %d)", numLevels, maxMLQLevels)
	}
	levels := make([]mlq.LevelState, numLevels)
	for l := range levels {
		levels[l].Eps = r.f64()
		numEntries := r.u32()
		if r.err != nil {
			return nil, fmt.Errorf("encoding: truncated MLQ level %d: %w", l, r.err)
		}
		if !r.need(int64(numEntries) * 32) {
			return nil, fmt.Errorf("encoding: truncated MLQ level %d entries: %w", l, r.err)
		}
		entries := make([]mlq.Entry, numEntries)
		for i := range entries {
			entries[i] = mlq.Entry{V: r.f64(), W: r.i64(), Rmin: r.i64(), Rmax: r.i64()}
		}
		levels[l].Entries = entries
	}
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated MLQ payload: %w", r.err)
	}
	s, err := mlq.Restore(eps, int(b), int(maxLevels), buffered, levels)
	if err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	if int64(s.Count()) != count {
		return nil, fmt.Errorf("encoding: MLQ payload count %d does not match restored weight %d", count, s.Count())
	}
	return s, nil
}
