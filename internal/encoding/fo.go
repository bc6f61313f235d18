package encoding

// KindFO is the wire format of the randomized Felber–Ostrovsky summary
// (internal/fo): the guarantee pair (eps, delta — δ must travel so COMBINE
// merges keep summing it honestly), the total weight, the cascade geometry
// (bottom weight exponent plus one length-prefixed value list per level),
// the open sampler window (its exponent, progress, pre-drawn pick and
// candidate value), the exact extremes, and the splitmix64 generator state —
// the last is what makes snapshot → restore → resume bit-for-bit identical
// to an uninterrupted run. Every length prefix is guarded by need() and
// fo.Restore re-validates the decoded structure (exponent ranges, window
// bounds, per-level occupancy against the block capacity, retained-weight
// plausibility), so corrupt payloads are rejected rather than revived.

import (
	"errors"
	"fmt"

	"quantilelb/internal/fo"
	"quantilelb/internal/order"
)

// EncodeFO serializes a randomized Felber–Ostrovsky summary.
func EncodeFO(s *fo.Summary[float64]) ([]byte, error) {
	if s == nil {
		return nil, errors.New("encoding: nil summary")
	}
	st := s.ExportState()
	hasExt := st.HasMin && st.HasMax
	body := 8 + 8 + 8 + 2 + 2 + 8 + 8 + 8 + 8 + extremesLen(hasExt) + 2
	for _, lv := range st.Levels {
		body += 4 + 8*len(lv)
	}
	w := newPayload(KindFO, body)
	w.f64(st.Eps)
	w.f64(st.Delta)
	w.i64(st.N)
	w.u16(uint16(st.Base))
	w.u16(uint16(st.WinExp))
	w.i64(st.WinSeen)
	w.i64(st.WinPick)
	w.f64(st.WinVal)
	w.u64(st.RNG)
	writeExtremes(&w, st.Min, st.Max, hasExt)
	w.u16(uint16(len(st.Levels)))
	for _, lv := range st.Levels {
		w.u32(uint32(len(lv)))
		for _, v := range lv {
			w.f64(v)
		}
	}
	return w.buf, nil
}

// DecodeFO reconstructs a randomized summary, validating the payload both
// structurally (length guards, level-count cap) and semantically through
// fo.Restore's invariant checks.
func DecodeFO(payload []byte) (*fo.Summary[float64], error) {
	r, err := openKind(payload, KindFO, "FO")
	if err != nil {
		return nil, err
	}
	var st fo.State[float64]
	st.Eps = r.f64()
	st.Delta = r.f64()
	st.N = r.i64()
	st.Base = int(r.u16())
	st.WinExp = int(r.u16())
	st.WinSeen = r.i64()
	st.WinPick = r.i64()
	st.WinVal = r.f64()
	st.RNG = r.u64()
	st.Min, st.Max, st.HasMin = readExtremes(&r)
	st.HasMax = st.HasMin
	numLevels := r.u16()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated FO header: %w", r.err)
	}
	if numLevels > 64 {
		return nil, fmt.Errorf("encoding: FO payload declares %d levels, cap is 64", numLevels)
	}
	st.Levels = make([][]float64, numLevels)
	for i := range st.Levels {
		n := r.u32()
		if !r.need(int64(n) * 8) {
			return nil, fmt.Errorf("encoding: truncated FO level %d: %w", i, r.err)
		}
		lv := make([]float64, n)
		for j := range lv {
			lv[j] = r.f64()
		}
		st.Levels[i] = lv
	}
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated FO payload: %w", r.err)
	}
	s, err := fo.Restore(order.Floats[float64](), st)
	if err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	return s, nil
}
