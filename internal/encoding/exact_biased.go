package encoding

import (
	"errors"
	"fmt"

	"quantilelb/internal/biased"
	"quantilelb/internal/exact"
)

// EncodeExact serializes an exact sorted-sample buffer (the cold-key stage of
// the multi-tenant store): total weight, a weighted-representation flag, the
// sorted values, and — when weighted — the parallel weights. A buffered store
// key snapshots as its exact items, so restore/merge reproduce it losslessly.
func EncodeExact(b *exact.Buffer) ([]byte, error) {
	if b == nil {
		return nil, errors.New("encoding: nil buffer")
	}
	vals := b.Values()
	wts := b.Weights()
	w := newPayload(KindExact, 8+2+4+8*len(vals)+8*len(wts))
	w.i64(int64(b.Count()))
	if wts == nil {
		w.u16(0)
	} else {
		w.u16(1)
	}
	w.u32(uint32(len(vals)))
	for _, v := range vals {
		w.f64(v)
	}
	for _, wt := range wts {
		w.i64(wt)
	}
	return w.buf, nil
}

// DecodeExact reconstructs an exact buffer serialized by EncodeExact.
func DecodeExact(payload []byte) (*exact.Buffer, error) {
	r, err := openKind(payload, KindExact, "exact")
	if err != nil {
		return nil, err
	}
	count := r.i64()
	weighted := r.u16()
	numVals := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated exact header: %w", r.err)
	}
	if count < 0 || weighted > 1 || int64(numVals) > count {
		return nil, fmt.Errorf("encoding: inconsistent exact payload (n=%d, vals=%d, weighted=%d)", count, numVals, weighted)
	}
	perVal := int64(8)
	if weighted == 1 {
		perVal = 16
	}
	if !r.need(int64(numVals) * perVal) {
		return nil, fmt.Errorf("encoding: truncated exact values: %w", r.err)
	}
	vals := make([]float64, numVals)
	for i := range vals {
		vals[i] = r.f64()
	}
	var wts []int64
	if weighted == 1 {
		wts = make([]int64, numVals)
		for i := range wts {
			wts[i] = r.i64()
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated exact payload: %w", r.err)
	}
	b, err := exact.Restore(vals, wts, count)
	if err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	return b, nil
}

// EncodeBiased serializes a float64 biased (relative-error) summary: its
// relative accuracy, count, and (v, g, Δ) tuple list.
func EncodeBiased(s *biased.Summary[float64]) ([]byte, error) {
	if s == nil {
		return nil, errors.New("encoding: nil summary")
	}
	tuples := s.Tuples()
	w := newPayload(KindBiased, 8+8+4+24*len(tuples))
	w.f64(s.Epsilon())
	w.i64(int64(s.Count()))
	w.u32(uint32(len(tuples)))
	for _, t := range tuples {
		w.f64(t.V)
		w.i64(int64(t.G))
		w.i64(int64(t.Delta))
	}
	return w.buf, nil
}

// DecodeBiased reconstructs a float64 biased summary serialized by
// EncodeBiased.
func DecodeBiased(payload []byte) (*biased.Summary[float64], error) {
	r, err := openKind(payload, KindBiased, "biased")
	if err != nil {
		return nil, err
	}
	eps := r.f64()
	count := r.i64()
	numTuples := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated biased header: %w", r.err)
	}
	if count < 0 || int64(numTuples) > count {
		return nil, fmt.Errorf("encoding: inconsistent biased payload (n=%d, tuples=%d)", count, numTuples)
	}
	if !r.need(int64(numTuples) * 24) {
		return nil, fmt.Errorf("encoding: truncated biased tuples: %w", r.err)
	}
	tuples := make([]biased.Tuple[float64], numTuples)
	for i := range tuples {
		tuples[i] = biased.Tuple[float64]{V: r.f64(), G: int(r.i64()), Delta: int(r.i64())}
	}
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated biased tuples: %w", r.err)
	}
	s, err := biased.RestoreFloat64(eps, int(count), tuples)
	if err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	return s, nil
}
