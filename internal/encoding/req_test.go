package encoding

// Round-trip and hardening tests for the REQ kind: a decoded summary must
// answer identically to the original (the family is deterministic), keep
// merging, and the decoder must reject structurally inconsistent payloads —
// out-of-order entries, inexact extreme entries, oversized buffers, and
// weight totals that do not conserve — mirroring the MLQ hardening. Every
// state reachable through the public API round-trips: plain, buffered,
// weighted, NaN-bearing, merged, and pruned.

import (
	"math"
	"strings"
	"testing"

	"quantilelb/internal/req"
	"quantilelb/internal/stream"
)

func TestREQRoundTrip(t *testing.T) {
	gen := stream.NewGenerator(23)
	st := gen.Shuffled(30_000)
	s := req.NewFloat64(0.01)
	s.UpdateBatch(st.Items()[:25_000])
	for _, x := range st.Items()[25_000:] {
		s.Update(x) // leave a partially filled buffer
	}
	s.WeightedUpdate(12345.5, 321) // and a weighted buffered item
	payload, err := EncodeREQ(s)
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := DetectKind(payload); err != nil || kind != KindREQ {
		t.Fatalf("DetectKind = %v, %v", kind, err)
	}
	restored, err := DecodeREQ(payload)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count() != s.Count() || restored.StoredCount() != s.StoredCount() {
		t.Fatalf("restored counts differ: %d/%d vs %d/%d",
			restored.Count(), restored.StoredCount(), s.Count(), s.StoredCount())
	}
	if restored.Epsilon() != s.Epsilon() || restored.BufferSize() != s.BufferSize() {
		t.Errorf("restored parameters differ")
	}
	if err := restored.CheckInvariant(); err != nil {
		t.Fatalf("restored summary invariant: %v", err)
	}
	// REQ is deterministic, so the restored summary answers identically.
	for _, phi := range []float64{0, 0.1, 0.5, 0.9, 0.999, 1} {
		a, _ := s.Query(phi)
		b, _ := restored.Query(phi)
		if a != b {
			t.Errorf("phi=%v: original %v, restored %v", phi, a, b)
		}
		if s.EstimateRank(a) != restored.EstimateRank(a) {
			t.Errorf("phi=%v: EstimateRank diverges after restore", phi)
		}
	}
	// Restored summaries still merge (the coordinator use case) — with any
	// other req summary, since the merge is a free COMBINE.
	other := req.NewFloat64(0.02)
	other.UpdateBatch(gen.Shuffled(10_000).Items())
	if err := restored.Merge(other); err != nil {
		t.Fatalf("merge after restore: %v", err)
	}
	if restored.Count() != s.Count()+10_000 {
		t.Errorf("count after merge = %d", restored.Count())
	}
	if restored.Epsilon() != 0.02 {
		t.Errorf("merge eps = %v, want the max 0.02", restored.Epsilon())
	}
	// Round trip through the generic dispatch too.
	generic, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(generic)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dec.(*req.Summary); !ok {
		t.Fatalf("generic Decode returned %T", dec)
	}
}

// TestREQRoundTripReachableStates walks every state the public API can
// produce — empty, buffer-only, folded, deeply compacted, merged, pruned, and
// pruned-to-one — and requires each to survive the wire unchanged.
func TestREQRoundTripReachableStates(t *testing.T) {
	gen := stream.NewGenerator(29)
	build := map[string]func() *req.Summary{
		"empty": func() *req.Summary { return req.NewFloat64(0.05) },
		"buffer-only": func() *req.Summary {
			s := req.NewFloat64(0.05)
			for i := 0; i < 10; i++ {
				s.Update(float64(i))
			}
			return s
		},
		"folded": func() *req.Summary {
			s := req.NewFloat64(0.05)
			s.UpdateBatch(gen.Shuffled(20_000).Items())
			return s
		},
		"merged": func() *req.Summary {
			a := req.NewFloat64(0.05)
			a.UpdateBatch(gen.Zipf(8_000, 1.2, 16).Items())
			b := req.NewFloat64(0.02)
			b.UpdateBatch(gen.Sorted(8_000).Items())
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			return a
		},
		"pruned": func() *req.Summary {
			s := req.NewFloat64(0.02)
			s.UpdateBatch(gen.Shuffled(20_000).Items())
			s.Prune(50)
			return s
		},
		"pruned-to-one": func() *req.Summary {
			s := req.NewFloat64(0.02)
			s.UpdateBatch(gen.Shuffled(20_000).Items())
			s.Prune(1)
			return s
		},
	}
	for name, mk := range build {
		s := mk()
		payload, err := EncodeREQ(s)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		restored, err := DecodeREQ(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if restored.Count() != s.Count() || restored.StoredCount() != s.StoredCount() {
			t.Fatalf("%s: restored counts differ", name)
		}
		if restored.Epsilon() != s.Epsilon() {
			t.Fatalf("%s: restored eps %v, want %v", name, restored.Epsilon(), s.Epsilon())
		}
		if err := restored.CheckInvariant(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, phi := range []float64{0, 0.5, 0.9999, 1} {
			a, aok := s.Query(phi)
			b, bok := restored.Query(phi)
			if aok != bok || a != b {
				t.Fatalf("%s: phi=%v: original %v,%v restored %v,%v", name, phi, a, aok, b, bok)
			}
		}
	}
}

// TestREQNaNRoundTrip round-trips a NaN-bearing summary: req orders values
// under the NaN-first total order, so NaN payloads are valid — and the
// restored summary must answer queries rather than misbehave in the fold.
func TestREQNaNRoundTrip(t *testing.T) {
	s := req.NewFloat64(0.05)
	for i := 0; i < 2_000; i++ {
		if i%17 == 0 {
			s.Update(math.NaN())
		} else {
			s.Update(float64(i % 311))
		}
	}
	s.WeightedUpdate(math.NaN(), 9) // a NaN in the weighted buffer too
	payload, err := EncodeREQ(s)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeREQ(payload)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count() != s.Count() || restored.StoredCount() != s.StoredCount() {
		t.Fatalf("restored counts differ: %d/%d vs %d/%d",
			restored.Count(), restored.StoredCount(), s.Count(), s.StoredCount())
	}
	if err := restored.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{0, 0.1, 0.5, 1} {
		a, _ := s.Query(phi)
		b, _ := restored.Query(phi)
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Errorf("phi=%v: original %v, restored %v", phi, a, b)
		}
	}
	if a, b := s.EstimateRank(math.NaN()), restored.EstimateRank(math.NaN()); a != b {
		t.Errorf("EstimateRank(NaN) diverges after restore: %d vs %d", a, b)
	}
}

// reqPayload hand-writes a REQ payload so tests can express states the
// encoder itself refuses to produce.
func reqPayload(eps float64, b uint32, count int64, buffered []req.WeightedValue, entries []req.Entry) []byte {
	w := &writer{}
	w.u32(Magic)
	w.u16(Version)
	w.u16(uint16(KindREQ))
	w.f64(eps)
	w.u32(b)
	w.i64(count)
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
	return w.buf
}

// reqExactEntries builds an exact-summary entry slice over 1..n unit values.
func reqExactEntries(n int) []req.Entry {
	out := make([]req.Entry, n)
	for i := range out {
		out[i] = req.Entry{V: float64(i + 1), W: 1, Rmin: int64(i), Rmax: int64(i + 1)}
	}
	return out
}

// TestREQDecodeRejections drives the decoder's hardening: each corrupt shape
// must produce an error naming the problem, not a summary.
func TestREQDecodeRejections(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		wantErr string
	}{
		{"oversized buffer",
			reqPayload(0.1, 2, 3, []req.WeightedValue{{V: 1, W: 1}, {V: 2, W: 1}, {V: 3, W: 1}}, nil),
			"buffered"},
		{"non-positive buffered weight",
			reqPayload(0.1, 8, 1, []req.WeightedValue{{V: 1, W: 0}}, nil),
			"not positive"},
		{"count does not conserve",
			reqPayload(0.1, 8, 99, nil, reqExactEntries(3)),
			"count"},
		{"bad epsilon",
			reqPayload(7, 8, 0, nil, nil),
			"epsilon"},
		{"tiny buffer size",
			reqPayload(0.1, 1, 0, nil, nil),
			"REQ payload"},
		{"duplicate values",
			reqPayload(0.1, 8, 2, nil, []req.Entry{
				{V: 1, W: 1, Rmin: 0, Rmax: 1}, {V: 1, W: 1, Rmin: 1, Rmax: 2},
			}),
			"strictly increasing"},
		{"rank bounds narrower than weight",
			reqPayload(0.1, 8, 4, nil, []req.Entry{
				{V: 1, W: 1, Rmin: 0, Rmax: 1},
				{V: 2, W: 2, Rmin: 1, Rmax: 2},
				{V: 3, W: 1, Rmin: 3, Rmax: 4},
			}),
			"narrower"},
		{"first entry not exact",
			reqPayload(0.1, 8, 3, nil, []req.Entry{
				{V: 1, W: 1, Rmin: 0, Rmax: 2}, {V: 2, W: 1, Rmin: 2, Rmax: 3},
			}),
			"first entry"},
		{"last entry not exact",
			reqPayload(0.1, 8, 3, nil, []req.Entry{
				{V: 1, W: 1, Rmin: 0, Rmax: 1}, {V: 2, W: 1, Rmin: 1, Rmax: 3},
			}),
			"last entry"},
		{"first Rmin nonzero",
			reqPayload(0.1, 8, 2, nil, []req.Entry{
				{V: 1, W: 1, Rmin: 1, Rmax: 2}, {V: 2, W: 1, Rmin: 1, Rmax: 2},
			}),
			"first Rmin"},
		// NaN equals NaN in the total order, so a repeated NaN entry is a
		// duplicate, and NaN after a finite value is out of order.
		{"duplicate NaN values",
			reqPayload(0.1, 8, 2, nil, []req.Entry{
				{V: math.NaN(), W: 1, Rmin: 0, Rmax: 1}, {V: math.NaN(), W: 1, Rmin: 1, Rmax: 2},
			}),
			"strictly increasing"},
		{"NaN after a finite value",
			reqPayload(0.1, 8, 2, nil, []req.Entry{
				{V: 1, W: 1, Rmin: 0, Rmax: 1}, {V: math.NaN(), W: 1, Rmin: 1, Rmax: 2},
			}),
			"strictly increasing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := DecodeREQ(tc.payload)
			if err == nil {
				t.Fatalf("decoded a %s payload into %v", tc.name, s)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	// The weight-conservation case must also trip through generic Decode.
	if _, err := Decode(reqPayload(0.1, 8, 99, nil, nil)); err == nil {
		t.Fatal("generic Decode accepted a non-conserving REQ payload")
	}
}

// TestREQDecodeNaNPayloadUsable decodes the shape a hostile peer could ship —
// a NaN buffered value plus a single NaN entry, which the strictly-increasing
// check alone never inspects — and requires the result to answer queries
// under the NaN-first total order (the lesson the MLQ tier learned the hard
// way).
func TestREQDecodeNaNPayloadUsable(t *testing.T) {
	nan := math.NaN()
	payload := reqPayload(0.1, 8, 5,
		[]req.WeightedValue{{V: nan, W: 2}, {V: 3, W: 1}},
		[]req.Entry{{V: nan, W: 2, Rmin: 0, Rmax: 2}})
	s, err := DecodeREQ(payload)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Query(0); !ok || !math.IsNaN(v) {
		t.Fatalf("Query(0) = %v, %v; want NaN", v, ok)
	}
	if got := s.EstimateRank(nan); got != 4 {
		t.Fatalf("EstimateRank(NaN) = %d, want 4", got)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestREQWrongKind pins the kind check: a payload of another family must not
// decode as REQ and vice versa.
func TestREQWrongKind(t *testing.T) {
	s := req.NewFloat64(0.05)
	s.Update(1)
	payload, err := EncodeREQ(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMLQ(payload); err == nil {
		t.Fatal("DecodeMLQ accepted a REQ payload")
	}
	if _, err := DecodeGK(payload); err == nil {
		t.Fatal("DecodeGK accepted a REQ payload")
	}
}
