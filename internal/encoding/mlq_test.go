package encoding

// Round-trip and hardening tests for the MLQ kind: a decoded summary must
// answer identically to the original (the family is deterministic), keep
// merging, and the decoder must reject structurally inconsistent payloads —
// duplicate values inside a level, oversized levels below the horizon,
// oversized buffers, and weight totals that do not conserve — mirroring the
// KindStore container hardening.

import (
	"math"
	"strings"
	"testing"

	"quantilelb/internal/mlq"
	"quantilelb/internal/stream"
)

func TestMLQRoundTrip(t *testing.T) {
	gen := stream.NewGenerator(21)
	st := gen.Shuffled(30_000)
	s := mlq.NewFloat64(0.01)
	s.UpdateBatch(st.Items()[:25_000])
	for _, x := range st.Items()[25_000:] {
		s.Update(x) // leave a partially filled buffer
	}
	s.WeightedUpdate(12345.5, 321) // and a weighted buffered item
	payload, err := EncodeMLQ(s)
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := DetectKind(payload); err != nil || kind != KindMLQ {
		t.Fatalf("DetectKind = %v, %v", kind, err)
	}
	restored, err := DecodeMLQ(payload)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count() != s.Count() || restored.StoredCount() != s.StoredCount() {
		t.Fatalf("restored counts differ: %d/%d vs %d/%d",
			restored.Count(), restored.StoredCount(), s.Count(), s.StoredCount())
	}
	if restored.Epsilon() != s.Epsilon() || restored.BlockSize() != s.BlockSize() || restored.MaxLevels() != s.MaxLevels() {
		t.Errorf("restored parameters differ")
	}
	if err := restored.CheckInvariant(); err != nil {
		t.Fatalf("restored summary invariant: %v", err)
	}
	// MLQ is deterministic, so the restored summary answers identically.
	for _, phi := range []float64{0, 0.1, 0.5, 0.9, 1} {
		a, _ := s.Query(phi)
		b, _ := restored.Query(phi)
		if a != b {
			t.Errorf("phi=%v: original %v, restored %v", phi, a, b)
		}
		if s.EstimateRank(a) != restored.EstimateRank(a) {
			t.Errorf("phi=%v: EstimateRank diverges after restore", phi)
		}
	}
	// Restored summaries still merge (the coordinator use case).
	other := mlq.NewFloat64(0.01)
	other.UpdateBatch(gen.Shuffled(10_000).Items())
	if err := restored.Merge(other); err != nil {
		t.Fatalf("merge after restore: %v", err)
	}
	if restored.Count() != s.Count()+10_000 {
		t.Errorf("count after merge = %d", restored.Count())
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
	if _, ok := dec.(*mlq.Summary); !ok {
		t.Fatalf("generic Decode returned %T", dec)
	}
}

func TestMLQRoundTripEmptyAndDeep(t *testing.T) {
	empty := mlq.NewFloat64(0.05)
	deep := mlq.NewFloat64(0.05, mlq.WithBlockSize(64))
	for i := 0; i < 8_000; i++ {
		deep.Update(float64(i % 311))
	}
	for name, s := range map[string]*mlq.Summary{"empty": empty, "deep-cascade": deep} {
		payload, err := EncodeMLQ(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		restored, err := DecodeMLQ(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if restored.Count() != s.Count() || restored.StoredCount() != s.StoredCount() {
			t.Fatalf("%s: restored counts differ", name)
		}
		if err := restored.CheckInvariant(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestMLQNaNRoundTrip round-trips a NaN-bearing summary: mlq orders values
// under the NaN-first total order (like the other families), so NaN payloads
// are valid — and the restored summary must answer queries rather than hang
// in the buffer-fold path.
func TestMLQNaNRoundTrip(t *testing.T) {
	s := mlq.NewFloat64(0.05, mlq.WithBlockSize(64))
	for i := 0; i < 2_000; i++ {
		if i%17 == 0 {
			s.Update(math.NaN())
		} else {
			s.Update(float64(i % 311))
		}
	}
	s.WeightedUpdate(math.NaN(), 9) // a NaN in the weighted buffer too
	payload, err := EncodeMLQ(s)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeMLQ(payload)
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

// TestMLQPrunedRoundTrip encodes pruned summaries at both edge sizes: k far
// above b (the flattened summary exceeds b+1 entries, so it must sit on the
// top level, the one level Restore allows past the cap) and k = 1 (the +1/k
// degradation saturates and the recorded eps must stay inside (0,1)).
func TestMLQPrunedRoundTrip(t *testing.T) {
	for _, k := range []int{1, 500} {
		s := mlq.NewFloat64(0.05, mlq.WithBlockSize(64))
		for i := 0; i < 20_000; i++ {
			s.Update(float64((i * 6151) % 997))
		}
		s.Prune(k)
		payload, err := EncodeMLQ(s)
		if err != nil {
			t.Fatalf("Prune(%d): encode: %v", k, err)
		}
		restored, err := DecodeMLQ(payload)
		if err != nil {
			t.Fatalf("Prune(%d): decode: %v", k, err)
		}
		if restored.Count() != s.Count() || restored.StoredCount() != s.StoredCount() {
			t.Fatalf("Prune(%d): restored counts differ", k)
		}
		if restored.Epsilon() >= 1 {
			t.Fatalf("Prune(%d): restored eps %v escaped (0,1)", k, restored.Epsilon())
		}
		if err := restored.CheckInvariant(); err != nil {
			t.Fatalf("Prune(%d): %v", k, err)
		}
	}
}

// mlqPayload hand-writes an MLQ payload so tests can express states the
// encoder itself refuses to produce.
type mlqLevel struct {
	eps     float64
	entries []mlq.Entry
}

func mlqPayload(eps float64, b, maxLevels uint32, count int64, buffered []mlq.WeightedValue, levels []mlqLevel) []byte {
	w := &writer{}
	w.u32(Magic)
	w.u16(Version)
	w.u16(uint16(KindMLQ))
	w.f64(eps)
	w.u32(b)
	w.u32(maxLevels)
	w.i64(count)
	w.u32(uint32(len(buffered)))
	for _, p := range buffered {
		w.f64(p.V)
		w.i64(p.W)
	}
	w.u32(uint32(len(levels)))
	for _, lv := range levels {
		w.f64(lv.eps)
		w.u32(uint32(len(lv.entries)))
		for _, e := range lv.entries {
			w.f64(e.V)
			w.i64(e.W)
			w.i64(e.Rmin)
			w.i64(e.Rmax)
		}
	}
	return w.buf
}

// exactEntries builds an exact-summary entry slice over 1..n unit values.
func exactEntries(n int) []mlq.Entry {
	out := make([]mlq.Entry, n)
	for i := range out {
		out[i] = mlq.Entry{V: float64(i + 1), W: 1, Rmin: int64(i), Rmax: int64(i + 1)}
	}
	return out
}

// TestMLQDecodeRejections drives the decoder's hardening: each corrupt shape
// must produce an error naming the problem, not a summary.
func TestMLQDecodeRejections(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		wantErr string
	}{
		{"oversized level below horizon",
			mlqPayload(0.1, 4, 4, 7, nil, []mlqLevel{{eps: 0, entries: exactEntries(7)}}),
			"entries"},
		{"duplicate values in a level",
			mlqPayload(0.1, 8, 4, 2, nil, []mlqLevel{{eps: 0, entries: []mlq.Entry{
				{V: 1, W: 1, Rmin: 0, Rmax: 1}, {V: 1, W: 1, Rmin: 1, Rmax: 2},
			}}}),
			"strictly increasing"},
		{"oversized buffer",
			mlqPayload(0.1, 4, 4, 6, []mlq.WeightedValue{{V: 1, W: 1}, {V: 2, W: 1}, {V: 3, W: 1}, {V: 4, W: 1}, {V: 5, W: 1}, {V: 6, W: 1}}, nil),
			"buffered"},
		{"non-positive buffered weight",
			mlqPayload(0.1, 8, 4, 1, []mlq.WeightedValue{{V: 1, W: 0}}, nil),
			"not positive"},
		{"count does not conserve",
			mlqPayload(0.1, 8, 4, 99, nil, []mlqLevel{{eps: 0, entries: exactEntries(3)}}),
			"count"},
		{"bad epsilon",
			mlqPayload(7, 8, 4, 0, nil, nil),
			"epsilon"},
		{"too many levels declared",
			mlqPayload(0.1, 8, 70, 0, nil, nil),
			"levels"},
		{"rank bounds narrower than weight",
			mlqPayload(0.1, 8, 4, 2, nil, []mlqLevel{{eps: 0, entries: []mlq.Entry{
				{V: 1, W: 2, Rmin: 0, Rmax: 1}, {V: 2, W: 1, Rmin: 1, Rmax: 2},
			}}}),
			"narrower"},
		// NaN equals NaN in the total order, so a repeated NaN entry is a
		// duplicate, and NaN after a finite value is out of order.
		{"duplicate NaN values in a level",
			mlqPayload(0.1, 8, 4, 2, nil, []mlqLevel{{eps: 0, entries: []mlq.Entry{
				{V: math.NaN(), W: 1, Rmin: 0, Rmax: 1}, {V: math.NaN(), W: 1, Rmin: 1, Rmax: 2},
			}}}),
			"strictly increasing"},
		{"NaN after a finite value",
			mlqPayload(0.1, 8, 4, 2, nil, []mlqLevel{{eps: 0, entries: []mlq.Entry{
				{V: 1, W: 1, Rmin: 0, Rmax: 1}, {V: math.NaN(), W: 1, Rmin: 1, Rmax: 2},
			}}}),
			"strictly increasing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := DecodeMLQ(tc.payload)
			if err == nil {
				t.Fatalf("decoded a %s payload into %v", tc.name, s)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	// The weight-conservation case must also trip through generic Decode.
	if _, err := Decode(mlqPayload(0.1, 8, 4, 99, nil, nil)); err == nil {
		t.Fatal("generic Decode accepted a non-conserving MLQ payload")
	}
}

// TestMLQDecodeNaNPayloadUsable decodes the exact shape a hostile peer could
// ship — a NaN buffered value plus a single-entry NaN level, which the
// strictly-increasing check alone never inspects — and requires the result
// to answer queries. Before mlq adopted the NaN-first total order this
// payload decoded fine and the first Query/EstimateRank spun forever in the
// buffer fold, a remote DoS on the snapshot-merge tier; the test's own
// -timeout is the hang detector.
func TestMLQDecodeNaNPayloadUsable(t *testing.T) {
	nan := math.NaN()
	payload := mlqPayload(0.1, 8, 4, 5,
		[]mlq.WeightedValue{{V: nan, W: 2}, {V: 3, W: 1}},
		[]mlqLevel{{eps: 0, entries: []mlq.Entry{{V: nan, W: 2, Rmin: 0, Rmax: 2}}}})
	s, err := DecodeMLQ(payload)
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
