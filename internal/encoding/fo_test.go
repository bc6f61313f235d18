package encoding

// Round-trip, determinism, and hardening tests for the FO kind. The family
// is randomized, so the wire format must carry the splitmix64 generator
// state: the determinism tests pin the PR's contract that the same seed and
// input produce byte-identical payloads, and that encode → decode → resume
// is bit-for-bit indistinguishable from an uninterrupted run. The rejection
// table drives hand-written payloads through every validator in DecodeFO and
// fo.Restore; FuzzFODecode sprays truncations and bit flips over the same
// shapes.

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"quantilelb/internal/fo"
	"quantilelb/internal/stream"
)

func foTestSummary(seed int64, n int) *fo.Summary[float64] {
	s := fo.NewFloat64(fo.Config{Eps: 0.02, Delta: 0.05, Seed: seed})
	gen := stream.NewGenerator(31)
	s.UpdateBatch(gen.Shuffled(n).Items())
	return s
}

func TestFORoundTrip(t *testing.T) {
	s := foTestSummary(7, 30_000)
	s.WeightedUpdate(12345.5, 321)
	payload, err := EncodeFO(s)
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := DetectKind(payload); err != nil || kind != KindFO {
		t.Fatalf("DetectKind = %v, %v", kind, err)
	}
	restored, err := DecodeFO(payload)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count() != s.Count() || restored.StoredCount() != s.StoredCount() {
		t.Fatalf("restored counts differ: %d/%d vs %d/%d",
			restored.Count(), restored.StoredCount(), s.Count(), s.StoredCount())
	}
	if restored.Epsilon() != s.Epsilon() || restored.Delta() != s.Delta() {
		t.Errorf("restored guarantee pair differs: (%v, %v) vs (%v, %v)",
			restored.Epsilon(), restored.Delta(), s.Epsilon(), s.Delta())
	}
	// Restore is faithful — the full exported state survives the wire,
	// including the generator state and the open sampler window.
	if !reflect.DeepEqual(restored.ExportState(), s.ExportState()) {
		t.Fatal("restored state differs from the original")
	}
	for _, phi := range []float64{0, 0.1, 0.5, 0.9, 0.999, 1} {
		a, aok := s.Query(phi)
		b, bok := restored.Query(phi)
		if aok != bok || a != b {
			t.Errorf("phi=%v: original %v,%v restored %v,%v", phi, a, aok, b, bok)
		}
		if s.EstimateRank(a) != restored.EstimateRank(a) {
			t.Errorf("phi=%v: EstimateRank diverges after restore", phi)
		}
	}
	// Restored summaries still merge (the coordinator use case) — with any
	// other fo summary, since the merge is a free COMBINE.
	other := fo.NewFloat64(fo.Config{Eps: 0.05, Delta: 0.01, Seed: 8})
	other.UpdateBatch(stream.NewGenerator(32).Shuffled(10_000).Items())
	if err := restored.Merge(other); err != nil {
		t.Fatalf("merge after restore: %v", err)
	}
	if restored.Count() != s.Count()+10_000 {
		t.Errorf("count after merge = %d", restored.Count())
	}
	if restored.Epsilon() != 0.05 {
		t.Errorf("merge eps = %v, want the max 0.05", restored.Epsilon())
	}
	if got := restored.Delta(); math.Abs(got-0.06) > 1e-12 {
		t.Errorf("merge delta = %v, want the sum 0.06", got)
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
	if _, ok := dec.(*fo.Summary[float64]); !ok {
		t.Fatalf("generic Decode returned %T", dec)
	}
}

// TestFORoundTripReachableStates walks every state the public API can
// produce — empty, sampler-passthrough, folded, weighted, NaN-bearing,
// merged, and pruned — and requires each to survive the wire with its full
// state intact.
func TestFORoundTripReachableStates(t *testing.T) {
	gen := stream.NewGenerator(33)
	build := map[string]func() *fo.Summary[float64]{
		"empty": func() *fo.Summary[float64] {
			return fo.NewFloat64(fo.Config{Eps: 0.05, Delta: 0.05, Seed: 1})
		},
		"passthrough": func() *fo.Summary[float64] {
			s := fo.NewFloat64(fo.Config{Eps: 0.05, Delta: 0.05, Seed: 2})
			for i := 0; i < 10; i++ {
				s.Update(float64(i))
			}
			return s
		},
		"folded": func() *fo.Summary[float64] {
			s := fo.NewFloat64(fo.Config{Eps: 0.1, Delta: 0.2, Seed: 3})
			s.UpdateBatch(gen.Shuffled(30_000).Items())
			return s
		},
		"weighted": func() *fo.Summary[float64] {
			s := fo.NewFloat64(fo.Config{Eps: 0.05, Delta: 0.05, Seed: 4})
			for i := 0; i < 200; i++ {
				s.WeightedUpdate(float64(i%31), int64(i%7+1)<<uint(i%11))
			}
			return s
		},
		"nan": func() *fo.Summary[float64] {
			s := fo.NewFloat64(fo.Config{Eps: 0.05, Delta: 0.05, Seed: 5})
			for i := 0; i < 2_000; i++ {
				if i%17 == 0 {
					s.Update(math.NaN())
				} else {
					s.Update(float64(i % 311))
				}
			}
			s.WeightedUpdate(math.NaN(), 9)
			return s
		},
		"merged": func() *fo.Summary[float64] {
			a := fo.NewFloat64(fo.Config{Eps: 0.05, Delta: 0.02, Seed: 6})
			a.UpdateBatch(gen.Zipf(8_000, 1.2, 16).Items())
			b := fo.NewFloat64(fo.Config{Eps: 0.02, Delta: 0.01, Seed: 7})
			b.UpdateBatch(gen.Sorted(8_000).Items())
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			return a
		},
		"pruned": func() *fo.Summary[float64] {
			s := fo.NewFloat64(fo.Config{Eps: 0.02, Delta: 0.05, Seed: 8})
			s.UpdateBatch(gen.Shuffled(20_000).Items())
			s.Prune(64)
			return s
		},
	}
	for name, mk := range build {
		s := mk()
		payload, err := EncodeFO(s)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		restored, err := DecodeFO(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		// Byte-level identity instead of DeepEqual: the nan shape carries NaN
		// values, which never compare equal, but their bit patterns do.
		if again, err := EncodeFO(restored); err != nil || !bytes.Equal(payload, again) {
			t.Fatalf("%s: re-encode differs from the original payload (err=%v)", name, err)
		}
		for _, phi := range []float64{0, 0.5, 0.9999, 1} {
			a, aok := s.Query(phi)
			b, bok := restored.Query(phi)
			if aok != bok || (a != b && !(math.IsNaN(a) && math.IsNaN(b))) {
				t.Fatalf("%s: phi=%v: original %v,%v restored %v,%v", name, phi, a, aok, b, bok)
			}
		}
	}
}

// TestFOEncodeDeterministic pins the reproducibility contract: two summaries
// built from the same seed and the same input stream — in separate runs with
// nothing shared — must produce byte-identical payloads and identical
// answers. This is what makes every randomized test in the repository
// replayable from its logged seed.
func TestFOEncodeDeterministic(t *testing.T) {
	mk := func() *fo.Summary[float64] {
		s := foTestSummary(11, 30_000)
		s.WeightedUpdate(77.5, 1000)
		s.UpdateBatch(stream.NewGenerator(34).Zipf(5_000, 1.2, 16).Items())
		return s
	}
	a, b := mk(), mk()
	pa, err := EncodeFO(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := EncodeFO(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa, pb) {
		t.Fatal("same seed + same input produced different payloads")
	}
	for i := 0; i <= 100; i++ {
		phi := float64(i) / 100
		va, _ := a.Query(phi)
		vb, _ := b.Query(phi)
		if va != vb {
			t.Fatalf("phi=%v: answers diverge: %v vs %v", phi, va, vb)
		}
	}
}

// TestFOResumeMatchesUninterrupted is the snapshot/restore half of the
// determinism contract: cut a run in the middle, push it through the wire,
// resume — the final payload must be byte-identical to the uninterrupted
// run's, because the wire carries the generator state and the open window.
func TestFOResumeMatchesUninterrupted(t *testing.T) {
	items := stream.NewGenerator(35).Shuffled(30_000).Items()
	const cut = 17_113 // mid-window on purpose: not a power-of-two boundary
	cfg := fo.Config{Eps: 0.02, Delta: 0.05, Seed: 13}

	uninterrupted := fo.NewFloat64(cfg)
	for _, x := range items {
		uninterrupted.Update(x)
	}

	first := fo.NewFloat64(cfg)
	for _, x := range items[:cut] {
		first.Update(x)
	}
	mid, err := EncodeFO(first)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := DecodeFO(mid)
	if err != nil {
		t.Fatal(err)
	}
	// encode → decode → encode is the identity.
	if again, err := EncodeFO(resumed); err != nil || !bytes.Equal(mid, again) {
		t.Fatalf("re-encode after decode differs (err=%v)", err)
	}
	for _, x := range items[cut:] {
		resumed.Update(x)
	}
	pu, err := EncodeFO(uninterrupted)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := EncodeFO(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pu, pr) {
		t.Fatal("resumed run's payload differs from the uninterrupted run's")
	}
	for i := 0; i <= 100; i++ {
		phi := float64(i) / 100
		va, _ := uninterrupted.Query(phi)
		vb, _ := resumed.Query(phi)
		if va != vb {
			t.Fatalf("phi=%v: resumed answers diverge: %v vs %v", phi, va, vb)
		}
	}
}

// foWire hand-writes an FO payload so tests can express states the encoder
// itself refuses to produce.
type foWire struct {
	eps, delta       float64
	n                int64
	base, winExp     uint16
	winSeen, winPick int64
	winVal           float64
	rng              uint64
	hasExt           bool
	min, max         float64
	levels           [][]float64
}

func (p foWire) bytes() []byte {
	w := &writer{}
	w.u32(Magic)
	w.u16(Version)
	w.u16(uint16(KindFO))
	w.f64(p.eps)
	w.f64(p.delta)
	w.i64(p.n)
	w.u16(p.base)
	w.u16(p.winExp)
	w.i64(p.winSeen)
	w.i64(p.winPick)
	w.f64(p.winVal)
	w.u64(p.rng)
	writeExtremes(w, p.min, p.max, p.hasExt)
	w.u16(uint16(len(p.levels)))
	for _, lv := range p.levels {
		w.u32(uint32(len(lv)))
		for _, v := range lv {
			w.f64(v)
		}
	}
	return w.buf
}

// foValidWire is a small consistent baseline the rejection cases perturb.
func foValidWire() foWire {
	return foWire{
		eps: 0.1, delta: 0.1, n: 100, base: 0, winExp: 0,
		hasExt: true, min: 1, max: 9,
		levels: [][]float64{{1, 3, 5, 7, 9}},
	}
}

// TestFODecodeRejections drives the decoder's hardening: each corrupt shape
// must produce an error naming the problem, not a summary.
func TestFODecodeRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*foWire)
		wantErr string
	}{
		{"bad epsilon", func(p *foWire) { p.eps = 7 }, "eps"},
		{"zero epsilon", func(p *foWire) { p.eps = 0 }, "eps"},
		{"bad delta", func(p *foWire) { p.delta = 0 }, "delta"},
		{"delta of one", func(p *foWire) { p.delta = 1 }, "delta"},
		{"negative count", func(p *foWire) { p.n = -1 }, "negative count"},
		{"base exponent overflow", func(p *foWire) { p.base = 63 }, "base exponent"},
		{"window above base", func(p *foWire) { p.winExp = 1 }, "window exponent"},
		{"window progress overflow", func(p *foWire) {
			p.base, p.winExp = 3, 2
			p.winSeen = 4 // width is 1<<2
		}, "window progress"},
		{"window pick overflow", func(p *foWire) {
			p.base, p.winExp = 3, 2
			p.winPick = 7
		}, "window pick"},
		{"overfull level", func(p *foWire) {
			// BlockSize(0.1, 0.1) bounds per-level occupancy; 2000 is far above it.
			lv := make([]float64, 2000)
			for i := range lv {
				lv[i] = float64(i)
			}
			p.levels = [][]float64{lv}
			p.n = 1 << 20
		}, "block capacity"},
		{"level span beyond cap", func(p *foWire) {
			// LevelCap(0.1, b) is well under 40 empty levels.
			p.levels = make([][]float64, 40)
		}, "exceed the cap"},
		{"top exponent overflow", func(p *foWire) {
			p.base = 62
			p.levels = [][]float64{{1}, {2}}
			p.n = 1 << 62
		}, "overflows"},
		{"retained weight implausible", func(p *foWire) {
			p.n = 1
			p.levels = [][]float64{{1, 2, 3, 4, 5, 6, 7}}
		}, "implausible"},
	}
	for _, tc := range cases {
		p := foValidWire()
		tc.mutate(&p)
		_, err := DecodeFO(p.bytes())
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	// Structural corruption below the State level: declared lengths the
	// payload cannot back, and truncations inside the header.
	valid := foValidWire().bytes()
	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut++ {
			if _, err := DecodeFO(valid[:cut]); err == nil {
				t.Fatalf("truncation at %d decoded without error", cut)
			}
		}
	})
	t.Run("level count above span cap", func(t *testing.T) {
		p := append([]byte(nil), valid...)
		// The level-count u16 sits 6 bytes from the end of the single
		// 5-item level (4-byte length prefix + 5×8 data = 44 bytes).
		off := len(p) - 44 - 2
		p[off], p[off+1] = 65, 0
		if _, err := DecodeFO(p); err == nil || !strings.Contains(err.Error(), "cap is 64") {
			t.Fatalf("err = %v, want the span-cap rejection", err)
		}
	})
	t.Run("level length lies", func(t *testing.T) {
		p := append([]byte(nil), valid...)
		off := len(p) - 44 // the level's u32 length prefix
		p[off], p[off+1], p[off+2], p[off+3] = 0xff, 0xff, 0xff, 0x7f
		if _, err := DecodeFO(p); err == nil || !strings.Contains(err.Error(), "truncated FO level") {
			t.Fatalf("err = %v, want the need() rejection", err)
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		p := append([]byte(nil), valid...)
		p[6] = byte(KindGK) // kind u16 lives at offset 6
		if _, err := DecodeFO(p); err == nil || !strings.Contains(err.Error(), "want FO") {
			t.Fatalf("err = %v, want the kind rejection", err)
		}
	})
}

// FuzzFODecode is the FO-specific robustness target: DecodeFO must never
// panic or over-allocate on corrupt payloads, and anything it does accept
// must answer queries and survive a re-encode round trip.
func FuzzFODecode(f *testing.F) {
	shapes := []*fo.Summary[float64]{
		fo.NewFloat64(fo.Config{Eps: 0.05, Delta: 0.05, Seed: 1}),
		foTestSummary(2, 5_000),
		foTestSummary(3, 30_000),
	}
	weighted := fo.NewFloat64(fo.Config{Eps: 0.05, Delta: 0.05, Seed: 4})
	for i := 0; i < 200; i++ {
		weighted.WeightedUpdate(float64(i%31), int64(i%7+1)<<uint(i%11))
	}
	shapes = append(shapes, weighted)
	for _, s := range shapes {
		p, err := EncodeFO(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
		for _, cut := range []int{1, 6, 8, 16, 34, 60, len(p) / 2, len(p) - 1} {
			if cut > 0 && cut < len(p) {
				f.Add(append([]byte(nil), p[:cut]...))
			}
		}
		for i := 0; i < len(p); i += 1 + len(p)/16 {
			flipped := append([]byte(nil), p...)
			flipped[i] ^= 0x80
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeFO(data)
		if err != nil {
			return
		}
		for _, phi := range []float64{0, 0.5, 1} {
			s.Query(phi)
		}
		p, err := EncodeFO(s)
		if err != nil {
			t.Fatalf("re-encode of accepted payload failed: %v", err)
		}
		if _, err := DecodeFO(p); err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v", err)
		}
	})
}
