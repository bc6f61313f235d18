package encoding

// Tests for the family dispatch behind Kind.String, Encode, Decode,
// CheckMergeable and MergeAny, and for the KindWindow codec.

import (
	"errors"
	"reflect"
	"testing"

	"quantilelb/internal/biased"
	"quantilelb/internal/exact"
	"quantilelb/internal/fo"
	"quantilelb/internal/gk"
	"quantilelb/internal/kll"
	"quantilelb/internal/mlq"
	"quantilelb/internal/mrl"
	"quantilelb/internal/req"
	"quantilelb/internal/sampling"
	"quantilelb/internal/stream"
	"quantilelb/internal/window"
)

// TestWindowRoundTrip: a sliding-window summary round-trips through the
// KindWindow payload, answering identically and continuing to expire.
func TestWindowRoundTrip(t *testing.T) {
	gen := stream.NewGenerator(9)
	st := gen.Shuffled(10_000)
	s := window.NewFloat64(0.05, 1_000)
	for _, x := range st.Items() {
		s.Update(x)
	}
	payload, err := EncodeWindow(s)
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := DetectKind(payload); err != nil || kind != KindWindow {
		t.Fatalf("DetectKind = %v, %v", kind, err)
	}
	restored, err := DecodeWindow(payload)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count() != s.Count() || restored.TotalSeen() != s.TotalSeen() ||
		restored.StoredCount() != s.StoredCount() || restored.Blocks() != s.Blocks() {
		t.Fatalf("restored counters differ")
	}
	if restored.Epsilon() != s.Epsilon() || restored.WindowLen() != s.WindowLen() {
		t.Errorf("restored parameters differ")
	}
	for g := 0; g <= 20; g++ {
		phi := float64(g) / 20
		want, _ := s.Query(phi)
		got, _ := restored.Query(phi)
		if want != got {
			t.Fatalf("phi=%g: restored answers %g, original %g", phi, got, want)
		}
	}
	// The restored summary must keep ingesting and expiring.
	for i := 0; i < 2_000; i++ {
		restored.Update(float64(i))
	}
	if err := restored.CheckInvariant(); err != nil {
		t.Fatalf("restored summary after more updates: %v", err)
	}
}

// TestGenericEncodeDecodeAllKinds: every supported family dispatches through
// Encode and comes back as the same concrete type with the same state.
func TestGenericEncodeDecodeAllKinds(t *testing.T) {
	items := stream.NewGenerator(10).Shuffled(5_000).Items()
	cases := []struct {
		name string
		sum  interface {
			Update(float64)
			Count() int
			Query(float64) (float64, bool)
		}
		kind Kind
	}{
		{"gk", gk.NewFloat64(0.01), KindGK},
		{"kll", kll.NewFloat64(0.01, kll.WithSeed(1)), KindKLL},
		{"mrl", mrl.NewFloat64(0.01, 100_000), KindMRL},
		{"reservoir", sampling.NewFloat64(0.05, 0.01, 1), KindReservoir},
		{"window", window.NewFloat64(0.05, 1_000), KindWindow},
		{"mlq", mlq.NewFloat64(0.01), KindMLQ},
		{"req", req.NewFloat64(0.01), KindREQ},
		{"exact", exact.New(), KindExact},
		{"biased", biased.NewFloat64(0.01), KindBiased},
		{"fo", fo.NewFloat64(fo.Config{Eps: 0.05, Seed: 1}), KindFO},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, x := range items {
				tc.sum.Update(x)
			}
			payload, err := Encode(tc.sum)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if kind, _ := DetectKind(payload); kind != tc.kind {
				t.Fatalf("DetectKind = %v, want %v", kind, tc.kind)
			}
			dec, err := Decode(payload)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if reflect.TypeOf(dec) != reflect.TypeOf(tc.sum) {
				t.Fatalf("decoded %T, want %T", dec, tc.sum)
			}
			got := dec.(interface {
				Count() int
				Query(float64) (float64, bool)
			})
			if got.Count() != tc.sum.Count() {
				t.Fatalf("decoded count %d, want %d", got.Count(), tc.sum.Count())
			}
			wm, _ := tc.sum.Query(0.5)
			gm, _ := got.Query(0.5)
			if wm != gm {
				t.Errorf("decoded median %g, want %g", gm, wm)
			}
		})
	}
}

// TestCheckMergeableMatchesMergeAdopting: for every ordered pair of
// families, empty and non-empty, and with the KLL k, MRL buffer capacity
// and MLQ block size differing, CheckMergeable(d, s) is nil exactly when
// MergeAdopting(d, s) succeeds.
func TestCheckMergeableMatchesMergeAdopting(t *testing.T) {
	items := stream.NewGenerator(11).Shuffled(300).Items()
	type sum interface{ Update(float64) }
	makers := []struct {
		name string
		make func() sum
	}{
		{"gk", func() sum { return gk.NewFloat64(0.01) }},
		{"kll", func() sum { return kll.NewFloat64(0.01, kll.WithSeed(1)) }},
		{"kll-other-k", func() sum { return kll.NewFloat64(0.1, kll.WithSeed(1)) }},
		{"mrl", func() sum { return mrl.NewFloat64(0.01, 100_000) }},
		{"mrl-other-capacity", func() sum { return mrl.NewFloat64(0.05, 100_000) }},
		{"reservoir", func() sum { return sampling.NewFloat64(0.05, 0.01, 1) }},
		{"window", func() sum { return window.NewFloat64(0.05, 1_000) }},
		{"mlq", func() sum { return mlq.NewFloat64(0.01) }},
		{"mlq-other-block", func() sum { return mlq.NewFloat64(0.01, mlq.WithBlockSize(64)) }},
		{"req", func() sum { return req.NewFloat64(0.01) }},
		{"exact", func() sum { return exact.New() }},
		{"biased", func() sum { return biased.NewFloat64(0.01) }},
		{"fo", func() sum { return fo.NewFloat64(fo.Config{Eps: 0.05, Seed: 1}) }},
	}
	if kll.NewFloat64(0.01).K() == kll.NewFloat64(0.1).K() ||
		mrl.NewFloat64(0.01, 100_000).BufferCapacity() == mrl.NewFloat64(0.05, 100_000).BufferCapacity() ||
		mlq.NewFloat64(0.01).BlockSize() == 64 {
		t.Fatal("the mismatch variants share their parameter with the base family")
	}
	type variant struct {
		name string
		make func() any
	}
	var variants []variant
	for _, m := range makers {
		m := m
		variants = append(variants,
			variant{m.name + "/empty", func() any { return m.make() }},
			variant{m.name + "/full", func() any {
				s := m.make()
				for _, x := range items {
					s.Update(x)
				}
				return s
			}})
	}
	cases := 0
	for _, d := range variants {
		for _, s := range variants {
			checkErr := CheckMergeable(d.make(), s.make())
			_, mergeErr := MergeAdopting(d.make(), s.make())
			if (checkErr == nil) != (mergeErr == nil) {
				t.Errorf("dst %s, src %s: CheckMergeable = %v, MergeAdopting = %v", d.name, s.name, checkErr, mergeErr)
			}
			if checkErr != nil && !errors.Is(checkErr, ErrNotMergeable) {
				t.Errorf("dst %s, src %s: CheckMergeable error %v does not wrap ErrNotMergeable", d.name, s.name, checkErr)
			}
			cases++
		}
	}
	if cases != 676 {
		t.Fatalf("checked %d pairs, want 676", cases)
	}
}

// TestGenericEncodeRejectsUnsupported: the dispatcher must name the type it
// cannot handle instead of panicking or silently writing garbage.
func TestGenericEncodeRejectsUnsupported(t *testing.T) {
	if _, err := Encode(42); err == nil {
		t.Error("Encode(int) should fail")
	}
	if _, err := Encode(nil); err == nil {
		t.Error("Encode(nil) should fail")
	}
}

// TestKindString pins the names the cluster tier reports in peer status.
func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindGK:        "gk",
		KindKLL:       "kll",
		KindMRL:       "mrl",
		KindReservoir: "reservoir",
		KindWindow:    "window",
		KindStore:     "store",
		KindMLQ:       "mlq",
		KindREQ:       "req",
		KindDelta:     "delta",
		KindExact:     "exact",
		KindBiased:    "biased",
		KindFO:        "fo",
		Kind(0):       "kind(0)",
		Kind(99):      "kind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", uint16(k), k.String(), s)
		}
	}
}
