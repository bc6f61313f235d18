package encoding

// Wire-format pins: one payload of every summary kind, built from fixed
// seeded input, must hash to the value recorded when the format was last
// changed on purpose. A checkpoint or peer snapshot written by an older
// build must keep opening, so any diff here is a format break, not a test
// to update.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// goldenPayloads encodes one summary of each kind from the same seeded
// stream; a few weighted items exercise the run-weight fields.
func goldenPayloads(t *testing.T) map[string][]byte {
	t.Helper()
	items := stream.NewGenerator(42).Shuffled(3_000).Items()
	type weighted interface{ WeightedUpdate(float64, int64) }
	sums := map[string]interface{ Update(float64) }{
		"gk":        gk.NewFloat64(0.01),
		"kll":       kll.NewFloat64(0.01, kll.WithSeed(7)),
		"mrl":       mrl.NewFloat64(0.01, 100_000),
		"reservoir": sampling.NewFloat64(0.05, 0.01, 7),
		"window":    window.NewFloat64(0.05, 1_000),
		"mlq":       mlq.NewFloat64(0.01),
		"req":       req.NewFloat64(0.01),
		"exact":     exact.New(),
		"biased":    biased.NewFloat64(0.01),
		"fo":        fo.NewFloat64(fo.Config{Eps: 0.05, Seed: 7}),
	}
	out := make(map[string][]byte, len(sums)+1)
	for name, s := range sums {
		n := len(items)
		if name == "exact" {
			n = 100 // a store key stays an exact buffer only while small
		}
		for i, x := range items[:n] {
			if w, ok := s.(weighted); ok && i%97 == 0 {
				w.WeightedUpdate(x, 5)
				continue
			}
			s.Update(x)
		}
		p, err := Encode(s)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		out[name] = p
	}
	st, err := EncodeStore([]KeyedPayload{
		{Key: "lat.db", Payload: out["exact"]},
		{Key: "lat.api", Payload: out["gk"]},
	})
	if err != nil {
		t.Fatalf("EncodeStore: %v", err)
	}
	out["store"] = st
	return out
}

// TestGoldenPayloads pins the payload bytes of every kind, and checks that
// each pinned payload opens and re-encodes to the same bytes, so a payload
// written by an older build restores whole.
func TestGoldenPayloads(t *testing.T) {
	want := map[string]string{
		"gk":        "f306182b892ba7d318bce838ba9922df420413a811f615a94da9cbd03ffa8598",
		"kll":       "b798bc7059d9b4341d4fb72a8ed5a15d11f5333e2e26e48786a1b6ce51323fa9",
		"mrl":       "0fa83a50bd831bcd85b280b6f6d91536178d8c4e08eefbe85f4ca7385ec55510",
		"reservoir": "d04608b17509467fbabd4ca424991b8f882fe63af8b8c181f9718b8ea8d09cb9",
		"window":    "2f91c50c863f0ad85943c2ff7ede9e8afd1d92f6a3f0ee7956237a9a231cabbf",
		"mlq":       "b6bb7902f987a222d3c21dea88a1072dbd3e015c01112d81be0dcb5470e69cb2",
		"req":       "55592dd937f9cd36d026d1d65b12af85c4040a1be2d53dd29ce04888e739eca0",
		"exact":     "aaa0e04d8ff631026cd02cf322e60262f070a0e8b56d020ca9e0e6b1ce837539",
		"biased":    "1265b7222fc0d129d4669cd6cdf87db7d2754ea12e2623778561be176830c047",
		"fo":        "e3915596ea6e352de45430787e103c900fb5ae25daf2f214c4ff2a27fed86f03",
		"store":     "127c8baeea473afb85c53d858633956e411d0f64be47d30a88f3c55d1b82efca",
	}
	got := goldenPayloads(t)
	if len(got) != len(want) {
		t.Fatalf("built %d golden payloads, want %d", len(got), len(want))
	}
	for name, p := range got {
		sum := sha256.Sum256(p)
		if h := hex.EncodeToString(sum[:]); h != want[name] {
			t.Errorf("%s: payload of %d bytes hashes to %s, want %s", name, len(p), h, want[name])
		}
		var again []byte
		if name == "store" {
			entries, err := DecodeStore(p)
			if err != nil {
				t.Fatalf("store: DecodeStore: %v", err)
			}
			if again, err = EncodeStore(entries); err != nil {
				t.Fatalf("store: EncodeStore: %v", err)
			}
		} else {
			dec, err := Decode(p)
			if err != nil {
				t.Fatalf("%s: Decode: %v", name, err)
			}
			if again, err = Encode(dec); err != nil {
				t.Fatalf("%s: re-Encode: %v", name, err)
			}
		}
		if !bytes.Equal(again, p) {
			t.Errorf("%s: decode then encode changed the payload (%d -> %d bytes)", name, len(p), len(again))
		}
	}
}
