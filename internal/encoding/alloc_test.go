package encoding

// Allocation guards for the codec: a payload costs a fixed handful of
// allocations whatever its size (none per tuple or per field), and an
// encoded payload carries no spare capacity, which would otherwise stay
// resident wherever payloads are kept (snapshot caches, aggregator peers).

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"quantilelb/internal/exact"
	"quantilelb/internal/gk"
	"quantilelb/internal/order"
)

// maxCodecAllocs bounds the allocations of one Encode or Decode call.
const maxCodecAllocs = 8

// gkWithTuples restores a GK summary holding exactly n tuples.
func gkWithTuples(t *testing.T, n int) *gk.Summary[float64] {
	t.Helper()
	tuples := make([]gk.Tuple[float64], n)
	for i := range tuples {
		tuples[i] = gk.Tuple[float64]{V: float64(i), G: 1, Wt: 1}
	}
	s, err := gk.Restore(order.Floats[float64](), 0.01, gk.PolicyBands, n, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// exactWithValues returns an exact buffer of n distinct values.
func exactWithValues(n int) *exact.Buffer {
	b := exact.New()
	for i := range n {
		b.Update(float64(i))
	}
	return b
}

// codecAllocs measures the allocations of one Encode and one Decode of s.
func codecAllocs(t *testing.T, s any) (enc, dec float64) {
	t.Helper()
	p, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	enc = testing.AllocsPerRun(20, func() {
		if _, err := Encode(s); err != nil {
			t.Fatal(err)
		}
	})
	dec = testing.AllocsPerRun(20, func() {
		if _, err := Decode(p); err != nil {
			t.Fatal(err)
		}
	})
	return enc, dec
}

func TestCodecAllocsIndependentOfSize(t *testing.T) {
	for _, tc := range []struct {
		name         string
		small, big   any
		smallN, bigN int
	}{
		{"gk", gkWithTuples(t, 100), gkWithTuples(t, 1000), 100, 1000},
		{"exact", exactWithValues(100), exactWithValues(1000), 100, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			encS, decS := codecAllocs(t, tc.small)
			encB, decB := codecAllocs(t, tc.big)
			t.Logf("%d items: encode %v, decode %v allocs; %d items: encode %v, decode %v", tc.smallN, encS, decS, tc.bigN, encB, decB)
			if encS != encB || decS != decB {
				t.Errorf("allocations grow with size: encode %v -> %v, decode %v -> %v", encS, encB, decS, decB)
			}
			if encB > maxCodecAllocs || decB > maxCodecAllocs {
				t.Errorf("encode %v / decode %v allocations, want at most %d each", encB, decB, maxCodecAllocs)
			}
		})
	}
}

// storeOf builds a container of n records, each holding a small GK payload.
func storeOf(t *testing.T, n int) []byte {
	t.Helper()
	rec, err := Encode(gkWithTuples(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]KeyedPayload, n)
	for i := range entries {
		entries[i] = KeyedPayload{Key: fmt.Sprintf("key.%04d", i), Payload: rec}
	}
	p, err := EncodeStore(entries)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDecodeStoreAllocsPerRecord(t *testing.T) {
	allocs := func(p []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeStore(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(storeOf(t, 10)), allocs(storeOf(t, 1000))
	// Each record costs its key string and nothing per field. The records
	// slice and the duplicate-key set are sized up front; the set's tables
	// add a few allocations per thousand keys.
	perRecord := (big - small) / 990
	t.Logf("10 records: %v allocs, 1000 records: %v allocs (%.3f per extra record)", small, big, perRecord)
	if perRecord > 1.1 {
		t.Errorf("DecodeStore allocates %.3f times per record, want about 1 (the key)", perRecord)
	}
	if small > 10+maxCodecAllocs {
		t.Errorf("DecodeStore of 10 records allocates %v times", small)
	}
}

func TestEncodedPayloadsHaveNoSpareCapacity(t *testing.T) {
	for name, p := range goldenPayloads(t) {
		if cap(p) != len(p) {
			t.Errorf("%s: payload of %d bytes has capacity %d", name, len(p), cap(p))
		}
	}
	for _, n := range []int{0, 1, 1000} {
		if p := storeOf(t, n); cap(p) != len(p) {
			t.Errorf("EncodeStore of %d records: %d bytes with capacity %d", n, len(p), cap(p))
		}
	}
}

func TestDecodeStoreRecordsAliasInput(t *testing.T) {
	p := storeOf(t, 3)
	recs, err := DecodeStore(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if cap(r.Payload) != len(r.Payload) {
			t.Errorf("%s: record of %d bytes has capacity %d, want it clipped", r.Key, len(r.Payload), cap(r.Payload))
		}
		// The record is a window onto p: appending to it must not write
		// into the bytes of the next record.
		before := append([]byte(nil), p...)
		_ = append(r.Payload, 0xff)
		if string(before) != string(p) {
			t.Fatalf("%s: appending to a record wrote into the container", r.Key)
		}
	}
	again, err := EncodeStore(recs)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(p) {
		t.Error("re-encoding decoded records changed the container")
	}
}

// TestEncodeDeltaAllocsIndependentOfBase: the encoder's base index is one
// flat table, so EncodeDelta allocates as often for a 64 KB base as for a
// 1.6 MB one, and allocates fewer bytes than half the base plus the delta it
// returns. The output grows with the delta, not the base, so both heads
// carry the same edits in their first 16 KB and their deltas have the same
// ops and size.
func TestEncodeDeltaAllocsIndependentOfBase(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	big := make([]byte, 1600<<10)
	for i := range big {
		big[i] = byte(r.Uint32())
	}
	measure := func(base []byte) (allocs, bytes float64, delta []byte) {
		head := slices.Clone(base)
		for j := range 32 {
			at := 100 + 500*j
			for k := range 8 {
				head[at+k] ^= 0x5a
			}
		}
		delta, err := EncodeDelta(base, head)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 10
		allocs = testing.AllocsPerRun(runs, func() {
			if _, err := EncodeDelta(base, head); err != nil {
				t.Fatal(err)
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := EncodeDelta(base, head); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs, delta
	}
	smallAllocs, smallBytes, smallDelta := measure(big[:64<<10])
	bigAllocs, bigBytes, bigDelta := measure(big)
	t.Logf("64 KB base: %v allocs, %.0f bytes per call; 1.6 MB base: %v allocs, %.0f bytes per call; %d-byte deltas",
		smallAllocs, smallBytes, bigAllocs, bigBytes, len(bigDelta))
	if len(smallDelta) != len(bigDelta) {
		t.Fatalf("the two deltas differ in size (%d vs %d bytes); the allocation comparison needs equal outputs", len(smallDelta), len(bigDelta))
	}
	if smallAllocs != bigAllocs {
		t.Errorf("EncodeDelta allocates %v times for a 64 KB base and %v for a 1.6 MB one", smallAllocs, bigAllocs)
	}
	for _, m := range []struct {
		base  int
		bytes float64
	}{{64 << 10, smallBytes}, {len(big), bigBytes}} {
		if limit := float64(m.base/2 + len(bigDelta)); m.bytes >= limit {
			t.Errorf("%d-byte base: EncodeDelta allocates %.0f bytes per call, want under %.0f", m.base, m.bytes, limit)
		}
	}
}
