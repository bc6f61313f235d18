package encoding

// FuzzDeltaDecode is the delta-robustness fuzz target run by CI's fuzz smoke
// job (FuzzDeltaRoundTrip, below, is the encoder's): ApplyDelta (and
// DecodeDeltaHeader) must never panic or over-allocate on a corrupt or
// hostile delta — they either reconstruct a payload that
// hash-verifies against the delta's declared head, or return an error. The
// seed corpus holds real (base, delta) pairs from the snapshot lineages a
// combiner actually re-exports: plain incremental ingest, a NaN-bearing mlq
// stream, a pruned req summary, and a merged gk pair — plus truncations and
// bit flips of each.

import (
	"math"
	"testing"

	"quantilelb/internal/gk"
	"quantilelb/internal/mlq"
	"quantilelb/internal/req"
	"quantilelb/internal/stream"
)

// deltaSeedLineages builds deterministic (base, head) payload pairs covering
// the mutated states the property tests pin: NaN, pruned, and merged
// summaries.
func deltaSeedLineages(tb testing.TB) [][2][]byte {
	tb.Helper()
	gen := stream.NewGenerator(21)
	items := gen.Shuffled(3000).Items()

	encode := func(s any) []byte {
		p, err := Encode(s)
		if err != nil {
			tb.Fatalf("encoding seed summary: %v", err)
		}
		return p
	}

	var lineages [][2][]byte

	// Plain incremental ingest.
	g := gk.NewFloat64(0.02)
	g.UpdateBatch(items[:2000])
	gBase := encode(g)
	g.UpdateBatch(items[2000:])
	lineages = append(lineages, [2][]byte{gBase, encode(g)})

	// NaN-bearing mlq stream (NaN-first total order on the wire).
	m := mlq.NewFloat64(0.02)
	m.UpdateBatch(items[:2000])
	m.Update(math.NaN())
	mBase := encode(m)
	m.UpdateBatch(items[2000:])
	m.Update(math.NaN())
	lineages = append(lineages, [2][]byte{mBase, encode(m)})

	// Pruned req summary (degraded-eps state).
	r := req.NewFloat64(0.02)
	r.UpdateBatch(items[:2000])
	rBase := encode(r)
	r.UpdateBatch(items[2000:])
	r.Prune(64)
	lineages = append(lineages, [2][]byte{rBase, encode(r)})

	// Merged gk pair (COMBINE output as head).
	a := gk.NewFloat64(0.02)
	a.UpdateBatch(items[:1500])
	aBase := encode(a)
	b := gk.NewFloat64(0.02)
	b.UpdateBatch(items[1500:])
	if err := a.Merge(b); err != nil {
		tb.Fatalf("merging seed summaries: %v", err)
	}
	lineages = append(lineages, [2][]byte{aBase, encode(a)})

	return lineages
}

// deltaSeedPairs turns the seed lineages into (base, delta) pairs.
func deltaSeedPairs(tb testing.TB) [][2][]byte {
	tb.Helper()
	var pairs [][2][]byte
	for _, l := range deltaSeedLineages(tb) {
		d, err := EncodeDelta(l[0], l[1])
		if err != nil {
			tb.Fatalf("encoding seed delta: %v", err)
		}
		pairs = append(pairs, [2][]byte{l[0], d})
	}
	return pairs
}

func FuzzDeltaDecode(f *testing.F) {
	for _, p := range deltaSeedPairs(f) {
		base, delta := p[0], p[1]
		f.Add(base, delta)
		// Full payload offered as a delta: must be rejected, never applied.
		f.Add(base, base)
		// Truncations and bit flips of the valid delta.
		for _, cut := range []int{0, 1, 7, len(delta) / 2, len(delta) - 1} {
			if cut <= len(delta) {
				f.Add(base, delta[:cut])
			}
		}
		for i := 0; i < len(delta); i += 13 {
			mut := append([]byte(nil), delta...)
			mut[i] ^= 0x20
			f.Add(base, mut)
		}
	}

	f.Fuzz(func(t *testing.T, base, delta []byte) {
		hdr, hdrErr := DecodeDeltaHeader(delta)
		out, err := ApplyDelta(base, delta)
		if err != nil {
			return
		}
		// A successful application implies a well-formed header, a verified
		// base, and a reconstruction that matches every declared property.
		if hdrErr != nil {
			t.Fatalf("ApplyDelta succeeded but DecodeDeltaHeader failed: %v", hdrErr)
		}
		if hdr.BaseHash != PayloadHash(base) {
			t.Fatalf("applied delta with base hash %x against base hashing %x", hdr.BaseHash, PayloadHash(base))
		}
		if len(out) != hdr.HeadLen {
			t.Fatalf("reconstructed %d bytes, header declares %d", len(out), hdr.HeadLen)
		}
		if PayloadHash(out) != hdr.HeadHash {
			t.Fatalf("reconstruction hashes to %x, header declares %x", PayloadHash(out), hdr.HeadHash)
		}
		if !IsDelta(delta) {
			t.Fatal("ApplyDelta succeeded on a payload IsDelta rejects")
		}
	})
}

// FuzzDeltaRoundTrip holds the encoder to its contract on arbitrary inputs:
// the delta applies back to head exactly, and its ops equal the reference
// matcher's (referenceDeltaOps in delta_test.go), so the flat block index and
// the word-wise match extension never change what goes on the wire. Run it
// as CI does, with -fuzzminimizetime=1s: the fuzzer minimizes every input
// that reaches new code, and at the seeds' sizes the default 60 s per input
// would leave no time to fuzz.
func FuzzDeltaRoundTrip(f *testing.F) {
	for _, l := range deltaSeedLineages(f) {
		f.Add(l[0], l[1])
		f.Add(l[1], l[0])
	}
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, 100), make([]byte, 133))

	f.Fuzz(func(t *testing.T, base, head []byte) {
		// The seeds reach 93 KB together. Mutations that grow far past
		// them only slow every execution (the scan and the reference
		// matcher cost a block lookup per head byte), so they are skipped.
		if len(base)+len(head) > 128<<10 {
			return
		}
		checkAgainstReference(t, "fuzz input", base, head)
	})
}
