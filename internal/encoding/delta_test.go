package encoding

// Property tests of the KindDelta codec: for every family kind, the full
// base payload plus the delta base→head reconstructs the full head payload
// byte for byte (so the decoded summary answers every quantile identically
// to a direct decode of the head), across the workload shapes the matrix
// exercises, and hostile/degenerate deltas are rejected rather than applied.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"quantilelb/internal/exact"
	"quantilelb/internal/gk"
	"quantilelb/internal/kll"
	"quantilelb/internal/mlq"
	"quantilelb/internal/mrl"
	"quantilelb/internal/req"
	"quantilelb/internal/sampling"
	"quantilelb/internal/stream"
	"quantilelb/internal/summary"
	"quantilelb/internal/window"
)

// deltaFamily builds one summary kind incrementally: New yields a fresh
// summary, Ingest advances it, and Encode serializes it.
type deltaFamily struct {
	name   string
	new    func() any
	ingest func(s any, items []float64)
}

func deltaFamilies() []deltaFamily {
	return []deltaFamily{
		{"gk", func() any { return gk.NewFloat64(0.02) },
			func(s any, items []float64) { s.(*gk.Summary[float64]).UpdateBatch(items) }},
		{"kll", func() any { return kll.NewFloat64(0.02, kll.WithSeed(7)) },
			func(s any, items []float64) { s.(*kll.Sketch[float64]).UpdateBatch(items) }},
		{"mrl", func() any { return mrl.NewFloat64(0.02, 200_000) },
			func(s any, items []float64) { s.(*mrl.Summary[float64]).UpdateBatch(items) }},
		{"reservoir", func() any { return sampling.NewFloat64(0.05, 0.05, 11) },
			func(s any, items []float64) { s.(*sampling.Reservoir[float64]).UpdateBatch(items) }},
		{"window", func() any { return window.NewFloat64(0.02, 4096) },
			func(s any, items []float64) {
				w := s.(*window.Summary[float64])
				for _, x := range items {
					w.Update(x)
				}
			}},
		{"mlq", func() any { return mlq.NewFloat64(0.02) },
			func(s any, items []float64) { s.(*mlq.Summary).UpdateBatch(items) }},
		{"req", func() any { return req.NewFloat64(0.02) },
			func(s any, items []float64) { s.(*req.Summary).UpdateBatch(items) }},
	}
}

// deltaWorkloads are the stream shapes the round trip is proven over: the
// incremental-ingest regime the cluster tier actually ships deltas for.
func deltaWorkloads(tb testing.TB, n int) []*stream.Stream {
	tb.Helper()
	gen := stream.NewGenerator(42)
	out := []*stream.Stream{gen.Shuffled(n), gen.Sorted(n), gen.Duplicates(n, 17), gen.Drift(n)}
	return out
}

// deltaLineage is one (base, head) payload pair of a snapshot lineage.
type deltaLineage struct {
	name       string
	base, head []byte
}

// encodeOrFail serializes a summary for a lineage.
func encodeOrFail(tb testing.TB, s any) []byte {
	tb.Helper()
	p, err := Encode(s)
	if err != nil {
		tb.Fatalf("encoding %T: %v", s, err)
	}
	return p
}

// allKindsLineages builds, for every family kind and workload, the payload
// after three quarters of the stream (base) and after all of it (head).
func allKindsLineages(tb testing.TB) []deltaLineage {
	const n = 6000
	var out []deltaLineage
	for _, fam := range deltaFamilies() {
		for _, wl := range deltaWorkloads(tb, n) {
			s := fam.new()
			items := wl.Items()
			fam.ingest(s, items[:n*3/4])
			base := encodeOrFail(tb, s)
			fam.ingest(s, items[n*3/4:])
			out = append(out, deltaLineage{fmt.Sprintf("%s/%s", fam.name, wl.Name()), base, encodeOrFail(tb, s)})
		}
	}
	return out
}

// TestDeltaRoundTripAllKinds: full(base) + delta(base→head) == full(head),
// byte for byte, for every family kind and workload; and the reconstruction
// decodes to a summary whose quantile answers match a direct decode of head.
func TestDeltaRoundTripAllKinds(t *testing.T) {
	for _, l := range allKindsLineages(t) {
		t.Run(l.name, func(t *testing.T) {
			base, head := l.base, l.head
			delta, err := EncodeDelta(base, head)
			if err != nil {
				t.Fatalf("EncodeDelta: %v", err)
			}
			if kind, err := DetectKind(delta); err != nil || kind != KindDelta {
				t.Fatalf("DetectKind(delta) = %v, %v", kind, err)
			}
			hdr, err := DecodeDeltaHeader(delta)
			if err != nil {
				t.Fatalf("DecodeDeltaHeader: %v", err)
			}
			if hdr.BaseHash != PayloadHash(base) || hdr.HeadHash != PayloadHash(head) || hdr.HeadLen != len(head) {
				t.Fatalf("header %+v does not describe base/head", hdr)
			}

			rebuilt, err := ApplyDelta(base, delta)
			if err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			if !bytes.Equal(rebuilt, head) {
				t.Fatalf("reconstruction differs from head (%d vs %d bytes)", len(rebuilt), len(head))
			}

			// Byte equality already implies identical answers; decode both
			// anyway so a regression in Decode's handling of reconstructed
			// payloads cannot hide behind the equality check.
			a, err := Decode(rebuilt)
			if err != nil {
				t.Fatalf("decoding reconstruction: %v", err)
			}
			b, err := Decode(head)
			if err != nil {
				t.Fatalf("decoding head: %v", err)
			}
			qa := a.(summary.Summary[float64])
			qb := b.(summary.Summary[float64])
			for _, phi := range []float64{0, 0.25, 0.5, 0.9, 0.999, 1} {
				va, oka := qa.Query(phi)
				vb, okb := qb.Query(phi)
				if oka != okb || va != vb {
					t.Errorf("phi=%v: reconstructed answers %v,%v vs head %v,%v", phi, va, oka, vb, okb)
				}
			}
		})
	}
}

// mutatedLineages covers the states incremental ingest alone does not
// reach: NaN-bearing streams, merged summaries, and pruned summaries — the
// snapshot lineage a combiner actually re-exports.
func mutatedLineages(tb testing.TB) []deltaLineage {
	gen := stream.NewGenerator(9)
	items := gen.Shuffled(4000).Items()

	cases := []struct {
		name string
		base func() any
		head func(base any) any
	}{
		{"mlq-nan", func() any {
			s := mlq.NewFloat64(0.02)
			s.UpdateBatch(items[:3000])
			s.Update(math.NaN())
			return s
		}, func(b any) any {
			s := b.(*mlq.Summary)
			s.UpdateBatch(items[3000:])
			s.Update(math.NaN())
			return s
		}},
		{"req-pruned", func() any {
			s := req.NewFloat64(0.02)
			s.UpdateBatch(items[:3000])
			return s
		}, func(b any) any {
			s := b.(*req.Summary)
			s.UpdateBatch(items[3000:])
			s.Prune(64)
			return s
		}},
		{"gk-merged", func() any {
			s := gk.NewFloat64(0.02)
			s.UpdateBatch(items[:2000])
			return s
		}, func(b any) any {
			s := b.(*gk.Summary[float64])
			other := gk.NewFloat64(0.02)
			other.UpdateBatch(items[2000:])
			if err := s.Merge(other); err != nil {
				tb.Fatalf("merge: %v", err)
			}
			return s
		}},
	}
	out := make([]deltaLineage, len(cases))
	for i, tc := range cases {
		s := tc.base()
		base := encodeOrFail(tb, s)
		out[i] = deltaLineage{tc.name, base, encodeOrFail(tb, tc.head(s))}
	}
	return out
}

// TestDeltaRoundTripMutatedStates: the round trip holds on the mutated
// lineages too.
func TestDeltaRoundTripMutatedStates(t *testing.T) {
	for _, l := range mutatedLineages(t) {
		t.Run(l.name, func(t *testing.T) {
			delta, err := EncodeDelta(l.base, l.head)
			if err != nil {
				t.Fatalf("EncodeDelta: %v", err)
			}
			rebuilt, err := ApplyDelta(l.base, delta)
			if err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			if !bytes.Equal(rebuilt, l.head) {
				t.Fatalf("reconstruction differs from head")
			}
		})
	}
}

// TestDeltaStoreContainer: the codec is family-agnostic, so whole KindStore
// containers (the keyed tier's snapshot) delta the same way.
func TestDeltaStoreContainer(t *testing.T) {
	gen := stream.NewGenerator(3)
	items := gen.Shuffled(2000).Items()
	mk := func(n int) []byte {
		g := gk.NewFloat64(0.05)
		g.UpdateBatch(items[:n])
		p1, err := EncodeGK(g)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := EncodeStore([]KeyedPayload{{Key: "a", Payload: p1}, {Key: "b", Payload: p1}})
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	base, head := mk(1500), mk(2000)
	delta, err := EncodeDelta(base, head)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := ApplyDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt, head) {
		t.Fatal("store container delta reconstruction differs")
	}
}

// TestDeltaSavesBytesOnIncrementalIngest pins the reason the format exists:
// a small ingest round on a large summary must delta to a fraction of the
// full payload.
func TestDeltaSavesBytesOnIncrementalIngest(t *testing.T) {
	gen := stream.NewGenerator(12)
	items := gen.Shuffled(60_000).Items()
	s := mlq.NewFloat64(0.005)
	s.UpdateBatch(items[:59_000])
	base, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	s.UpdateBatch(items[59_000:59_200])
	head, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := EncodeDelta(base, head)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) >= len(head)/2 {
		t.Fatalf("delta of a 200-item round is %d bytes vs %d full — not incremental", len(delta), len(head))
	}
	if rebuilt, err := ApplyDelta(base, delta); err != nil || !bytes.Equal(rebuilt, head) {
		t.Fatalf("reconstruction failed: %v", err)
	}
}

// TestDeltaRejections: hostile and stale inputs must error, never
// reconstruct silently wrong bytes.
func TestDeltaRejections(t *testing.T) {
	gen := stream.NewGenerator(8)
	s := gk.NewFloat64(0.05)
	s.UpdateBatch(gen.Shuffled(3000).Items())
	base, _ := EncodeGK(s)
	s.UpdateBatch(gen.Shuffled(500).Items())
	head, _ := EncodeGK(s)
	delta, err := EncodeDelta(base, head)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong base", func(t *testing.T) {
		other := gk.NewFloat64(0.05)
		other.UpdateBatch(gen.Shuffled(100).Items())
		wrong, _ := EncodeGK(other)
		if _, err := ApplyDelta(wrong, delta); err != ErrDeltaBaseMismatch {
			t.Fatalf("ApplyDelta(wrong base) = %v, want ErrDeltaBaseMismatch", err)
		}
	})
	t.Run("not a delta", func(t *testing.T) {
		if _, err := ApplyDelta(base, head); err == nil {
			t.Fatal("ApplyDelta accepted a full payload as a delta")
		}
	})
	t.Run("decode refuses containers", func(t *testing.T) {
		if _, err := Decode(delta); err == nil {
			t.Fatal("Decode accepted a KindDelta container")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(delta); cut += 7 {
			if _, err := ApplyDelta(base, delta[:cut]); err == nil {
				t.Fatalf("ApplyDelta accepted a delta truncated to %d bytes", cut)
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for i := 8; i < len(delta); i += 11 {
			mut := bytes.Clone(delta)
			mut[i] ^= 0x40
			out, err := ApplyDelta(base, mut)
			if err == nil && !bytes.Equal(out, head) {
				t.Fatalf("bit flip at %d reconstructed wrong bytes without error", i)
			}
		}
	})
	t.Run("oversized head declaration", func(t *testing.T) {
		mut := bytes.Clone(delta)
		// headLen lives at offset 8 (header) + 16 (hashes).
		for i := 24; i < 28; i++ {
			mut[i] = 0xff
		}
		if _, err := ApplyDelta(base, mut); err == nil {
			t.Fatal("ApplyDelta accepted a delta declaring a 4GiB payload")
		}
	})
}

// TestPayloadHashXXH64 pins PayloadHash to published XXH64 (seed 0)
// vectors: the short inputs walk the 1-, 4- and 8-byte tails, the 43- and
// 63-byte ones the 32-byte stripe loop followed by every tail.
func TestPayloadHashXXH64(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"as", 0x1c330fb2d66be179},
		{"asd", 0x631c37ce72a97393},
		{"abc", 0x44bc2cf5ad770999},
		{"asdf", 0x415872f599cea71e},
		{"The quick brown fox jumps over the lazy dog", 0x0b242d361fda71bc},
		{"Call me Ishmael. Some years ago--never mind how long precisely-", 0x02a2e85470d6fd96},
	} {
		if got := PayloadHash([]byte(tc.in)); got != tc.want {
			t.Errorf("PayloadHash(%q) = %016x, want %016x", tc.in, got, tc.want)
		}
	}
}

// referenceDeltaOps is the matcher EncodeDelta must agree with, kept as its
// specification: a map from block content to its first aligned base offset,
// and byte-wise match extension. It returns what a KindDelta payload holds
// after its two hash fields: the head length, the op count and the ops.
func referenceDeltaOps(base, head []byte) []byte {
	index := map[[deltaBlockSize]byte]int{}
	for o := 0; o+deltaBlockSize <= len(base); o += deltaBlockSize {
		block := [deltaBlockSize]byte(base[o : o+deltaBlockSize])
		if _, ok := index[block]; !ok {
			index[block] = o
		}
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(head)))
	out = binary.LittleEndian.AppendUint32(out, 0)
	ops := uint32(0)
	add := func(lit []byte) {
		if len(lit) > 0 {
			out = binary.LittleEndian.AppendUint16(out, deltaOpAdd)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(lit)))
			out = append(out, lit...)
			ops++
		}
	}
	i, litStart := 0, 0
	for i+deltaBlockSize <= len(head) {
		o, ok := index[[deltaBlockSize]byte(head[i:i+deltaBlockSize])]
		if !ok {
			i++
			continue
		}
		start := i
		for start > litStart && o > 0 && head[start-1] == base[o-1] {
			start--
			o--
		}
		length := i - start + deltaBlockSize
		for start+length < len(head) && o+length < len(base) && head[start+length] == base[o+length] {
			length++
		}
		add(head[litStart:start])
		out = binary.LittleEndian.AppendUint16(out, deltaOpCopy)
		out = binary.LittleEndian.AppendUint32(out, uint32(o))
		out = binary.LittleEndian.AppendUint32(out, uint32(length))
		ops++
		i = start + length
		litStart = i
	}
	add(head[litStart:])
	binary.LittleEndian.PutUint32(out[4:], ops)
	return out
}

// deltaOpsOffset is where a KindDelta payload's head length, op count and
// ops start: after the payload header and the base and head hashes.
const deltaOpsOffset = headerLen + 16

// checkAgainstReference encodes base→head, checks that the delta's ops equal
// the reference matcher's and that the delta applies back to head.
func checkAgainstReference(t *testing.T, name string, base, head []byte) {
	t.Helper()
	delta, err := EncodeDelta(base, head)
	if err != nil {
		t.Fatalf("%s: EncodeDelta: %v", name, err)
	}
	if want := referenceDeltaOps(base, head); !bytes.Equal(delta[deltaOpsOffset:], want) {
		t.Fatalf("%s: ops differ from the reference matcher (%d vs %d bytes)", name, len(delta)-deltaOpsOffset, len(want))
	}
	if out, err := ApplyDelta(base, delta); err != nil || !bytes.Equal(out, head) {
		t.Fatalf("%s: round trip failed: %v", name, err)
	}
	withHashes, err := EncodeDeltaWithHashes(base, head, PayloadHash(base), PayloadHash(head))
	if err != nil || !bytes.Equal(withHashes, delta) {
		t.Fatalf("%s: EncodeDeltaWithHashes differs from EncodeDelta (err %v)", name, err)
	}
}

// TestEncodeDeltaWithHashesWrongBase: the caller-supplied hashes go into the
// header unchecked, so ApplyDelta is what refuses a delta that names the
// wrong base — and a wrong head hash fails the reconstruction check.
func TestEncodeDeltaWithHashesWrongBase(t *testing.T) {
	cs := pullContainers(t, 200, 1)
	base, head := cs[0], cs[1]
	delta, err := EncodeDeltaWithHashes(base, head, PayloadHash(base)+1, PayloadHash(head))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDelta(base, delta); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Fatalf("ApplyDelta over a wrong base hash: %v, want ErrDeltaBaseMismatch", err)
	}
	delta, err = EncodeDeltaWithHashes(base, head, PayloadHash(base), PayloadHash(head)+1)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := ApplyDelta(base, delta); err == nil {
		t.Fatalf("ApplyDelta accepted a wrong head hash (%d bytes)", len(out))
	}
}

// pullContainers builds the keyed-container lineage of an agg-pull leaf: a
// store of keys zipf-sized like a restored leaf (key k holds 8+40000/(k+1)
// latency-like values; past 128 values a GK sketch at eps 0.01, below it an
// exact buffer), then rounds of 1–16-value writes to 32 zipf-drawn keys. It
// returns the KindStore container before the first round and after each.
func pullContainers(tb testing.TB, keys, rounds int) [][]byte {
	tb.Helper()
	r := rand.New(rand.NewPCG(15, 1))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(keys-1))
	values := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = math.Round(math.Exp(math.Log(20)+0.6*r.NormFloat64())*1000) / 1000
		}
		return vs
	}
	records := make([]KeyedPayload, keys)
	sums := make([]interface{ UpdateBatch([]float64) }, keys)
	for k := range sums {
		n := 8 + 40000/(k+1)
		if n > 128 {
			sums[k] = gk.NewFloat64(0.01)
		} else {
			sums[k] = exact.New()
		}
		sums[k].UpdateBatch(values(n))
		records[k] = KeyedPayload{Key: fmt.Sprintf("svc%04d.latency_ms", k), Payload: encodeOrFail(tb, sums[k])}
	}
	container := func() []byte {
		p, err := EncodeStore(records)
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	out := [][]byte{container()}
	for range rounds {
		for range 32 {
			k := int(zipf.Uint64())
			sums[k].UpdateBatch(values(1 + r.IntN(16)))
			records[k].Payload = encodeOrFail(tb, sums[k])
		}
		out = append(out, container())
	}
	return out
}

// lowEntropyBytes draws n bytes from four 8-byte words, so a payload of a
// few KB repeats many of its 32-byte blocks.
func lowEntropyBytes(r *rand.Rand, n int) []byte {
	words := [4]uint64{0, 0x0101010101010101, 0xdeadbeefcafef00d, 0x3ff0000000000000}
	out := make([]byte, 0, n+8)
	for len(out) < n {
		out = binary.LittleEndian.AppendUint64(out, words[r.IntN(len(words))])
	}
	return out[:n]
}

// mutate applies one random insert, delete or byte flip to p.
func mutate(r *rand.Rand, p []byte) []byte {
	at := r.IntN(len(p) + 1)
	switch r.IntN(3) {
	case 0:
		return slices.Insert(p, at, lowEntropyBytes(r, 1+r.IntN(40))...)
	case 1:
		return slices.Delete(p, at, min(len(p), at+1+r.IntN(40)))
	default:
		if at < len(p) {
			p[at] ^= byte(1 + r.IntN(255))
		}
		return p
	}
}

// TestEncodeDeltaMatchesReference pins EncodeDelta's op stream to the
// reference matcher on every lineage the round-trip tests use, a 1,000-key
// container over 20 write rounds, random edits of low-entropy payloads full
// of duplicate blocks, and the degenerate shapes.
func TestEncodeDeltaMatchesReference(t *testing.T) {
	t.Run("families", func(t *testing.T) {
		for _, l := range append(allKindsLineages(t), mutatedLineages(t)...) {
			checkAgainstReference(t, l.name, l.base, l.head)
		}
	})
	t.Run("store container", func(t *testing.T) {
		cs := pullContainers(t, 1000, 20)
		for i := 1; i < len(cs); i++ {
			checkAgainstReference(t, fmt.Sprintf("round %d", i), cs[i-1], cs[i])
		}
		checkAgainstReference(t, "all rounds", cs[0], cs[len(cs)-1])
	})
	t.Run("low-entropy edits", func(t *testing.T) {
		r := rand.New(rand.NewPCG(7, 7))
		for i := range 320 {
			base := lowEntropyBytes(r, r.IntN(4096))
			head := slices.Clone(base)
			for range 1 + r.IntN(8) {
				head = mutate(r, head)
			}
			checkAgainstReference(t, fmt.Sprintf("case %d", i), base, head)
		}
	})
	t.Run("edge shapes", func(t *testing.T) {
		r := rand.New(rand.NewPCG(5, 5))
		random := func(n int) []byte {
			p := make([]byte, n)
			for i := range p {
				p[i] = byte(r.Uint32())
			}
			return p
		}
		long := random(1000)
		zeros := make([]byte, 4096)
		zerosEdited := slices.Insert(slices.Clone(zeros), 2000, 1, 2, 3)
		for _, tc := range []struct {
			name       string
			base, head []byte
		}{
			{"both empty", nil, nil},
			{"empty base", nil, long},
			{"empty head", long, nil},
			{"short base", long[:31], long},
			{"short head", long, long[:31]},
			{"short both", long[:20], long[5:25]},
			{"exact blocks", long[:960], long[:960]},
			{"ragged lengths", long[:999], long[1:994]},
			{"one block", long[:32], long[:33]},
			{"shifted", long[:997], append(random(7), long[:997]...)},
			{"all zeros", zeros, zeros[:4000]},
			{"zeros edited", zeros, zerosEdited},
			{"zeros into random", zeros[:512], append(random(100), zeros[:300]...)},
		} {
			checkAgainstReference(t, tc.name, tc.base, tc.head)
		}
	})
}

// BenchmarkPayloadHash hashes an agg-pull-shaped 1,000-key container.
func BenchmarkPayloadHash(b *testing.B) {
	head := pullContainers(b, 1000, 1)[1]
	b.SetBytes(int64(len(head)))
	b.ReportAllocs()
	for b.Loop() {
		PayloadHash(head)
	}
}

// BenchmarkEncodeDeltaContainer diffs the container across one round of
// 32 small writes, as a leaf does for every agg-pull fetch.
func BenchmarkEncodeDeltaContainer(b *testing.B) {
	cs := pullContainers(b, 1000, 1)
	b.SetBytes(int64(len(cs[1])))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := EncodeDelta(cs[0], cs[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyDeltaContainer applies that delta, as the aggregator does
// for every leaf it pulls.
func BenchmarkApplyDeltaContainer(b *testing.B) {
	cs := pullContainers(b, 1000, 1)
	delta, err := EncodeDelta(cs[0], cs[1])
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(cs[1])))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ApplyDelta(cs[0], delta); err != nil {
			b.Fatal(err)
		}
	}
}
