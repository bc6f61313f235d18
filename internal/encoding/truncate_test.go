package encoding

// Truncation sweep: every strict prefix of every pinned payload, and of a
// delta between two containers, must be rejected with an error and a nil
// result. The fuzz smokes sample prefixes at random; this pins all of them.

import (
	"testing"
)

func TestEveryStrictPrefixIsRejected(t *testing.T) {
	for name, p := range goldenPayloads(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for n := range len(p) {
				prefix := p[:n:n]
				if name == "store" {
					recs, err := DecodeStore(prefix)
					if err == nil || recs != nil {
						t.Fatalf("DecodeStore of a %d/%d-byte prefix = (%d records, %v), want (nil, error)", n, len(p), len(recs), err)
					}
					continue
				}
				dec, err := Decode(prefix)
				if err == nil || dec != nil {
					t.Fatalf("Decode of a %d/%d-byte prefix = (%T, %v), want (nil, error)", n, len(p), dec, err)
				}
			}
		})
	}
}

func TestEveryStrictDeltaPrefixIsRejected(t *testing.T) {
	golden := goldenPayloads(t)
	base := golden["store"]
	// The head changes one record, adds one and keeps one, so the delta
	// carries copy ops and literals.
	head, err := EncodeStore([]KeyedPayload{
		{Key: "lat.api", Payload: golden["gk"]},
		{Key: "lat.db", Payload: golden["req"]},
		{Key: "lat.web", Payload: golden["exact"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := EncodeDelta(base, head)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) >= len(head) {
		t.Fatalf("delta of %d bytes is no smaller than the %d-byte head", len(delta), len(head))
	}
	if got, err := ApplyDelta(base, delta); err != nil || string(got) != string(head) {
		t.Fatalf("ApplyDelta of the whole delta: %v", err)
	}
	for n := range len(delta) {
		got, err := ApplyDelta(base, delta[:n:n])
		if err == nil || got != nil {
			t.Fatalf("ApplyDelta of a %d/%d-byte prefix = (%d bytes, %v), want (nil, error)", n, len(delta), len(got), err)
		}
	}
}
