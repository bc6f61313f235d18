package encoding

// KindStore is the multi-key container format of the keyed store tier
// (internal/store): a payload holding any number of (key, nested summary
// payload) records, so a whole multi-tenant store snapshots and restores as
// one wire object and the keyed aggregator can merge stores per key across
// peers. Nested payloads are ordinary single-summary payloads of this
// package (any kind except KindStore itself — the container does not nest),
// so every family a store can hold round-trips through it unchanged.

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"quantilelb/internal/exact"
	"quantilelb/internal/summary"
)

// MaxStoreKeyBytes bounds the serialized length of one store key. The HTTP
// tier enforces a tighter limit; the wire format rejects anything beyond this
// so a corrupt length prefix cannot demand a huge allocation.
const MaxStoreKeyBytes = 4096

// KeyedPayload is one record of a KindStore container: a store key and the
// wire payload of the summary held under it.
type KeyedPayload struct {
	// Key is the store key (per-metric / per-tenant identifier).
	Key string
	// Payload is a single-summary payload of this package (never KindStore).
	Payload []byte
}

// EncodeStore serializes keyed summary payloads as one KindStore container.
// Records are written in ascending key order regardless of input order, so
// equal stores produce byte-identical payloads. Duplicate keys, keys longer
// than MaxStoreKeyBytes, and nested payloads that are not themselves valid
// single-summary payloads are rejected. The container is allocated once at
// its exact size, and it is the only allocation when the entries already
// ascend by key (the keyed store's snapshots do); otherwise a sorted copy of
// the entries is made first.
func EncodeStore(entries []KeyedPayload) ([]byte, error) {
	byKey := func(a, b KeyedPayload) int { return strings.Compare(a.Key, b.Key) }
	sorted := entries
	if !slices.IsSortedFunc(entries, byKey) {
		sorted = slices.Clone(entries)
		slices.SortFunc(sorted, byKey)
	}
	body := 4
	for i, e := range sorted {
		if len(e.Key) > MaxStoreKeyBytes {
			return nil, fmt.Errorf("encoding: store key of %d bytes exceeds %d", len(e.Key), MaxStoreKeyBytes)
		}
		if i > 0 && e.Key == sorted[i-1].Key {
			return nil, fmt.Errorf("encoding: duplicate store key %q", e.Key)
		}
		body += 4 + len(e.Key) + 4 + len(e.Payload)
	}
	w := newPayload(KindStore, body)
	w.u32(uint32(len(sorted)))
	for _, e := range sorted {
		// Each nested payload is checked as it is copied, so its bytes are
		// read once.
		kind, err := DetectKind(e.Payload)
		if err != nil {
			return nil, fmt.Errorf("encoding: store key %q: invalid nested payload: %w", e.Key, err)
		}
		if kind == KindStore {
			return nil, fmt.Errorf("encoding: store key %q: KindStore containers do not nest", e.Key)
		}
		w.u32(uint32(len(e.Key)))
		w.buf = append(w.buf, e.Key...)
		w.u32(uint32(len(e.Payload)))
		w.raw(e.Payload)
	}
	return w.buf, nil
}

// DecodeStore reads a KindStore container back into its records, in the
// ascending key order EncodeStore wrote them. Each nested payload is
// validated to open as a single-summary payload (magic, version, non-store
// kind); fully decoding the nested summaries is the caller's job, so a store
// restore can skip keys it does not want. Duplicate keys are rejected — a
// keyed merge must never silently drop one of two states for the same key.
//
// Each record's Payload is a capacity-clipped sub-slice of payload, not a
// copy: it stays valid only while the caller leaves payload unmodified, and
// appending to it never writes into payload.
func DecodeStore(payload []byte) ([]KeyedPayload, error) {
	r, err := openKind(payload, KindStore, "store")
	if err != nil {
		return nil, err
	}
	numKeys := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("encoding: truncated store header: %w", r.err)
	}
	// Each record occupies at least its two length prefixes.
	if !r.need(int64(numKeys) * 8) {
		return nil, fmt.Errorf("encoding: truncated store records: %w", r.err)
	}
	out := make([]KeyedPayload, 0, numKeys)
	seen := make(map[string]bool, numKeys)
	for i := uint32(0); i < numKeys; i++ {
		keyLen := r.u32()
		if r.err != nil {
			return nil, fmt.Errorf("encoding: truncated store record %d: %w", i, r.err)
		}
		if keyLen > MaxStoreKeyBytes {
			return nil, fmt.Errorf("encoding: store record %d declares a %d-byte key (max %d)", i, keyLen, MaxStoreKeyBytes)
		}
		if !r.need(int64(keyLen)) {
			return nil, fmt.Errorf("encoding: truncated store key: %w", r.err)
		}
		key := string(r.bytes(int(keyLen)))
		if seen[key] {
			return nil, fmt.Errorf("encoding: duplicate store key %q", key)
		}
		seen[key] = true
		payloadLen := r.u32()
		if r.err != nil {
			return nil, fmt.Errorf("encoding: truncated store record %q: %w", key, r.err)
		}
		if !r.need(int64(payloadLen)) {
			return nil, fmt.Errorf("encoding: truncated store payload for key %q: %w", key, r.err)
		}
		nested := r.bytes(int(payloadLen))
		nestedKind, err := DetectKind(nested)
		if err != nil {
			return nil, fmt.Errorf("encoding: store key %q: invalid nested payload: %w", key, err)
		}
		if nestedKind == KindStore {
			return nil, fmt.Errorf("encoding: store key %q: KindStore containers do not nest", key)
		}
		out = append(out, KeyedPayload{Key: key, Payload: nested})
	}
	return out, nil
}

// ErrNotMergeable is wrapped by MergeAny when the destination family has no
// merge operation (the sliding-window summary) or the two sides hold
// different families.
var ErrNotMergeable = errors.New("encoding: summaries are not mergeable")

// CheckMergeable reports whether MergeAdopting(dst, src) would succeed,
// without mutating either side. It covers every failure the merge can
// produce: mismatched or non-mergeable families, a KLL k mismatch, an MRL
// buffer-capacity mismatch, and an MLQ block-size mismatch (an empty src
// merges into anything of its own family, mirroring the Merge
// implementations). The keyed store uses it to
// validate a whole container against its current state before applying
// anything, so a bad record rejects the container whole instead of after a
// partial merge.
func CheckMergeable(dst, src any) error {
	// Cross-stage pairs involving the exact buffer: a buffered key merges with
	// anything that can ingest items. src exact → its items replay into dst;
	// dst exact + src sketch → the buffer's items replay into src, which then
	// replaces dst (callers must use MergeAdopting for that direction).
	if _, ok := src.(*exact.Buffer); ok {
		if _, ok := dst.(updater); ok {
			return nil
		}
		return fmt.Errorf("%w: cannot replay exact items into %T", ErrNotMergeable, dst)
	}
	if _, ok := dst.(*exact.Buffer); ok {
		if _, ok := src.(updater); ok {
			return nil
		}
		return fmt.Errorf("%w: cannot replay exact items into %T", ErrNotMergeable, src)
	}
	ops, err := mergeOps(dst, src)
	if err != nil {
		return err
	}
	return ops.check(dst, src)
}

// mergeOps returns the operations of dst's family after checking that the
// family merges and that src holds the same family.
func mergeOps(dst, src any) (familyOps, error) {
	f := familyOf(dst)
	if f == nil || !f.ops.merges() {
		return nil, fmt.Errorf("%w: %T has no merge operation", ErrNotMergeable, dst)
	}
	if !f.ops.holds(src) {
		return nil, fmt.Errorf("%w: cannot merge %T into %T; both sides must hold the same family", ErrNotMergeable, src, dst)
	}
	return f.ops, nil
}

// updater is the minimal ingest interface every float64 summary implements;
// replayExact uses it as the universal fallback target.
type updater interface{ Update(float64) }

// weightedUpdater matches the native weighted-ingest path (summary.WeightedUpdater
// specialized to float64) without importing the generic interface here.
type weightedUpdater interface{ WeightedUpdate(float64, int64) }

// replayExact feeds every retained (value, weight) slot of an exact buffer
// into dst: through dst's native weighted path when it has one, and through
// the documented weight-expansion fallback otherwise (guarded by
// summary.MaxExpansionWeight so a corrupt weight cannot stall the process).
func replayExact(b *exact.Buffer, dst any) error {
	if wu, ok := dst.(weightedUpdater); ok {
		b.Each(func(v float64, w int64) { wu.WeightedUpdate(v, w) })
		return nil
	}
	u, ok := dst.(updater)
	if !ok {
		return fmt.Errorf("%w: cannot replay exact items into %T", ErrNotMergeable, dst)
	}
	var err error
	b.Each(func(v float64, w int64) {
		if err != nil {
			return
		}
		if w > summary.MaxExpansionWeight {
			err = fmt.Errorf("encoding: exact slot weight %d exceeds the expansion cap %d for %T", w, summary.MaxExpansionWeight, dst)
			return
		}
		for i := int64(0); i < w; i++ {
			u.Update(v)
		}
	})
	return err
}

// MergeAdopting merges src into dst and returns the summary that now holds
// the union. In the common case that is dst (MergeAny semantics). When dst is
// an exact buffer and src is a sketch, the buffer's items replay into src and
// src is returned — the cross-stage promotion path of keyed merges; the
// caller must own src (e.g. have freshly decoded it) and must adopt the
// returned summary in dst's place.
func MergeAdopting(dst, src any) (any, error) {
	if d, ok := dst.(*exact.Buffer); ok {
		if s, ok := src.(*exact.Buffer); ok {
			return d, d.Merge(s)
		}
		if err := replayExact(d, src); err != nil {
			return nil, err
		}
		return src, nil
	}
	return dst, MergeAny(dst, src)
}

// MergeAny folds src into dst when both hold the same mergeable concrete
// float64 summary family (every family but the sliding window), or when src
// is an exact buffer whose items replay into dst. Every branch preserves the
// COMBINE budget eps_new = max(eps_dst, eps_src). It is the single
// merge-dispatch point shared by the cluster aggregator and the keyed store;
// a family becomes mergeable everywhere through its row in the family table.
func MergeAny(dst, src any) error {
	_, dstExact := dst.(*exact.Buffer)
	if s, ok := src.(*exact.Buffer); ok && !dstExact {
		// A buffered key's exact items replay into the sketch dst through
		// its native ingest path — lossless for src, eps unchanged for dst.
		return replayExact(s, dst)
	}
	ops, err := mergeOps(dst, src)
	if err != nil {
		if dstExact {
			return fmt.Errorf("%w: cannot merge %T into an exact buffer in place; use MergeAdopting", ErrNotMergeable, src)
		}
		return err
	}
	return ops.merge(dst, src)
}
