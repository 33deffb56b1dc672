package query_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/track"
)

// wrapSnap frames a snapshot payload the way track.SnapshotSite does: the
// format magic, the payload, and its FNV-1a trailer.
func wrapSnap(payload []byte) []byte {
	b := append([]byte("VSN1"), payload...)
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum(b)
}

// spinePayload hand-builds an engine-site payload with no children and the
// given (item, count) spine entries in the given order.
func spinePayload(items ...[2]int64) []byte {
	b := []byte{track.SnapTagQuery}
	var plus int64
	for _, it := range items {
		plus += max(it[1], 0)
	}
	b = binary.AppendVarint(b, plus)
	b = binary.AppendVarint(b, plus)
	b = binary.AppendVarint(b, 0)
	b = binary.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = binary.AppendUvarint(b, uint64(it[0]))
		b = binary.AppendVarint(b, it[1])
	}
	return binary.AppendUvarint(b, 0)
}

// TestEngineSiteRestoreRejectsNonCanonical: the spine encoder writes items
// strictly increasing and never a zero count, so a blob with a repeated
// item (whose later entry would silently win), an out-of-order item, a zero
// count, or an overlong varint is corrupt. Every accepted blob re-encodes
// to itself.
func TestEngineSiteRestoreRejectsNonCanonical(t *testing.T) {
	eng, _, err := query.New(2, []query.Spec{{Algo: "det", Eps: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	overlong := spinePayload([2]int64{3, 4})
	overlong = append(overlong[:len(overlong)-1], 0x80, 0x00) // child count 0, two bytes
	cases := map[string]struct {
		payload []byte
		ok      bool
	}{
		"increasing": {spinePayload([2]int64{3, 4}, [2]int64{9, -2}), true},
		"repeated":   {spinePayload([2]int64{3, 4}, [2]int64{3, 1}), false},
		"decreasing": {spinePayload([2]int64{9, 4}, [2]int64{3, 1}), false},
		"zero count": {spinePayload([2]int64{3, 4}, [2]int64{9, 0}), false},
		"overlong":   {overlong, false},
	}
	for name, tc := range cases {
		blob := wrapSnap(tc.payload)
		site := eng.RebuildSite(0)
		err := track.RestoreSite(site, blob)
		if (err == nil) != tc.ok {
			t.Errorf("%s: RestoreSite error %v, want accepted=%v", name, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		again, err := track.SnapshotSite(site)
		if err != nil {
			t.Fatalf("%s: re-snapshot: %v", name, err)
		}
		if !bytes.Equal(again, blob) {
			t.Errorf("%s: accepted blob re-encodes differently", name)
		}
	}
}

// skipVarints returns the offset just past n varints starting at pos.
func skipVarints(t *testing.T, b []byte, pos, n int) int {
	t.Helper()
	for ; n > 0; n-- {
		_, w := binary.Uvarint(b[pos:])
		if w <= 0 {
			t.Fatalf("malformed varint at %d", pos)
		}
		pos += w
	}
	return pos
}

// TestEngineCoordRestoreRejectsNonCanonical: every boolean in a coordinator
// blob is written as the varint 0 or 1, so a flag decoding to 2 is corrupt.
// Reading it as "== 1" would accept the blob and re-encode it as 0 — two
// blobs for one state. Covered: the engine's dead-slot and detached marks,
// and the det child's collecting, replied, and dead-site flags.
func TestEngineCoordRestoreRejectsNonCanonical(t *testing.T) {
	const k = 2
	specs := []query.Spec{{Algo: "det", Eps: 0.1}}
	eng, sites, err := query.New(k, specs)
	if err != nil {
		t.Fatal(err)
	}
	sim := dist.NewSim(eng, sites)
	for _, u := range itemStream(500, k, 5) {
		sim.Step(u)
	}
	snap, err := track.SnapshotCoord(eng)
	if err != nil {
		t.Fatal(err)
	}
	payload := snap[4 : len(snap)-8]

	// Engine layout: tag, k, k dead flags, query count, then per query its
	// id, detached flag, blob length, and blob. The det child's blob: tag,
	// k, r, f(n_j), t_j, t̂, collecting, replies, fΔ, then per site its
	// replied and dead flags.
	dead := skipVarints(t, payload, 1, 1)
	detached := skipVarints(t, payload, dead, k+2)
	child := skipVarints(t, payload, detached, 2)
	collecting := skipVarints(t, payload, child+1, 5)
	replied := skipVarints(t, payload, collecting, 3)
	flags := map[string]int{
		"engine dead": dead, "detached": detached,
		"collecting": collecting, "replied": replied, "dead site": replied + 1,
	}
	for name, pos := range flags {
		if payload[pos] > 1 {
			t.Fatalf("%s: offset %d holds %d, not a flag", name, pos, payload[pos])
		}
		bad := append([]byte(nil), payload...)
		bad[pos] = 2
		fresh, _, err := query.New(k, specs)
		if err != nil {
			t.Fatal(err)
		}
		if err := track.RestoreCoord(fresh, wrapSnap(bad)); err == nil {
			t.Errorf("%s flag = 2 accepted", name)
		}
	}
}

// fuzzEngineSpecs cover every child snapshot layer a site can hold.
var fuzzEngineSpecs = "det,eps=0.1;rand,eps=0.1,seed=3;freq,eps=0.2;freq,eps=0.1,filter=odd;threshold,eps=0.1,tau=300"

// FuzzRestoreEngineSite feeds arbitrary payloads, framed with the magic and
// a fresh integrity trailer so they reach the decoders, to an engine
// site's restore. The decoder must never panic, and any blob it accepts
// must re-encode byte for byte: the decoders accept only canonical blobs.
// Seeds are real snapshots of a site at several points of a run.
func FuzzRestoreEngineSite(f *testing.F) {
	const k = 3
	specs, err := query.ParseSpecs(fuzzEngineSpecs)
	if err != nil {
		f.Fatal(err)
	}
	eng, sites, err := query.New(k, specs)
	if err != nil {
		f.Fatal(err)
	}
	sim := dist.NewSim(eng, sites)
	for i, u := range itemStream(6_000, k, 41) {
		sim.Step(u)
		if i%1_500 == 0 {
			snap, err := track.SnapshotSite(sites[1])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(snap[4 : len(snap)-8])
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		eng, _, err := query.New(k, specs)
		if err != nil {
			t.Fatal(err)
		}
		site := eng.RebuildSite(1)
		blob := wrapSnap(payload)
		if track.RestoreSite(site, blob) != nil {
			return
		}
		again, err := track.SnapshotSite(site)
		if err != nil {
			t.Fatalf("accepted blob does not re-snapshot: %v", err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("accepted blob re-encodes differently:\n got %x\nwant %x", again, blob)
		}
	})
}

// FuzzRestoreEngineCoord is FuzzRestoreEngineSite's coordinator mirror:
// arbitrary payloads, framed to reach the decoders, restored into a fresh
// engine coordinator over the same specs. The decoder must never panic, and
// any blob it accepts must re-encode byte for byte. Seeds are real
// coordinator snapshots at several points of a run.
func FuzzRestoreEngineCoord(f *testing.F) {
	const k = 3
	specs, err := query.ParseSpecs(fuzzEngineSpecs)
	if err != nil {
		f.Fatal(err)
	}
	eng, sites, err := query.New(k, specs)
	if err != nil {
		f.Fatal(err)
	}
	sim := dist.NewSim(eng, sites)
	for i, u := range itemStream(6_000, k, 43) {
		sim.Step(u)
		if i%1_500 == 0 {
			snap, err := track.SnapshotCoord(eng)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(snap[4 : len(snap)-8])
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		fresh, _, err := query.New(k, specs)
		if err != nil {
			t.Fatal(err)
		}
		blob := wrapSnap(payload)
		if track.RestoreCoord(fresh, blob) != nil {
			return
		}
		again, err := track.SnapshotCoord(fresh)
		if err != nil {
			t.Fatalf("accepted blob does not re-snapshot: %v", err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("accepted blob re-encodes differently:\n got %x\nwant %x", again, blob)
		}
	})
}
