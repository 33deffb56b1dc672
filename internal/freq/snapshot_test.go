package freq

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/track"
)

// freqSitePayload hand-builds a freqSite snapshot layer holding the given
// (cell, count, mirror) triples in the given order.
func freqSitePayload(cells ...[3]int64) []byte {
	b := []byte{track.SnapTagFreq}
	b = binary.AppendUvarint(b, math.Float64bits(1))
	b = binary.AppendUvarint(b, math.Float64bits(3))
	b = binary.AppendVarint(b, 0)
	b = binary.AppendVarint(b, 0)
	b = binary.AppendUvarint(b, uint64(len(cells)))
	for _, c := range cells {
		b = binary.AppendUvarint(b, uint64(c[0]))
		b = binary.AppendVarint(b, c[1])
		b = binary.AppendVarint(b, c[2])
	}
	return b
}

// freqCoordPayload hand-builds a freqCoord snapshot layer over two sites
// holding the given (cell, estimate) pairs in the given order.
func freqCoordPayload(cells ...[2]int64) []byte {
	b := []byte{track.SnapTagFreqCoord}
	b = binary.AppendUvarint(b, uint64(len(cells)))
	for _, c := range cells {
		b = binary.AppendUvarint(b, uint64(c[0]))
		b = binary.AppendVarint(b, c[1])
	}
	b = binary.AppendUvarint(b, 2)
	for range 3 { // two per-site drifts, then their sum
		b = binary.AppendVarint(b, 0)
	}
	return b
}

// TestFreqRestoreRejectsNonCanonical pins the canonical-decode rule for
// both frequency layers: the encoders write cells strictly increasing, so a
// repeated or out-of-order cell (which would silently overwrite an earlier
// entry and re-encode differently) is a corrupt snapshot.
func TestFreqRestoreRejectsNonCanonical(t *testing.T) {
	site := map[string]struct {
		payload []byte
		ok      bool
	}{
		"increasing": {freqSitePayload([3]int64{2, 5, 1}, [3]int64{7, 0, 0}), true},
		"repeated":   {freqSitePayload([3]int64{7, 5, 1}, [3]int64{7, 6, 0}), false},
		"decreasing": {freqSitePayload([3]int64{7, 5, 1}, [3]int64{2, 6, 0}), false},
	}
	for name, tc := range site {
		err := track.Decode(tc.payload, newFreqSite(0, 0.1, ExactMapper{}).Snap)
		if ok := err == nil; ok != tc.ok {
			t.Errorf("freqSite %s: accepted=%v (err %v), want %v", name, ok, err, tc.ok)
		}
	}
	// A drift vector sized for another k used to be skipped silently, so
	// the blob decoded as zeros and re-encoded with the right size.
	short := freqCoordPayload([2]int64{2, 5})
	short = append(short[:len(short)-4], 1)
	coord := map[string]struct {
		payload []byte
		ok      bool
	}{
		"increasing":         {freqCoordPayload([2]int64{2, 5}, [2]int64{7, 0}), true},
		"repeated":           {freqCoordPayload([2]int64{7, 5}, [2]int64{7, 6}), false},
		"decreasing":         {freqCoordPayload([2]int64{7, 5}, [2]int64{2, 6}), false},
		"short drift vector": {short, false},
	}
	for name, tc := range coord {
		err := track.Decode(tc.payload, newFreqCoord(2).Snap)
		if ok := err == nil; ok != tc.ok {
			t.Errorf("freqCoord %s: accepted=%v (err %v), want %v", name, ok, err, tc.ok)
		}
	}
}
