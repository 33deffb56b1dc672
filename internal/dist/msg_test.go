package dist

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestCompactBitsMatchesVarint prices messages against the encoding/binary
// varint lengths at every 7-bit group boundary: each power of two, its
// neighbours and their negations, through both the length helpers and
// compactBits itself.
func TestCompactBitsMatchesVarint(t *testing.T) {
	vals := []int64{0, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for s := 0; s < 64; s++ {
		v := int64(uint64(1) << s)
		vals = append(vals, v-1, v, v+1, -v+1, -v, -v-1)
	}
	for _, x := range vals {
		if got, want := uvarintLen(uint64(x)), len(binary.AppendUvarint(nil, uint64(x))); got != want {
			t.Fatalf("uvarintLen(%#x) = %d, binary.AppendUvarint length %d", uint64(x), got, want)
		}
		if got, want := svarintLen(x), len(binary.AppendVarint(nil, x)); got != want {
			t.Fatalf("svarintLen(%d) = %d, binary.AppendVarint length %d", x, got, want)
		}
	}
	for i, x := range vals {
		y := vals[(i*7+3)%len(vals)]
		m := Msg{Kind: KindFreqReport, Site: int32(x), Item: uint64(y), A: x, B: y}
		want := 8 * (1 + len(binary.AppendVarint(nil, int64(m.Site))) + len(binary.AppendUvarint(nil, m.Item)) +
			len(binary.AppendVarint(nil, m.A)) + len(binary.AppendVarint(nil, m.B)))
		if got := compactBits(&m); got != int64(want) {
			t.Fatalf("compactBits(%+v) = %d, want %d", m, got, want)
		}
	}
}
