package stream

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// writeV1Trace encodes updates in the historical format-1 layout (no site
// count) so back-compat reading stays pinned even though nothing writes
// format 1 anymore.
func writeV1Trace(t *testing.T, ups []Update) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write([]byte("strvar01"))
	var tmp [binary.MaxVarintLen64]byte
	var prevSite int64
	var prevItem uint64
	for _, u := range ups {
		n := binary.PutVarint(tmp[:], int64(u.Site)-prevSite)
		buf.Write(tmp[:n])
		n = binary.PutVarint(tmp[:], u.Delta)
		buf.Write(tmp[:n])
		n = binary.PutVarint(tmp[:], int64(u.Item)-int64(prevItem))
		buf.Write(tmp[:n])
		prevSite = int64(u.Site)
		prevItem = u.Item
	}
	return buf.Bytes()
}

func collectEqual(t *testing.T, tr *TraceReader, want []Update) {
	t.Helper()
	got := Collect(tr)
	if tr.Err() != nil {
		t.Fatalf("reader error: %v", tr.Err())
	}
	if len(got) != len(want) {
		t.Fatalf("read %d updates, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("update %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestTraceV1BackCompat pins the format-1 read path: accepted, K() == 0,
// contents identical.
func TestTraceV1BackCompat(t *testing.T) {
	ups := Collect(NewAssign(RandomWalk(2000, 5), NewRoundRobin(3)))
	data := writeV1Trace(t, ups)
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("format-1 trace rejected: %v", err)
	}
	if tr.K() != 0 {
		t.Fatalf("format-1 K() = %d, want 0 (unknown)", tr.K())
	}
	collectEqual(t, tr, ups)
}

// TestTraceKRoundTrip pins the format-2 k field through WriteTraceK and
// the streaming TraceWriter, and checks both writers produce identical
// bytes for identical input.
func TestTraceKRoundTrip(t *testing.T) {
	const k = 7
	ups := Collect(NewAssign(BiasedWalk(3000, 0.2, 9), NewSkewed(k, 1.3, 4)))

	var whole bytes.Buffer
	n, err := WriteTraceK(&whole, NewSlice(ups), k)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(ups)) {
		t.Fatalf("WriteTraceK wrote %d updates, want %d", n, len(ups))
	}

	var streamed bytes.Buffer
	tw, err := NewTraceWriter(&streamed, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range ups {
		if err := tw.Write(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Count() != int64(len(ups)) {
		t.Fatalf("TraceWriter.Count() = %d, want %d", tw.Count(), len(ups))
	}
	if !bytes.Equal(whole.Bytes(), streamed.Bytes()) {
		t.Fatal("WriteTraceK and streaming TraceWriter produced different bytes")
	}

	tr, err := NewTraceReader(&whole)
	if err != nil {
		t.Fatal(err)
	}
	if tr.K() != k {
		t.Fatalf("K() = %d, want %d", tr.K(), k)
	}
	collectEqual(t, tr, ups)
}

// TestTraceRoundTripPropertyV2 is the randomized round-trip property over
// the format-2 path: random walks, random skew, random k.
func TestTraceRoundTripPropertyV2(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%16) + 1
		ups := Collect(NewAssign(BiasedWalk(400, 0.3, seed), NewSkewed(k, 1.2, seed+1)))
		var buf bytes.Buffer
		if _, err := WriteTraceK(&buf, NewSlice(ups), k); err != nil {
			return false
		}
		tr, err := NewTraceReader(&buf)
		if err != nil || tr.K() != k {
			return false
		}
		got := Collect(tr)
		if tr.Err() != nil || len(got) != len(ups) {
			return false
		}
		for i := range got {
			if got[i] != ups[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceSiteOutOfRange pins the new validation: a trace whose records
// claim sites outside the header's [0, k) must surface a corrupt-trace
// error instead of letting the replayer index out of range.
func TestTraceSiteOutOfRange(t *testing.T) {
	// 3 updates on sites 0,1,5 against a header claiming k = 2.
	ups := []Update{
		{T: 1, Site: 0, Delta: 1},
		{T: 2, Site: 1, Delta: -1},
		{T: 3, Site: 5, Delta: 1},
	}
	var buf bytes.Buffer
	if _, err := WriteTraceK(&buf, NewSlice(ups), 2); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(tr)
	if len(got) != 2 {
		t.Fatalf("read %d updates before the bad site, want 2", len(got))
	}
	if tr.Err() == nil || !strings.Contains(tr.Err().Error(), "out of range") {
		t.Fatalf("out-of-range site not reported: %v", tr.Err())
	}

	// A negative site (corrupt delta chain) must be caught even with k
	// unrecorded.
	neg := writeV1Trace(t, []Update{{T: 1, Site: 2, Delta: 1}})
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], -7) // site gap to −5
	neg = append(neg, tmp[:n]...)
	n = binary.PutVarint(tmp[:], 1)
	neg = append(neg, tmp[:n]...)
	n = binary.PutVarint(tmp[:], 0)
	neg = append(neg, tmp[:n]...)
	tr, err = NewTraceReader(bytes.NewReader(neg))
	if err != nil {
		t.Fatal(err)
	}
	Collect(tr)
	if tr.Err() == nil || !strings.Contains(tr.Err().Error(), "out of range") {
		t.Fatalf("negative site not reported: %v", tr.Err())
	}
}

// TestTraceCorruptHeaders covers the header error paths: truncated magic,
// truncated k field, and an absurd site count.
func TestTraceCorruptHeaders(t *testing.T) {
	cases := map[string][]byte{
		"empty":          nil,
		"short magic":    []byte("strv"),
		"bad magic":      []byte("strvarXX"),
		"v2 no k":        []byte("strvar02"),
		"v2 absurd k":    append([]byte("strvar02"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F),
		"v2 truncated k": append([]byte("strvar02"), 0x80),
	}
	for name, data := range cases {
		if _, err := NewTraceReader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTraceWriterRejectsBadK pins the writer-side bound.
func TestTraceWriterRejectsBadK(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewTraceWriter(&buf, -1); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := NewTraceWriter(&buf, 1<<25); err == nil {
		t.Error("absurd k accepted")
	}
}

// FuzzTraceReader feeds arbitrary bytes to the trace reader: it must not
// panic, every site it yields must lie in [0, K()) when the header records
// K, and the accepted prefix, re-encoded with WriteTraceK(K()), must read
// back as the same updates.
func FuzzTraceReader(f *testing.F) {
	for _, seed := range []struct {
		ups []Update
		k   int
	}{
		{Collect(NewAssign(RandomWalk(64, 5), NewRoundRobin(3))), 3},
		{Collect(NewAssign(BiasedWalk(64, 0.2, 9), NewSkewed(7, 1.3, 4))), 7},
		{Collect(NewAssign(NewItemGen(64, 50, 1.1, 0.3, 2), NewRoundRobin(2))), 0},
	} {
		var buf bytes.Buffer
		if _, err := WriteTraceK(&buf, NewSlice(seed.ups), seed.k); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var v1 bytes.Buffer
	v1.Write(traceMagicV1[:])
	f.Add(v1.Bytes())
	f.Add(append(traceMagicV2[:], 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		k := tr.K()
		got := Collect(tr)
		for i, u := range got {
			if u.Site < 0 || (k > 0 && u.Site >= k) {
				t.Fatalf("update %d: site %d outside [0, %d)", i, u.Site, k)
			}
		}
		var buf bytes.Buffer
		if _, err := WriteTraceK(&buf, NewSlice(got), k); err != nil {
			t.Fatalf("re-encoding the accepted prefix: %v", err)
		}
		back, err := NewTraceReader(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		again := Collect(back)
		if back.Err() != nil || back.K() != k || !slices.Equal(again, got) {
			t.Fatalf("re-encoded trace reads back %d updates (k=%d, err %v), want %d (k=%d)",
				len(again), back.K(), back.Err(), len(got), k)
		}
	})
}
