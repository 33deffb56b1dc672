package freq

import (
	"testing"
	"unsafe"
)

// TestTouchReportsAtThreshold pins the counter send condition at its
// boundary: a counter reports once its drift from the mirror reaches the
// threshold (§H: |f_ic − f̂_ic| ≥ ε·2^r/3), not only once it passes it.
// The thresholds of the usual ε never land on an integer, so no protocol
// run tells the two apart.
func TestTouchReportsAtThreshold(t *testing.T) {
	var rows Rows
	j := rows.AddColumn()
	rows.cols[j].limit = 2
	r := rows.Upsert(7)
	for net, quiet := range []bool{true, true, false, false} {
		r.Net = int64(net)
		if got := rows.Touch(r, j); got != quiet {
			t.Errorf("drift %d against threshold 2: quiet=%v, want %v", net, got, quiet)
		}
	}
	r.Net = -2
	if rows.Touch(r, j) {
		t.Error("drift -2 against threshold 2: quiet, want a report")
	}
	if _, live := rows.cell(r, j); !*live {
		t.Error("Touch left the cell dead")
	}
}

// TestRowIs32Bytes pins a row at 32 bytes: the match mask an engine site
// caches in it lives in what was padding, and a wider row would make
// every table slot, and every probe and sweep, wider too.
func TestRowIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Row{}); n != 32 {
		t.Fatalf("Row is %d bytes, want 32", n)
	}
}
