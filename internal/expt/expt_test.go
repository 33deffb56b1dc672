package expt

import (
	"bytes"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 42} }

func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl := e.Run(quickCfg())
			if tbl == nil {
				t.Fatal("nil table")
			}
			if tbl.ID != e.ID {
				t.Fatalf("table ID %q, want %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("ragged row %v", row)
				}
			}
		})
	}
}

func TestE06NoViolationsColumn(t *testing.T) {
	tbl := E06Deterministic(quickCfg())
	// The last column is the violation count; every entry must be "0".
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("deterministic violation in row %v", row)
		}
	}
}

func TestE06MessagesWithinBound(t *testing.T) {
	tbl := E06Deterministic(quickCfg())
	// Column 6 is msgs/bound; it must be ≤ 1.
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[6], "0.") {
			t.Fatalf("msgs/bound = %s in row %v", row[6], row)
		}
	}
}

func TestE10NoViolations(t *testing.T) {
	tbl := E10SingleSite(quickCfg())
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("single-site violation in row %v", row)
		}
	}
}

func TestE12NoViolations(t *testing.T) {
	tbl := E12FreqExact(quickCfg())
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("freq-exact violation in row %v", row)
		}
	}
}

func TestE14NoViolations(t *testing.T) {
	tbl := E14FreqCR(quickCfg())
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("CR-precis violation in row %v", row)
		}
	}
}

func TestE15AllDecoded(t *testing.T) {
	tbl := E15DetFamily(quickCfg())
	for _, row := range tbl.Rows {
		if row[5] != "true" {
			t.Fatalf("Index reduction failed to decode in row %v", row)
		}
		if row[7] != "true" {
			t.Fatalf("summary smaller than information bound in row %v", row)
		}
	}
}

func TestE16NoMatches(t *testing.T) {
	tbl := E16RandFamily(quickCfg())
	for _, row := range tbl.Rows {
		if row[5] != "0" {
			t.Fatalf("matching pair in row %v", row)
		}
	}
}

func TestE17AllOk(t *testing.T) {
	tbl := E17Tracing(quickCfg())
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("tracing failure in row %v", row)
		}
	}
}

func TestE19PerStepGuaranteeOverTCP(t *testing.T) {
	tbl := E19NetTransport(quickCfg())
	if len(tbl.Rows) == 0 {
		t.Fatalf("no row (notes: %v)", tbl.Notes)
	}
	for _, row := range tbl.Rows {
		// The last column counts per-step guarantee violations under
		// lockstep delivery; it must be 0.
		if row[len(row)-1] != "0" {
			t.Fatalf("per-step violations over TCP: %v", row)
		}
	}
}

// TestE19Deterministic pins the lockstep determinism the parallel runner's
// byte-identity contract relies on: the live-TCP experiment must render
// identically on repeated runs.
func TestE19Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the TCP experiment twice")
	}
	var a, b bytes.Buffer
	E19NetTransport(quickCfg()).Render(&a)
	E19NetTransport(quickCfg()).Render(&b)
	if a.String() != b.String() {
		t.Fatalf("E19 renders differ between runs:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tbl := NewTable("T0", "demo", "a", "bb")
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.AddNote("note %d", 7)
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T0", "demo", "333", "note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	tbl.CSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,bb" || lines[1] != "1,2" {
		t.Fatalf("csv output: %q", buf.String())
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tbl := NewTable("T1", "demo", "x")
	tbl.AddRow(`a,"b`)
	var buf bytes.Buffer
	tbl.CSV(&buf)
	if !strings.Contains(buf.String(), `"a,""b"`) {
		t.Fatalf("csv escaping wrong: %q", buf.String())
	}
}

func TestTableAddRowPanicsOnArity(t *testing.T) {
	tbl := NewTable("T2", "demo", "x", "y")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tbl.AddRow("only-one")
}

func TestFind(t *testing.T) {
	if _, ok := Find("E01"); !ok {
		t.Fatal("E01 not found")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("E99 should not exist")
	}
}

func TestE20AllOk(t *testing.T) {
	tbl := E20ChangepointSummary(quickCfg())
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("changepoint history failed in row %v", row)
		}
	}
}

func TestE21NoSyncWorstOnGrowShrink(t *testing.T) {
	tbl := E21FreqSampledAblation(quickCfg())
	// Locate the grow-shrink rows: deterministic must be 0.0%, and
	// sampled-nosync must be strictly worse than sampled+sync.
	var det, sync, nosync string
	for _, row := range tbl.Rows {
		if row[0] != "grow-shrink" {
			continue
		}
		switch row[1] {
		case "deterministic":
			det = row[3]
		case "sampled+sync":
			sync = row[3]
		case "sampled-nosync":
			nosync = row[3]
		}
	}
	if det != "0.0%" {
		t.Fatalf("deterministic variant violated: %s", det)
	}
	if sync == "" || nosync == "" {
		t.Fatal("missing ablation rows")
	}
	if nosync == "0.0%" {
		t.Fatalf("no-sync variant unexpectedly clean (sync=%s nosync=%s)", sync, nosync)
	}
}

func TestE22RankErrorWithinEps(t *testing.T) {
	tbl := E22QuantileHistory(quickCfg())
	for _, row := range tbl.Rows {
		// Column 5 is the snapshot-count bound check; last is max rank err.
		if row[5] != "true" {
			t.Fatalf("snapshot count out of bound in row %v", row)
		}
	}
}

func TestE23NoPromiseViolations(t *testing.T) {
	tbl := E23Threshold(quickCfg())
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("threshold promise violated in row %v", row)
		}
	}
}

func TestE24AllOk(t *testing.T) {
	tbl := E24DyadicRank(quickCfg())
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("dyadic rank failure in row %v", row)
		}
	}
}

func TestE28MuxMatchesSeparate(t *testing.T) {
	tbl := E28MuxAmortization(quickCfg())
	for _, row := range tbl.Rows {
		if row[1] != row[2] || row[3] != row[4] {
			t.Fatalf("mux and separate deployments diverged in row %v", row)
		}
		if row[len(row)-1] != "true" {
			t.Fatalf("per-query attribution inexact in row %v", row)
		}
	}
}

func TestE30BatchIdenticalAndAmortized(t *testing.T) {
	tbl := E30EngineBatch(quickCfg())
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("batched and per-update drives diverged in row %v", row)
		}
		if row[1] == "roundrobin" && row[3] != row[4] {
			t.Fatalf("round-robin batched drive should bypass batching in row %v", row)
		}
		if row[1] != "roundrobin" && row[5] == "1.0" {
			t.Fatalf("skewed assignment produced no amortization in row %v", row)
		}
	}
}

func TestE29AttachConverges(t *testing.T) {
	tbl := E29DynamicAttach(quickCfg())
	for _, row := range tbl.Rows {
		if row[0] == "zero" && row[2] != "1" {
			t.Fatalf("zero-net attach not immediately exact in row %v", row)
		}
		if row[2] == "never" {
			t.Fatalf("attach never converged in row %v", row)
		}
		if row[len(row)-1] != "true" {
			t.Fatalf("final estimate out of band in row %v", row)
		}
	}
}
