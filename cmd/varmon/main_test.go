package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runVarmon drives the in-process CLI and returns its stdout.
func runVarmon(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errOut bytes.Buffer
	err := run(args, &out, &errOut)
	if err != nil {
		t.Logf("varmon %s\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), out.String(), errOut.String())
	}
	return out.String(), err
}

var (
	finalLine  = regexp.MustCompile(`(?m)^final: f=(-?\d+) f̂=(-?\d+) `)
	faultsLine = regexp.MustCompile(`(?m)^faults: .* takeovers=(\d+) coordinator takeovers=(\d+) `)
	detRow     = regexp.MustCompile(`(?m)^(\S+)\s+det\s+\S+\s+\S+\s+\S+\s+\S+\s+(true|false)\s`)
)

// checkRun asserts what every finished run promises: the takeover
// counters the fault plan owes, and every deterministic query inside ε.
func checkRun(t *testing.T, out string, siteTk, coordTk int) {
	t.Helper()
	if siteTk+coordTk > 0 {
		m := faultsLine.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no faults line in:\n%s", out)
		}
		if m[1] != strconv.Itoa(siteTk) || m[2] != strconv.Itoa(coordTk) {
			t.Errorf("takeovers=%s coordinator takeovers=%s, want %d and %d", m[1], m[2], siteTk, coordTk)
		}
	} else if faultsLine.MatchString(out) {
		t.Errorf("a run without a fault plan reported faults:\n%s", out)
	}
	if m := finalLine.FindStringSubmatch(out); m != nil {
		f, _ := strconv.ParseFloat(m[1], 64)
		est, _ := strconv.ParseFloat(m[2], 64)
		if d := f - est; d > 0.1*abs(f)+1e-9 || -d > 0.1*abs(f)+1e-9 {
			t.Errorf("final f=%v f̂=%v outside ε=0.1", f, est)
		}
		return
	}
	rows := detRow.FindAllStringSubmatch(out, -1)
	if len(rows) == 0 {
		t.Fatalf("no final line and no det rows in:\n%s", out)
	}
	for _, r := range rows {
		if r[2] != "true" {
			t.Errorf("query %s finished outside its ε band", r[1])
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func countSnapshots(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "coord-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestDriverAsyncMatrix runs the one driver over AsyncSim for every query
// plan × fault plan × persistence setting: each combination must exit
// cleanly with the takeovers its plan owes and every deterministic query
// inside ε, write one snapshot per progress interval whatever the fault
// plan, and print byte-identical output when run twice with the same seed.
func TestDriverAsyncMatrix(t *testing.T) {
	plans := map[string][]string{
		"single": nil,
		// One query attaches before the kills, one after every takeover.
		"multi": {"-queries", "det,eps=0.1;rand,eps=0.1;det,eps=0.05,at=3000;det,eps=0.1,at=15000"},
	}
	faults := []struct {
		name           string
		args           []string
		siteTk, coorTk int
		warm           bool
	}{
		{"none", nil, 0, 0, false},
		{"kill-site", []string{"-kill", "8000:1"}, 1, 0, false},
		{"kill-coord-warm", []string{"-kill-coord", "8000", "-standby"}, 0, 1, true},
		{"kill-coord-cold", []string{"-kill-coord", "8000"}, 0, 1, false},
		// A site dies inside the coordinator outage: its snapshot comes
		// straight from the algorithm, and its takeover waits for the
		// standby's verdict.
		{"kill-both", []string{"-kill-coord", "8000", "-kill", "9000:1"}, 1, 1, false},
	}
	for plan, planArgs := range plans {
		for _, fault := range faults {
			for _, disk := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/disk=%v", plan, fault.name, disk)
				t.Run(name, func(t *testing.T) {
					dir := filepath.Join(t.TempDir(), "snaps")
					args := []string{"-n", "20000", "-seed", "3", "-net", "latency=2,jitter=1,drop=0.01,retrans=3,hb=8"}
					args = append(append(args, planArgs...), fault.args...)
					if disk {
						args = append(args, "-snapshot-dir", dir)
						if fault.warm {
							args = append(args, "-restore", dir)
						}
					}
					var outs [2]string
					for i := range outs {
						os.RemoveAll(dir)
						out, err := runVarmon(t, args...)
						if err != nil {
							t.Fatalf("run %d: %v", i, err)
						}
						outs[i] = out
					}
					if outs[0] != outs[1] {
						t.Errorf("two runs with the same seed printed different output:\n%s\n---\n%s", outs[0], outs[1])
					}
					checkRun(t, outs[0], fault.siteTk, fault.coorTk)
					if disk {
						if n := countSnapshots(t, dir); n != 10 {
							t.Errorf("%d snapshot files, want one per progress interval (10)", n)
						}
					}
				})
			}
		}
	}
}

// TestDriverRestoreAtBoot: -restore without a standby to feed boots the
// initial coordinator from disk, resuming the recorded history.
func TestDriverRestoreAtBoot(t *testing.T) {
	dir := t.TempDir()
	q := "det,eps=0.1;det,eps=0.05,at=3000"
	net := "latency=2,drop=0.01,retrans=3"
	if _, err := runVarmon(t, "-n", "6000", "-net", net, "-queries", q, "-snapshot-dir", dir); err != nil {
		t.Fatal(err)
	}
	out, err := runVarmon(t, "-n", "6000", "-net", net, "-queries", q, "-restore", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "coordinator restored from the step-6000 snapshot") {
		t.Errorf("no restore line in:\n%s", out)
	}
	if !strings.Contains(out, "2 queries (0 pending attach)") {
		t.Errorf("the snapshot's attached query was not registered before the restore:\n%s", out)
	}
}

// TestDriverTCPFaultPlans runs each fault plan once over live TCP, with
// the multi-query plan where the single-query smokes in CI do not cover it.
func TestDriverTCPFaultPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP")
	}
	q := "det,eps=0.1;rand,eps=0.1,at=2500"
	for _, tc := range []struct {
		name           string
		args           []string
		siteTk, coorTk int
	}{
		{"none", []string{"-queries", q}, 0, 0},
		{"kill-site", []string{"-queries", q, "-kill", "8000:1"}, 1, 0},
		{"kill-coord-warm", []string{"-kill-coord", "8000", "-standby", "-snapshot-dir", "D", "-restore", "D"}, 0, 1},
		{"kill-coord-cold", []string{"-queries", q, "-kill-coord", "8000"}, 0, 1},
		{"kill-both", []string{"-kill-coord", "8000", "-kill", "9000:1"}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-n", "20000", "-hb", "10ms"}
			for _, a := range tc.args {
				if a == "D" {
					a = dir
				}
				args = append(args, a)
			}
			out, err := runVarmon(t, args...)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, out, tc.siteTk, tc.coorTk)
		})
	}
}

// TestDriverRejections: out-of-range values and inputs the protocol cannot
// run exit 2 with a message, never a panic.
func TestDriverRejections(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-progress", "0"}, "-progress must be >= 1"},
		{[]string{"-k", "0"}, "-k must be >= 1"},
		{[]string{"-eps", "2"}, "needs 0 < eps < 1"},
		{[]string{"-eps", "NaN"}, "needs 0 < eps < 1"},
		{[]string{"-queries", "det,eps=NaN"}, "needs 0 < eps < 1"},
		{[]string{"-stream", "nope"}, "unknown stream class"},
		{[]string{"-kill", "5:9"}, "need STEP >= 1 and SITE in [0, 4)"},
		{[]string{"-net", "crashat=10,crashsite=9,hb=4"}, "bad -net field"},
		{[]string{"-net", "latency=2,reorder=2,retrans=3", "-kill", "500:1"}, "in-order model"},
		{[]string{"-net", "latency=2,drop=0.01", "-kill-coord", "500"}, "retransmits its losses"},
	} {
		_, err := runVarmon(t, append([]string{"-n", "1000"}, tc.args...)...)
		var e *exitError
		if !errors.As(err, &e) || e.code != 2 || !strings.Contains(e.msg, tc.want) {
			t.Errorf("varmon %v: err %v, want exit 2 mentioning %q", tc.args, err, tc.want)
		}
	}
}
