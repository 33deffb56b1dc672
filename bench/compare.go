package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// benchFile is the part of BENCHMARK.json the benchmark reads: the
// workloads, and each metric's unit, direction and bound.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// loadBenchmark reads BENCHMARK.json from the repository root: the working
// directory when run from the root, its parent when run from bench/.
func loadBenchmark() (*benchFile, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var f benchFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &f, nil
	}
	return nil, errors.New("BENCHMARK.json not found in the working directory or its parent")
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runCompare prints, for every workload and every metric of BENCHMARK.json
// present in both -out files, the parent's (BASE) and the change's (NEW)
// quartiles and medians and a verdict.
func runCompare(w io.Writer, basePath, newPath string) error {
	bf, err := loadBenchmark()
	if err != nil {
		return err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	next, err := readRecords(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-34s %11s %11s %11s | %11s %11s %11s  %s\n",
		"workload", "metric", "base q1", "median", "q3", "new q1", "median", "q3", "verdict")
	for _, wl := range bf.Workloads {
		for trace, metrics := range [][]benchMetric{bf.EndToEnd, bf.PerLayer} {
			for _, m := range metrics {
				b := values(base, wl.Name, trace, m.Name)
				n := values(next, wl.Name, trace, m.Name)
				if len(b) == 0 || len(n) == 0 {
					continue
				}
				bq1, bq3 := quartiles(vals(b))
				nq1, nq3 := quartiles(vals(n))
				fmt.Fprintf(w, "%-14s %-34s %11.5g %11.5g %11.5g | %11.5g %11.5g %11.5g  %s\n",
					wl.Name, m.Name, bq1, median(vals(b)), bq3, nq1, median(vals(n)), nq3, verdict(m, b, n))
			}
		}
	}
	return nil
}

// values returns one metric's value per seed over the records of a
// workload run with the given trace setting.
func values(rs []record, workload string, trace int, name string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			out[r.Seed] = m.Value
		}
	}
	return out
}

func vals(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return math.Abs(ratio(q3-q1, median(xs)))
}

// verdict judges the change's runs n against the parent's runs b, both
// keyed by seed, by the benchmark's rules. It is "worse" when the change's
// median is worse than the parent's by more than the metric's bound. It is
// "unresolved" when either side's spread is wider than the bound, unless
// every run of the change is better than every run of the parent. It is
// "better" when the change wins at least nine tenths of the runs paired by
// seed, ties counting for neither, and the medians differ by more than the
// distance between the parent's quartiles; otherwise "same". Per-layer
// metrics have no bound and get no verdict.
func verdict(m benchMetric, b, n map[uint64]float64) string {
	if m.Bound == nil {
		return "-"
	}
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	bv, nv := vals(b), vals(n)
	bm, nm := median(bv), median(nv)
	allBetter := true
	for _, x := range nv {
		for _, y := range bv {
			allBetter = allBetter && sign*(x-y) > 0
		}
	}
	bound := *m.Bound
	if spread(bv) > bound || spread(nv) > bound {
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	if sign*(bm-nm) > bound*math.Abs(bm) {
		return "worse"
	}
	pairs, wins := 0, 0
	for seed, x := range n {
		if y, ok := b[seed]; ok {
			pairs++
			if sign*(x-y) > 0 {
				wins++
			}
		}
	}
	q1, q3 := quartiles(bv)
	if pairs > 0 && 10*wins >= 9*pairs && sign*(nm-bm) > q3-q1 {
		return "better"
	}
	return "same"
}
