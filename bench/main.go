// Command bench is the repository's benchmark: five workloads driven through
// the public API of stream, track, query, dist (Sim, AsyncSim, TCP) and obs,
// each checked for correct output. An untraced run prints the end-to-end
// metrics; a traced run (-trace 1) times the calls into each layer from
// outside and prints the per-layer metrics. BENCHMARK.json at the repository
// root lists both sets with their units, directions and bounds.
//
// Run it from the repository root with bench/run.sh, or from this directory
// with go run:
//
//	go run . -workload sim-volatile -seed 1 -seconds 10 -trace 0
//	go run . -workload engine-mixed -trace 1 -spans /tmp/spans.jsonl
//	go run . -compare base.jsonl new.jsonl
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when
// any output is wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool   // small inputs and short phases, for tests
	spans   string // JSONL span file of a traced run
}

// result is what one workload run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems lists every failed check; notes are measurements printed
	// beside the metrics.
	problems, notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// fill sets every metric of defs from vals, so a run always reports the
// full set; a value the workload does not produce reads 0.
func (r *result) fill(defs []metricDef, vals map[string]float64) {
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
}

// workload is one set of inputs the benchmark runs: a closed loop in
// process (closed), or the TCP deployment (tcp-loopback, closed nil).
type workload struct {
	name   string
	closed func() *closedSpec
}

// workloads are listed, with the reason for each, in BENCHMARK.json.
var workloads = []workload{
	{"sim-smooth", simSmooth},
	{"sim-volatile", simVolatile},
	{"engine-mixed", engineMixed},
	{"async-faults", asyncFaults},
	{"tcp-loopback", nil},
}

func (w workload) run(cfg config) *result {
	if w.closed == nil {
		return runTCP(cfg)
	}
	return runClosed(cfg, w.closed())
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	spans := flag.String("spans", "", "JSONL file for the spans of a traced run (default .bench_build/spans-<workload>.jsonl)")
	out := flag.String("out", "", "append each result, with its workload and seed, to this JSONL file for -compare")
	scale := flag.String("scale", "full", "full, or tiny for a seconds-long smoke run")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments: BASE.jsonl NEW.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare BASE.jsonl NEW.jsonl")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "-trace must be 0 or 1")
		os.Exit(2)
	}
	if *scale != "full" && *scale != "tiny" {
		fmt.Fprintln(os.Stderr, "-scale must be full or tiny")
		os.Exit(2)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	ok := true
	for _, w := range selected {
		cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *scale == "tiny", spans: *spans}
		if cfg.trace && cfg.spans == "" {
			cfg.spans = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
		}
		res := w.run(cfg)
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
		}
		if err := report(os.Stdout, w.name, res, defs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *out != "" {
			if err := appendRecord(*out, w.name, *seed, *trace, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		ok = ok && res.Correct && res.Failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

// report prints every metric of defs by name and unit, the notes and
// failed checks, and as the last line the result as one JSON object.
func report(w io.Writer, name string, res *result, defs []metricDef) error {
	fmt.Fprintf(w, "# %s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "# FAIL %s\n", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// record is one line of an -out file: a run's result with its workload and
// seed.
type record struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    int               `json:"trace"`
	Correct  bool              `json:"correct"`
	Failed   int64             `json:"failed"`
	Metrics  map[string]metric `json:"metrics"`
}

func appendRecord(path, name string, seed uint64, trace int, res *result) error {
	b, err := json.Marshal(record{Workload: name, Seed: seed, Trace: trace,
		Correct: res.Correct, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	return errors.Join(werr, f.Close())
}
