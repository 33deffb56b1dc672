package main

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// TestSmokeEveryWorkload runs every workload at tiny scale, untraced and
// traced, and checks that each run passes its correctness checks and
// reports exactly the metrics BENCHMARK.json lists, with the same units.
// tcp-loopback runs too, though BENCHMARK.json leaves it out of the
// workloads it gates on.
func TestSmokeEveryWorkload(t *testing.T) {
	bf, err := loadBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	for _, w := range bf.Workloads {
		if !slices.Contains(ours, w.Name) {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
		}
	}
	checkDefs(t, "end_to_end", bf.EndToEnd, endToEnd)
	checkDefs(t, "per_layer", bf.PerLayer, perLayer)

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{seed: 1, seconds: 0.2, trace: trace, tiny: true, spans: t.TempDir() + "/spans.jsonl"}
			res := w.run(cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d: %v",
					w.name, trace, res.Correct, res.Failed, res.Attempted, res.problems)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			if !trace && res.Metrics["updates_per_s"].Value <= 0 {
				t.Errorf("%s: no throughput measured", w.name)
			}
		}
	}
}

func checkDefs(t *testing.T, section string, file []benchMetric, code []metricDef) {
	t.Helper()
	if len(file) != len(code) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", section, len(file), len(code))
	}
	for i, m := range file {
		if m.Name != code[i].name || m.Unit != code[i].unit {
			t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
				section, i, m.Name, m.Unit, code[i].name, code[i].unit)
		}
	}
}

// TestSeedDeterminism pins that a workload's input is a function of the
// seed alone: the same seed gives the same segment and variability, another
// seed a different one.
func TestSeedDeterminism(t *testing.T) {
	const n = 1 << 12
	gen := func(input func(int, uint64) stream.Stream, seed uint64) ([]stream.Update, float64) {
		ups := make([]stream.Update, n)
		stream.NextBatch(input(n, seed), ups)
		v := core.NewTracker(0)
		for _, u := range ups {
			v.Update(u.Delta)
		}
		return ups, v.V()
	}
	inputs := map[string]func(int, uint64) stream.Stream{"tcp-loopback": tcpInput}
	for _, w := range workloads {
		if w.closed != nil {
			inputs[w.name] = w.closed().input
		}
	}
	for name, input := range inputs {
		a, va := gen(input, 1)
		b, vb := gen(input, 1)
		c, vc := gen(input, 2)
		if !slices.Equal(a, b) || va != vb {
			t.Errorf("%s: seed 1 gave two different inputs", name)
		}
		if slices.Equal(a, c) || va == vc {
			t.Errorf("%s: seeds 1 and 2 gave the same input (v=%g)", name, va)
		}
	}
}
