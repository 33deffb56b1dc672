package query_test

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/stream"
)

// TestEngineStepBatchZeroAlloc asserts the zero-alloc contract of the
// engine's batched hot path over the engine-mixed query set: after warmup
// (table growth, early block boundaries), driving same-site runs through
// Sim.StepBatch — engine demux, spine, child fan-out, quiet children's
// pending runs, and the frequency sites' per-cell counter tables included —
// allocates nothing. Some child must hold a pending run inside the measured
// window, so the absorbing path is what is measured. Wired into the CI
// alloc-regression step next to the Sim/sketch/stream suites.
func TestEngineStepBatchZeroAlloc(t *testing.T) {
	const k = 4
	const warm, runs = 30_000, 4_000 // runs counts StepBatch calls, each a 64-update buffer
	const bs = 64
	specs, err := query.ParseSpecs(mixedSpecs)
	if err != nil {
		t.Fatal(err)
	}
	eng, esites, err := query.New(k, specs)
	if err != nil {
		t.Fatal(err)
	}
	sim := dist.NewSim(eng, esites)
	sim.SetClassifier(eng)
	sites := make([]*query.Site, k)
	for i, s := range esites {
		sites[i] = s.(*query.Site)
	}

	// Skewed assignment produces long same-site runs, so the measured loop
	// exercises OnUpdateBatch rather than the per-update bypass.
	st := stream.NewAssign(
		stream.NewItemGen(int64(warm+runs*bs+bs), 512, 1.2, 0.2, 13),
		stream.NewSkewed(k, 2.0, 29))
	buf := make([]stream.Update, bs)
	for i := 0; i < warm; {
		n := stream.NextBatch(st, buf)
		for j := 0; j < n; {
			c, _ := sim.StepBatch(buf[j:n])
			j += c
		}
		i += n
	}
	pending := false
	if a := testing.AllocsPerRun(runs-1, func() {
		n := stream.NextBatch(st, buf)
		for j := 0; j < n; {
			c, _ := sim.StepBatch(buf[j:n])
			j += c
		}
		for _, s := range sites {
			pending = pending || s.PendingRuns() > 0
		}
	}); a != 0 {
		t.Fatalf("engine StepBatch allocated %v objects per %d-update buffer at steady state, want 0", a, bs)
	}
	if !pending {
		t.Fatal("no child held a pending run in the measured window")
	}
}

// mixedSpecs are the eight queries of the benchmark's engine-mixed workload:
// every tracker family, with and without item filters.
const mixedSpecs = "det,eps=0.1;rand,eps=0.1;freq,eps=0.2;threshold,eps=0.1,tau=500;" +
	"det,eps=0.05,filter=even;rand,eps=0.2,filter=odd;freq,eps=0.1,filter=mod:4:1;det,eps=0.2,filter=le:100"

// BenchmarkEngineIngest is the engine layer's ingest cost through the
// batched Sim path, per update: q1-walk is one query over a scalar stream
// (every update has item 0, so the spine's item table stays cold);
// q1-items is one query over a zipf item stream (the spine's per-item
// counts on every update); q8-mixed is the engine-mixed query set over the
// same items (spine, eight children, two frequency sites' counter tables).
// The input, a 2^20-update segment as in the bench's chunks, is generated
// before the timer starts and fed round and round, each pass to a fresh
// deployment built with the timer stopped, as each chunk is: on one
// long-lived deployment f drifts from pass to pass and block ends grow
// rarer than in a chunk. Only the engine and Sim delivery are timed.
func BenchmarkEngineIngest(b *testing.B) {
	const k = 8
	items := func(n int) stream.Stream {
		return stream.NewAssign(stream.NewItemGen(int64(n), 1<<12, 1.1, 0.1, 3), stream.NewSkewed(k, 1.0, 4))
	}
	cases := []struct {
		name  string
		specs string
		input func(n int) stream.Stream
	}{
		{"q1-walk", "det,eps=0.1", func(n int) stream.Stream {
			return stream.NewAssign(stream.MeanReverting(int64(n), 1<<10, 0.05, 3), stream.NewRoundRobin(k))
		}},
		{"q1-items", "det,eps=0.1", items},
		{"q8-mixed", mixedSpecs, items},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			specs, err := query.ParseSpecs(c.specs)
			if err != nil {
				b.Fatal(err)
			}
			deploy := func() *dist.AsyncSim {
				eng, sites, err := query.New(k, specs)
				if err != nil {
					b.Fatal(err)
				}
				sim := dist.NewSim(eng, sites)
				sim.SetClassifier(eng)
				return sim
			}
			ups := stream.Collect(c.input(1 << 20))
			sim := deploy()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; {
				if i > 0 && i%len(ups) == 0 {
					b.StopTimer()
					sim = deploy()
					b.StartTimer()
				}
				seg := ups[i%len(ups):]
				seg = seg[:min(len(seg), b.N-i)]
				n, _ := sim.StepBatch(seg)
				i += n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/update")
		})
	}
}
