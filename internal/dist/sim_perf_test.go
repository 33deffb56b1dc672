package dist_test

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// TestSimRunMatchesStepLoop checks that Sim.Run over a generator produces
// exactly the state a manual Collect-then-Step loop produces.
func TestSimRunMatchesStepLoop(t *testing.T) {
	const k, n = 4, 20_000
	mk := func() stream.Stream {
		return stream.NewAssign(stream.RandomWalk(n, 31), stream.NewRoundRobin(k))
	}

	coordA, sitesA := track.NewDeterministic(k, 0.1)
	simA := dist.NewSim(coordA, sitesA)
	steps := simA.Run(mk())
	if steps != n {
		t.Fatalf("Run processed %d steps, want %d", steps, n)
	}

	coordB, sitesB := track.NewDeterministic(k, 0.1)
	simB := dist.NewSim(coordB, sitesB)
	for _, u := range stream.Collect(mk()) {
		simB.Step(u)
	}

	if simA.Estimate() != simB.Estimate() {
		t.Fatalf("estimates diverge: Run=%d Step=%d", simA.Estimate(), simB.Estimate())
	}
	if simA.Stats() != simB.Stats() {
		t.Fatalf("stats diverge: Run=%+v Step=%+v", simA.Stats(), simB.Stats())
	}
}

// stepAllocs measures the average allocations of Sim.Step at steady state:
// the simulator is warmed past its queue high-water mark and early block
// boundaries first, then measured over a long run of further updates.
func stepAllocs(t *testing.T, coord dist.CoordAlgo, sites []dist.SiteAlgo) float64 {
	t.Helper()
	const warm, runs = 20_000, 20_000
	k := len(sites)
	st := stream.NewAssign(stream.BiasedWalk(warm+runs+1, 0.2, 7), stream.NewRoundRobin(k))
	sim := dist.NewSim(coord, sites)
	for i := 0; i < warm; i++ {
		u, _ := st.Next()
		sim.Step(u)
	}
	ups := stream.Collect(stream.NewLimit(st, runs))
	i := 0
	return testing.AllocsPerRun(runs-1, func() {
		sim.Step(ups[i])
		i++
	})
}

// TestSimStepZeroAllocDeterministic asserts the zero-alloc contract of the
// hot path for the §3.3 deterministic tracker.
func TestSimStepZeroAllocDeterministic(t *testing.T) {
	coord, sites := track.NewDeterministic(8, 0.1)
	if a := stepAllocs(t, coord, sites); a != 0 {
		t.Fatalf("Sim.Step allocated %v objects/op at steady state, want 0", a)
	}
}

// TestSimStepZeroAllocRandomized asserts the same for the §3.4 randomized
// tracker, whose message pattern is sampled rather than threshold-driven.
func TestSimStepZeroAllocRandomized(t *testing.T) {
	coord, sites := track.NewRandomized(8, 0.1, 3)
	if a := stepAllocs(t, coord, sites); a != 0 {
		t.Fatalf("Sim.Step allocated %v objects/op at steady state, want 0", a)
	}
}

// quietCounter wraps a deterministic site to count the budget reads and
// absorbed updates StepBatch asks of it. It forwards the run path too, so
// feeds too short for the quiet pass still reach OnUpdateBatch.
type quietCounter struct {
	dist.QuietSiteAlgo
	reads, absorbed *int64
}

func (w quietCounter) OnUpdateBatch(us []stream.Update, out dist.Outbox) int {
	return w.QuietSiteAlgo.(dist.BatchSiteAlgo).OnUpdateBatch(us, out)
}

func (w quietCounter) Quiet() int64 { *w.reads++; return w.QuietSiteAlgo.Quiet() }

func (w quietCounter) Absorb(n, sum int64) {
	*w.absorbed += n
	w.QuietSiteAlgo.Absorb(n, sum)
}

// simBenchCase is one BenchmarkSimStepBatch input: k deterministic sites
// over a pregenerated segment.
type simBenchCase struct {
	name  string
	k     int
	input func(n int64, k int) stream.Stream
}

var simBenchCases = []simBenchCase{
	// The sim-smooth workload: a nearly monotone stream (one deletion per
	// five updates) over skewed sites, about 0.004 messages per update.
	{"smooth", 8, func(n int64, k int) stream.Stream {
		return stream.NewAssign(stream.NearlyMonotone(n, 0.2, 5), stream.NewSkewed(k, 1.2, 6))
	}},
	// A volatile control: f hovers near 1024 over 64 round-robin sites, so
	// budgets are small and the network is busy.
	{"volatile-k64", 64, func(n int64, k int) stream.Stream {
		return stream.NewAssign(stream.MeanReverting(n, 1024, 0.5, 5), stream.NewRoundRobin(k))
	}},
}

// feedChunks drives seg through sim.StepBatch in slices of at most 1<<14
// updates, as the benchmark's closed loop does between polls, and returns
// the number of StepBatch calls.
func feedChunks(sim *dist.AsyncSim, seg []stream.Update) int64 {
	const chunk = 1 << 14
	var calls int64
	for i := 0; i < len(seg); {
		c, _ := sim.StepBatch(seg[i:min(len(seg), (i/chunk+1)*chunk)])
		i += c
		calls++
	}
	return calls
}

// BenchmarkSimStepBatch measures Sim.StepBatch over the deterministic
// tracker per update (ns/op). Each pass over the pregenerated segment runs
// on a fresh deployment, built with the timer stopped. An untimed pass
// with counting wrappers reports the updates absorbed in bulk per
// StepBatch call and the budget reads per call: the second stays near the
// number of sites a call touches, not k.
func BenchmarkSimStepBatch(b *testing.B) {
	const segLen = 1 << 18
	for _, bc := range simBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			seg := stream.Collect(bc.input(segLen, bc.k))
			var reads, absorbed int64
			coord, sites := track.NewDeterministic(bc.k, 0.1)
			for i, s := range sites {
				sites[i] = quietCounter{s.(dist.QuietSiteAlgo), &reads, &absorbed}
			}
			calls := feedChunks(dist.NewSim(coord, sites), seg)
			b.ResetTimer()
			for fed := 0; fed < b.N; fed += segLen {
				b.StopTimer()
				coord, sites := track.NewDeterministic(bc.k, 0.1)
				sim := dist.NewSim(coord, sites)
				b.StartTimer()
				feedChunks(sim, seg[:min(segLen, b.N-fed)])
			}
			b.ReportMetric(float64(absorbed)/float64(calls), "absorbed/call")
			b.ReportMetric(float64(reads)/float64(calls), "reads/call")
		})
	}
}
