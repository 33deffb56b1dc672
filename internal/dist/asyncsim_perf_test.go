package dist_test

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// faultModel is the benchmark's async-faults network: delayed, jittered,
// reordered within a small window, lossy with bounded retransmission, and
// heartbeat failure detection on.
const faultModel = "latency=8,jitter=4,reorder=2,drop=0.01,retrans=3,hb=64"

// asyncBenchCase is one AsyncSim StepBatch input: k = 8 deterministic sites
// under faultModel.
type asyncBenchCase struct {
	name  string
	input func(n int64) stream.Stream
}

var asyncBenchCases = []asyncBenchCase{
	// The async-faults workload: MeanReverting input (the level the
	// benchmark's volatile streams revert to) over uniformly random sites.
	{"faults", func(n int64) stream.Stream {
		return stream.NewAssign(stream.MeanReverting(n, 1024, 0.5, 11), stream.NewUniformRandom(8, 12))
	}},
	// The sim-smooth input (simBenchCases), where most updates fit a quiet
	// budget between two events.
	{"smooth", func(n int64) stream.Stream {
		return stream.NewAssign(stream.NearlyMonotone(n, 0.2, 5), stream.NewSkewed(8, 1.2, 6))
	}},
}

// newFaultSim deploys a k = 8 deterministic tracker on AsyncSim under
// faultModel. With absorbed non-nil, its sites count the updates they
// absorb there (see quietCounter).
func newFaultSim(tb testing.TB, absorbed *int64) *dist.AsyncSim {
	tb.Helper()
	model, err := dist.ParseNetModel(faultModel)
	if err != nil {
		tb.Fatal(err)
	}
	coord, sites := track.NewDeterministic(8, 0.1)
	if absorbed != nil {
		var reads int64
		for i, s := range sites {
			sites[i] = quietCounter{s.(dist.QuietSiteAlgo), &reads, absorbed}
		}
	}
	return dist.NewAsyncSim(coord, sites, model, 11)
}

// feedBatched drives up to n updates of st through StepBatch and returns
// the number of StepBatch calls.
func feedBatched(sim *dist.AsyncSim, st stream.Stream, buf []stream.Update, n int) int64 {
	var calls int64
	for fed := 0; fed < n; {
		m := stream.NextBatch(st, buf)
		if m == 0 {
			break
		}
		for i := 0; i < m; calls++ {
			c, _ := sim.StepBatch(buf[i:m])
			i += c
		}
		fed += m
	}
	return calls
}

// TestNewSimAllocs pins what building the synchronous runtime costs, in
// allocations rather than time: the runtime, the coordinator outbox, the
// site outbox slice and one outbox per site. The lane builds no network
// state, and the ingest slots wait for the first feed.
func TestNewSimAllocs(t *testing.T) {
	coord, sites := track.NewDeterministic(8, 0.1)
	if a := testing.AllocsPerRun(100, func() { dist.NewSim(coord, sites) }); a != 11 {
		t.Fatalf("NewSim over 8 sites allocated %v objects, want 11", a)
	}
}

// TestNewAsyncSimAllocs pins a fault-model deployment's construction, the
// tracker included as the benchmark builds it per chunk: at most 46
// allocations for NewDeterministic(8) and NewAsyncSim under faultModel.
func TestNewAsyncSimAllocs(t *testing.T) {
	model, err := dist.ParseNetModel(faultModel)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		coord, sites := track.NewDeterministic(8, 0.1)
		dist.NewAsyncSim(coord, sites, model, 11)
	}); a > 46 {
		t.Fatalf("NewDeterministic(8) and NewAsyncSim under %q allocated %v objects, want at most 46", faultModel, a)
	}
}

// TestAsyncSimStepBatchZeroAlloc pins the allocation-free steady state of
// AsyncSim's batched path under loss, retransmission and heartbeats, on
// each benchmark input. Once warm, the scheduler queue recycles its slab
// slots through the free list: the slab must not grow over the measured
// window, which AllocsPerRun's rounded per-batch average alone would not
// show. On the smooth input, updates must be absorbed in bulk inside the
// window too.
func TestAsyncSimStepBatchZeroAlloc(t *testing.T) {
	const warm, window, batch = 100_000, 50_000, 64
	for _, bc := range asyncBenchCases {
		var absorbed int64
		sim := newFaultSim(t, &absorbed)
		st := bc.input(warm + window + 2*batch)
		buf := make([]stream.Update, batch)
		feedBatched(sim, st, buf, warm)
		slots, absorbed0 := sim.QueueSlots(), absorbed
		if a := testing.AllocsPerRun(window/batch, func() { feedBatched(sim, st, buf, batch) }); a != 0 {
			t.Fatalf("%s: StepBatch under %q allocated %v objects per %d updates once warm, want 0", bc.name, faultModel, a, batch)
		}
		if got := sim.QueueSlots(); got != slots {
			t.Fatalf("%s: scheduler slab grew from %d to %d slots once warm; freed slots are not reused", bc.name, slots, got)
		}
		if st := sim.Stats(); st.Retransmitted == 0 || st.HeartbeatsSent == 0 {
			t.Fatalf("%s: faults were not exercised: %+v", bc.name, st)
		}
		if bc.name == "smooth" && absorbed == absorbed0 {
			t.Fatalf("%s: no update was absorbed in the measured window", bc.name)
		}
	}
}

// BenchmarkAsyncSimStepBatch measures AsyncSim's batched path under
// faultModel per update (ns/op) and per scheduler event (ns/event). The
// input is one pregenerated segment, so stream generation stays outside the
// timed loop, and each pass over it runs on a fresh deployment, built with
// the timer stopped, as each async-faults chunk does: replaying the segment
// on one deployment would let f drift away from the input's level and
// measure a quieter regime. An untimed pass with counting wrappers reports
// the updates absorbed in bulk per StepBatch call.
func BenchmarkAsyncSimStepBatch(b *testing.B) {
	const segLen = 1 << 16
	for _, bc := range asyncBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			seg := stream.Collect(bc.input(segLen))
			var absorbed int64
			buf := make([]stream.Update, 64)
			calls := feedBatched(newFaultSim(b, &absorbed), stream.NewSlice(seg), buf, segLen)
			sim := newFaultSim(b, nil)
			next := 0
			events := -sim.EventsScheduled()
			b.ResetTimer()
			for fed := 0; fed < b.N; {
				end := min(next+len(buf), len(seg), next+b.N-fed)
				for i := next; i < end; {
					c, _ := sim.StepBatch(seg[i:end])
					i += c
				}
				fed += end - next
				if next = end; next == len(seg) {
					b.StopTimer()
					events += sim.EventsScheduled()
					sim, next = newFaultSim(b, nil), 0
					events -= sim.EventsScheduled()
					b.StartTimer()
				}
			}
			b.StopTimer()
			events += sim.EventsScheduled()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/float64(b.N), "events/update")
			b.ReportMetric(float64(absorbed)/float64(calls), "absorbed/call")
		})
	}
}
