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

// newFaultSim builds a k=8 deterministic tracker on AsyncSim under
// faultModel, and its MeanReverting input (the level the benchmark's
// volatile streams revert to) over uniformly random sites.
func newFaultSim(tb testing.TB, n int64) (*dist.AsyncSim, stream.Stream) {
	tb.Helper()
	const k = 8
	model, err := dist.ParseNetModel(faultModel)
	if err != nil {
		tb.Fatal(err)
	}
	coord, sites := track.NewDeterministic(k, 0.1)
	st := stream.NewAssign(stream.MeanReverting(n, 1024, 0.5, 11), stream.NewUniformRandom(k, 12))
	return dist.NewAsyncSim(coord, sites, model, 11), st
}

// feedBatched drives up to n updates of st through StepBatch.
func feedBatched(sim *dist.AsyncSim, st stream.Stream, buf []stream.Update, n int) {
	for fed := 0; fed < n; {
		m := stream.NextBatch(st, buf)
		if m == 0 {
			return
		}
		for i := 0; i < m; {
			c, _ := sim.StepBatch(buf[i:m])
			i += c
		}
		fed += m
	}
}

// TestAsyncSimStepBatchZeroAlloc pins the allocation-free steady state of
// AsyncSim's batched path under loss, retransmission and heartbeats. Once
// warm, the scheduler queue recycles its slab slots through the free list:
// the slab must not grow over the measured window, which AllocsPerRun's
// rounded per-batch average alone would not show.
func TestAsyncSimStepBatchZeroAlloc(t *testing.T) {
	const warm, window, batch = 100_000, 50_000, 64
	sim, st := newFaultSim(t, warm+window+2*batch)
	buf := make([]stream.Update, batch)
	feedBatched(sim, st, buf, warm)
	slots := sim.QueueSlots()
	if a := testing.AllocsPerRun(window/batch, func() { feedBatched(sim, st, buf, batch) }); a != 0 {
		t.Fatalf("StepBatch under %q allocated %v objects per %d updates once warm, want 0", faultModel, a, batch)
	}
	if got := sim.QueueSlots(); got != slots {
		t.Fatalf("scheduler slab grew from %d to %d slots once warm; freed slots are not reused", slots, got)
	}
	if st := sim.Stats(); st.Retransmitted == 0 || st.HeartbeatsSent == 0 {
		t.Fatalf("faults were not exercised: %+v", st)
	}
}

// BenchmarkAsyncSimStepBatch measures AsyncSim's batched path under
// faultModel per update (ns/op) and per scheduler event (ns/event). The
// input is one pregenerated segment replayed with shifted T, so stream
// generation stays outside the timed loop.
func BenchmarkAsyncSimStepBatch(b *testing.B) {
	const segLen = 1 << 16
	sim, st := newFaultSim(b, segLen)
	seg := stream.Collect(st)
	buf := make([]stream.Update, 64)
	var shift int64
	next := 0
	ev0 := sim.EventsScheduled()
	b.ResetTimer()
	for fed := 0; fed < b.N; {
		m := copy(buf, seg[next:])
		if m > b.N-fed {
			m = b.N - fed
		}
		for i := range buf[:m] {
			buf[i].T += shift
		}
		for i := 0; i < m; {
			c, _ := sim.StepBatch(buf[i:m])
			i += c
		}
		fed += m
		if next += m; next == len(seg) {
			next, shift = 0, shift+segLen
		}
	}
	b.StopTimer()
	events := float64(sim.EventsScheduled() - ev0)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(events/float64(b.N), "events/update")
}
