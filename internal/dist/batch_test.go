package dist_test

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// runRecorded drives updates through a fresh tracker one Step at a time,
// capturing the transcript and the estimate after every step.
func runRecorded(coord dist.CoordAlgo, sites []dist.SiteAlgo, ups []stream.Update) (
	[]dist.TranscriptEntry, []int64, dist.Stats) {
	sim := dist.NewSim(coord, sites)
	var transcript []dist.TranscriptEntry
	sim.Recorder = func(e dist.TranscriptEntry) { transcript = append(transcript, e) }
	ests := make([]int64, len(ups))
	for i, u := range ups {
		sim.Step(u)
		ests[i] = sim.Estimate()
	}
	return transcript, ests, sim.Stats()
}

// runBatched drives the same updates through StepBatch with the given batch
// size, reconstructing per-step estimates from the delivered flag.
func runBatched(coord dist.CoordAlgo, sites []dist.SiteAlgo, ups []stream.Update, batch int) (
	[]dist.TranscriptEntry, []int64, dist.Stats) {
	sim := dist.NewSim(coord, sites)
	var transcript []dist.TranscriptEntry
	sim.Recorder = func(e dist.TranscriptEntry) { transcript = append(transcript, e) }
	ests := make([]int64, 0, len(ups))
	est := sim.Estimate()
	for start := 0; start < len(ups); start += batch {
		end := start + batch
		if end > len(ups) {
			end = len(ups)
		}
		for i := start; i < end; {
			consumed, delivered := sim.StepBatch(ups[i:end])
			// Message-free prefix: the estimate is frozen at its pre-chunk
			// value for every consumed update but the delivering last one.
			for j := 0; j < consumed-1; j++ {
				ests = append(ests, est)
			}
			if delivered {
				est = sim.Estimate()
			}
			ests = append(ests, est)
			i += consumed
		}
	}
	return transcript, ests, sim.Stats()
}

// TestStepBatchByteIdentical checks transcripts, per-step estimates, and
// stats across batch sizes for both variability trackers over a mix of
// assignment patterns (round-robin gives single-update same-site runs,
// skewed gives long ones).
func TestStepBatchByteIdentical(t *testing.T) {
	const k, n = 5, 30_000
	streams := map[string]func() stream.Stream{
		"rr": func() stream.Stream { return stream.NewAssign(stream.RandomWalk(n, 3), stream.NewRoundRobin(k)) },
		"skewed": func() stream.Stream {
			return stream.NewAssign(stream.BiasedWalk(n, 0.2, 4), stream.NewSkewed(k, 1.5, 5))
		},
		"single": func() stream.Stream { return stream.NewAssign(stream.NearlyMonotone(n, 2, 6), stream.NewSingle(k)) },
	}
	builders := map[string]func() (dist.CoordAlgo, []dist.SiteAlgo){
		"det":  func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(k, 0.1) },
		"rand": func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewRandomized(k, 0.1, 9) },
	}
	for sname, mk := range streams {
		ups := stream.Collect(mk())
		for bname, build := range builders {
			coord, sites := build()
			wantTr, wantEst, wantStats := runRecorded(coord, sites, ups)
			for _, batch := range []int{1, 7, 64, len(ups)} {
				coord, sites := build()
				gotTr, gotEst, gotStats := runBatched(coord, sites, ups, batch)
				if gotStats != wantStats {
					t.Fatalf("%s/%s batch=%d: stats %+v, want %+v", sname, bname, batch, gotStats, wantStats)
				}
				if !reflect.DeepEqual(gotEst, wantEst) {
					t.Fatalf("%s/%s batch=%d: per-step estimates diverge", sname, bname, batch)
				}
				if !reflect.DeepEqual(gotTr, wantTr) {
					t.Fatalf("%s/%s batch=%d: transcripts diverge (%d vs %d entries)",
						sname, bname, batch, len(gotTr), len(wantTr))
				}
			}
		}
	}
}

// TestRunBatchMatchesRun checks the whole-stream driver against Run.
func TestRunBatchMatchesRun(t *testing.T) {
	const k, n = 4, 25_000
	mk := func() stream.Stream {
		return stream.NewAssign(stream.RandomWalk(n, 31), stream.NewRoundRobin(k))
	}
	coordA, sitesA := track.NewDeterministic(k, 0.05)
	simA := dist.NewSim(coordA, sitesA)
	stepsA := simA.Run(mk())

	coordB, sitesB := track.NewDeterministic(k, 0.05)
	simB := dist.NewSim(coordB, sitesB)
	stepsB := simB.RunBatch(mk(), make([]stream.Update, 128))

	if stepsA != stepsB {
		t.Fatalf("RunBatch processed %d steps, Run %d", stepsB, stepsA)
	}
	if simA.Estimate() != simB.Estimate() || simA.Stats() != simB.Stats() {
		t.Fatalf("RunBatch end state diverges: est %d/%d stats %+v/%+v",
			simB.Estimate(), simA.Estimate(), simB.Stats(), simA.Stats())
	}
}

// TestStepBatchZeroAlloc pins the allocation-free contract of the batched
// hot path at steady state, mirroring the Sim.Step zero-alloc tests. The
// det cases run the quiet path (message-free stretches absorbed in bulk):
// on the nearly monotone input most updates are absorbed, and counting
// wrappers check that absorption really happens inside the measured
// window. rand runs the per-update and run path.
func TestStepBatchZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (dist.CoordAlgo, []dist.SiteAlgo)
		input func(n int64) stream.Stream
		quiet bool
	}{
		{"det", func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(8, 0.1) },
			func(n int64) stream.Stream {
				return stream.NewAssign(stream.BiasedWalk(n, 0.2, 7), stream.NewRoundRobin(8))
			}, true},
		{"det-smooth", func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(8, 0.1) },
			func(n int64) stream.Stream {
				return stream.NewAssign(stream.NearlyMonotone(n, 0.2, 7), stream.NewSkewed(8, 1.2, 8))
			}, true},
		{"rand", func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewRandomized(8, 0.1, 3) },
			func(n int64) stream.Stream {
				return stream.NewAssign(stream.BiasedWalk(n, 0.2, 7), stream.NewRoundRobin(8))
			}, false},
	} {
		const warm, runs, batch = 20_000, 20_000, 64
		coord, sites := tc.build()
		var reads, absorbed int64
		if tc.quiet {
			for i, s := range sites {
				sites[i] = quietCounter{s.(dist.QuietSiteAlgo), &reads, &absorbed}
			}
		}
		st := tc.input(warm + int64(runs*batch) + 1)
		sim := dist.NewSim(coord, sites)
		buf := make([]stream.Update, batch)
		for i := 0; i < warm; i++ {
			u, _ := st.Next()
			sim.Step(u)
		}
		sim.StepBatch(buf[:stream.NextBatch(st, buf[:1])])
		if sim.QuietMode() != tc.quiet {
			t.Fatalf("%s: quiet path %v, want %v", tc.name, sim.QuietMode(), tc.quiet)
		}
		absorbed0 := absorbed
		if a := testing.AllocsPerRun(runs-1, func() {
			n := stream.NextBatch(st, buf)
			for i := 0; i < n; {
				c, _ := sim.StepBatch(buf[i:n])
				i += c
			}
		}); a != 0 {
			t.Fatalf("%s: batched path allocated %v objects/op at steady state, want 0", tc.name, a)
		}
		if tc.quiet && absorbed == absorbed0 {
			t.Fatalf("%s: no update was absorbed in the measured window", tc.name)
		}
	}
}
