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

// batchRunner is the whole-stream surface Sim and AsyncSim share.
type batchRunner interface {
	Run(stream.Stream) int64
	RunBatch(st stream.Stream, buf []stream.Update, every int64,
		visit func(run []stream.Update, delivered bool)) int64
	Estimate() int64
	Stats() dist.Stats
}

// TestRunBatchMatchesRun checks the whole-stream driver against Run on Sim
// and on AsyncSim under the zero and a lossy model, at each probe
// interval, with a visit that records every run: the runs concatenate to
// the input, none crosses a multiple of every, a run without a delivery
// leaves the estimate alone, and stats and transcript equal Run's.
func TestRunBatchMatchesRun(t *testing.T) {
	const k, n = 4, 25_000
	// A drifting walk over skewed sites: long message-free stretches late
	// in the stream, so runs outgrow every probe interval.
	mk := func() stream.Stream {
		return stream.NewAssign(stream.BiasedWalk(n, 0.3, 31), stream.NewSkewed(k, 1.2, 32))
	}
	ups := stream.Collect(mk())
	lossy, err := dist.ParseNetModel("latency=8,jitter=4,reorder=2,drop=0.01,retrans=3")
	if err != nil {
		t.Fatal(err)
	}
	runtimes := []struct {
		name  string
		build func(rec func(dist.TranscriptEntry)) batchRunner
	}{
		{"sim", func(rec func(dist.TranscriptEntry)) batchRunner {
			sim := dist.NewSim(track.NewDeterministic(k, 0.05))
			sim.Recorder = rec
			return sim
		}},
		{"async-zero", func(rec func(dist.TranscriptEntry)) batchRunner {
			coord, sites := track.NewDeterministic(k, 0.05)
			sim := dist.NewAsyncSim(coord, sites, dist.NetModel{}, 3)
			sim.Recorder = rec
			return sim
		}},
		{"async-lossy", func(rec func(dist.TranscriptEntry)) batchRunner {
			coord, sites := track.NewDeterministic(k, 0.05)
			sim := dist.NewAsyncSim(coord, sites, lossy, 3)
			sim.Recorder = rec
			return sim
		}},
	}
	for _, rt := range runtimes {
		var wantTr []dist.TranscriptEntry
		ref := rt.build(func(e dist.TranscriptEntry) { wantTr = append(wantTr, e) })
		wantSteps := ref.Run(mk())
		if rt.name == "async-lossy" && ref.Stats().Retransmitted == 0 {
			t.Fatal("async-lossy: the lossy model retransmitted nothing")
		}
		for _, every := range []int64{0, 1, 7, 100} {
			var gotTr []dist.TranscriptEntry
			r := rt.build(func(e dist.TranscriptEntry) { gotTr = append(gotTr, e) })
			var seen []stream.Update
			var quiet, longest int
			est := r.Estimate()
			steps := r.RunBatch(mk(), make([]stream.Update, 128), every, func(run []stream.Update, delivered bool) {
				if len(run) == 0 {
					t.Fatalf("%s every=%d: empty run visited", rt.name, every)
				}
				if from, to := int64(len(seen)), int64(len(seen)+len(run)-1); every > 0 && from/every != to/every {
					t.Fatalf("%s every=%d: run [%d, %d] crosses a multiple", rt.name, every, from, to)
				}
				if !delivered {
					quiet++
					if r.Estimate() != est {
						t.Fatalf("%s every=%d: estimate moved %d -> %d on a run without delivery",
							rt.name, every, est, r.Estimate())
					}
				}
				est = r.Estimate()
				longest = max(longest, len(run))
				seen = append(seen, run...)
			})
			// The input must exercise the contract: some run skips delivery,
			// and runs reach each cap (and pass the largest when uncapped).
			reach := every
			if every == 0 {
				reach = 101
			}
			if quiet == 0 || int64(longest) < reach {
				t.Fatalf("%s every=%d: input too noisy to test the contract (%d quiet runs, longest %d)",
					rt.name, every, quiet, longest)
			}
			if steps != wantSteps || !reflect.DeepEqual(seen, ups) {
				t.Fatalf("%s every=%d: %d steps, %d visited updates; want %d equal to the input",
					rt.name, every, steps, len(seen), wantSteps)
			}
			if r.Estimate() != ref.Estimate() || r.Stats() != ref.Stats() {
				t.Fatalf("%s every=%d: end state diverges: est %d/%d stats %+v/%+v",
					rt.name, every, r.Estimate(), ref.Estimate(), r.Stats(), ref.Stats())
			}
			if !reflect.DeepEqual(gotTr, wantTr) {
				t.Fatalf("%s every=%d: transcripts diverge (%d vs %d entries)",
					rt.name, every, len(gotTr), len(wantTr))
			}
		}
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
