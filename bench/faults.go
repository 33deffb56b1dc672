package main

import (
	"fmt"
	"math"

	"repro/internal/bound"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/track"
)

// asyncModel is async-faults' network: delayed, jittered, reordered within
// a small window, lossy with bounded retransmission, and heartbeat failure
// detection on.
const asyncModel = "latency=8,jitter=4,reorder=2,drop=0.01,retrans=3,hb=64"

// takeoverDelay is how many heartbeat periods a replacement takes to arrive
// after a crash: long enough for the detector's verdict to land first.
const takeoverDelay = 8

func asyncFaults() *closedSpec {
	const k, eps = 8, 0.1
	model, err := dist.ParseNetModel(asyncModel)
	if err != nil {
		panic(err) // the model is a constant
	}
	algos := func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(k, eps) }
	return &closedSpec{
		k: k, eps: eps, maxViol: 1, pollEvery: 1 << 14,
		input: func(n int, seed uint64) stream.Stream {
			return stream.NewAssign(stream.MeanReverting(int64(n), volatileLevel, 0.5, seed), stream.NewUniformRandom(k, seed+1))
		},
		algos: algos,
		build: func(seed uint64, coord dist.CoordAlgo, sites []dist.SiteAlgo, l *lane) *deployment {
			c, s := instrument(coord, sites, l)
			sim := dist.NewAsyncSim(c, s, model, seed)
			f := &faultPlan{algos: algos, hb: model.HeartbeatEvery, sim: sim, coord: coord,
				sites: append([]dist.SiteAlgo(nil), sites...)}
			return &deployment{
				rt:      sim,
				async:   sim,
				faults:  f,
				blocks:  func() int64 { return f.coord.(*track.BlockCoord).Blocks() },
				metrics: &obs.Metrics{Stats: sim.Stats},
				read:    func() { sink += sim.Estimate() },
				ests:    func() []int64 { return []int64{sim.Estimate()} },
				live:    func() (dist.CoordAlgo, []dist.SiteAlgo) { return f.coord, f.sites },
			}
		},
		check: func(d *deployment, ups []stream.Update) []string {
			p := finalWithin("det after Flush", finalF(ups), d.rt.Estimate(), eps)
			st := d.rt.Stats()
			if st.Takeovers != 4 || st.CoordTakeovers != 1 {
				p = append(p, fmt.Sprintf("%d site and %d coordinator takeovers, want 4 and 1",
					st.Takeovers, st.CoordTakeovers))
			}
			return p
		},
		msgBound: func(v float64) float64 { return bound.DetMessages(k, eps, v) },
	}
}

// faultPlan is async-faults' crash schedule within one chunk. Sites 0–3
// crash at 20, 40, 60 and 80% of the segment and the coordinator at 50%;
// each is replaced warm, by a fresh algorithm restored from a snapshot of
// the one that died, taken one tick before the crash. Snapshots are taken
// of the inner algorithms, never of timing wrappers.
type faultPlan struct {
	algos func() (dist.CoordAlgo, []dist.SiteAlgo) // builds replacements
	hb    int64
	sim   *dist.AsyncSim
	coord dist.CoordAlgo  // the live inner coordinator
	sites []dist.SiteAlgo // the live inner site algorithms
	l     *lane           // non-nil in a traced chunk
	snap  *snapSamples
	at    []int // update counts at which the next faults fire
	who   []int // the site each fault crashes; -1 is the coordinator
	// watch is the crashed site whose detector verdict is awaited (-1 for
	// none), crashTick its crash tick.
	watch     int
	crashTick int64
	failed    int64
	problems  []string
}

func (f *faultPlan) start(n int, l *lane) {
	f.l, f.watch = l, -1
	f.at = []int{n / 5, 2 * n / 5, n / 2, 3 * n / 5, 4 * n / 5}
	f.who = []int{0, 1, -1, 2, 3}
}

// next returns the update count at which the next fault fires.
func (f *faultPlan) next() int {
	if len(f.at) == 0 {
		return math.MaxInt
	}
	return f.at[0]
}

// after runs once the runtime has consumed i updates: it records a pending
// detector verdict and fires the faults due at i.
func (f *faultPlan) after(i int, s *samples) {
	if f.watch >= 0 && f.sim.Suspected(f.watch) {
		s.detect = append(s.detect, float64(f.sim.Now()-f.crashTick))
		f.watch = -1
	}
	for len(f.at) > 0 && f.at[0] == i {
		f.fire(f.who[0])
		f.at, f.who = f.at[1:], f.who[1:]
	}
}

func (f *faultPlan) fire(site int) {
	crash := f.sim.Now() + 1
	takeover := crash + takeoverDelay*f.hb
	if site < 0 {
		blob, err := f.timed(lSnapCoord, func() ([]byte, error) { return track.SnapshotCoord(f.coord) })
		if err != nil {
			return
		}
		standby, _ := f.algos()
		if _, err := f.timed(lRestore, func() ([]byte, error) { return nil, track.RestoreCoord(standby, blob) }); err != nil {
			return
		}
		f.coord = standby
		f.sim.ScheduleCoordCrash(crash)
		f.sim.ScheduleCoordTakeover(takeover, f.wrapCoord(standby))
		return
	}
	blob, err := f.timed(lSnapSite, func() ([]byte, error) { return track.SnapshotSite(f.sites[site]) })
	if err != nil {
		return
	}
	_, fresh := f.algos()
	rep := fresh[site]
	if _, err := f.timed(lRestore, func() ([]byte, error) { return nil, track.RestoreSite(rep, blob) }); err != nil {
		return
	}
	f.sites[site] = rep
	f.sim.ScheduleCrash(site, crash)
	f.sim.ScheduleTakeover(site, takeover, f.wrapSite(rep))
	f.watch, f.crashTick = site, crash
}

// timed runs one snapshot or restore call, as a span in a traced chunk; an
// error is a failed operation.
func (f *faultPlan) timed(ly layer, call func() ([]byte, error)) ([]byte, error) {
	if f.l != nil {
		f.l.begin(ly)
	}
	b, err := call()
	if f.l != nil {
		f.l.end(1)
	}
	if err != nil {
		f.failed++
		f.problems = append(f.problems, fmt.Sprintf("%s: %v", layerNames[ly], err))
	}
	return b, err
}

func (f *faultPlan) wrapSite(s dist.SiteAlgo) dist.SiteAlgo {
	if f.l == nil {
		return s
	}
	return wrapSite(s, f.l, f.l)
}

func (f *faultPlan) wrapCoord(c dist.CoordAlgo) dist.CoordAlgo {
	if f.l == nil {
		return c
	}
	return wrapCoord(c, f.l)
}
