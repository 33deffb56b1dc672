package dist_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// quietRuntime is the surface the quiet identity test drives: the lane and
// the event queue alike.
type quietRuntime interface {
	Step(stream.Update)
	StepBatch([]stream.Update) (int, bool)
	Estimate() int64
	Stats() dist.Stats
	ReplaceSite(int, dist.SiteAlgo)
	QuietMode() bool
}

// quietEnv is one fresh deployment under test: the runtime, its recorded
// transcript, a counter that moves in any step that does more than feed a
// site (deliveries on the lane, processed events on the queue), the
// mid-stream actions keyed by the index of the update they run before, and
// what to do after the last update.
type quietEnv struct {
	rt         quietRuntime
	transcript *[]dist.TranscriptEntry
	active     func() uint64
	actions    map[int]func()
	finish     func()
}

// quietRef is the per-update run StepBatch must reproduce: the transcript,
// the estimate and the activity after every update, and the final Stats.
type quietRef struct {
	transcript []dist.TranscriptEntry
	ests       []int64
	active     []bool // whether each update's step did more than feed a site
	stats      dist.Stats
}

// quietBuild returns k deterministic sites and their coordinator.
type quietBuild func() (dist.CoordAlgo, []dist.SiteAlgo)

// spliceSite snapshots site target and swaps a restored copy into rt, as
// a snapshot property test does mid-stream.
func spliceSite(t *testing.T, rt quietRuntime, build quietBuild, sites []dist.SiteAlgo, target int) {
	t.Helper()
	fresh := restoredSite(t, build, sites, target)
	rt.ReplaceSite(target, fresh)
	sites[target] = fresh
}

// restoredSite returns a fresh copy of sites[target] restored from its
// snapshot.
func restoredSite(t *testing.T, build quietBuild, sites []dist.SiteAlgo, target int) dist.SiteAlgo {
	t.Helper()
	snap, err := track.SnapshotSite(sites[target])
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := build()
	if err := track.RestoreSite(fresh[target], snap); err != nil {
		t.Fatal(err)
	}
	return fresh[target]
}

// newQuietSim deploys build on Sim, splicing site 2 in before update cut.
func newQuietSim(t *testing.T, build quietBuild, cut int) quietEnv {
	coord, sites := build()
	sim := dist.NewSim(coord, sites)
	var transcript []dist.TranscriptEntry
	sim.Recorder = func(e dist.TranscriptEntry) { transcript = append(transcript, e) }
	return quietEnv{
		rt:         sim,
		transcript: &transcript,
		active:     func() uint64 { return uint64(len(transcript)) },
		actions:    map[int]func(){cut: func() { spliceSite(t, sim, build, sites, 2) }},
		finish:     func() {},
	}
}

// newQuietAsync deploys build on AsyncSim's event queue under model with
// four faults mid-stream: site 1 crashes and a warm replacement takes
// over, its backlog replayed; site 3 is partitioned and rejoins; site 2 is
// spliced at cut; the coordinator crashes and a warm standby takes over.
func newQuietAsync(t *testing.T, build quietBuild, model dist.NetModel, cut int) quietEnv {
	coord, sites := build()
	sim := dist.NewAsyncSim(coord, sites, model, 7)
	sim.LeaveLane()
	var transcript []dist.TranscriptEntry
	sim.Recorder = func(e dist.TranscriptEntry) { transcript = append(transcript, e) }
	const outage = 600 // past the detector's verdict under faultModel
	return quietEnv{
		rt:         sim,
		transcript: &transcript,
		active:     func() uint64 { return sim.EventsPopped() },
		actions: map[int]func(){
			cut * 2 / 5: func() {
				fresh := restoredSite(t, build, sites, 1)
				sim.ScheduleCrash(1, sim.Now()+1)
				sim.ScheduleTakeover(1, sim.Now()+outage, fresh)
				sites[1] = fresh
			},
			cut * 4 / 5: func() {
				sim.ScheduleDown(3, sim.Now()+1)
				sim.ScheduleUp(3, sim.Now()+outage/2)
			},
			cut: func() { spliceSite(t, sim, build, sites, 2) },
			cut * 13 / 10: func() {
				snap, err := track.SnapshotCoord(coord)
				if err != nil {
					t.Fatal(err)
				}
				fresh, _ := build()
				if err := track.RestoreCoord(fresh, snap); err != nil {
					t.Fatal(err)
				}
				sim.ScheduleCoordCrash(sim.Now() + 1)
				sim.ScheduleCoordTakeover(sim.Now()+outage, fresh)
				coord = fresh
			},
		},
		finish: func() {
			sim.Flush()
			if st := sim.Stats(); st.Takeovers != 1 || st.CoordTakeovers != 1 {
				t.Fatalf("takeovers %d, coordinator takeovers %d, want 1 each", st.Takeovers, st.CoordTakeovers)
			}
		},
	}
}

// TestQuietStepBatchMatchesStep pins the quiet path: StepBatch over the
// deterministic tracker, whose message-free stretches are absorbed in bulk,
// must match per-update Step byte for byte — transcript, Stats, the
// estimate after every update — and must consume exactly the prefix up to
// the first update whose step does more than feed its site, reporting
// activity for that update alone. The inputs cover skewed, round-robin and
// single-site assignment, a nearly monotone stream, walks that cross 0 (δ
// changes sign), bulk updates with |Δ| > 1 and Δ = 0, a stream kept at
// block exponent r = 0 (budget 0 throughout), thresholds that are exact
// integers (ε = 0.25), a ReplaceSite splice mid-stream, and Step calls
// between StepBatch calls (a Step changes its site's state outside the
// quiet pass). Calls shorter than four updates per site take the run path
// even over quiet sites, so batch sizes 1 and 7 pin that switch too.
//
// The asyncsim cases run the same check on AsyncSim's event queue under
// the zero model and under faultModel, with a site crash and warm takeover
// (a backlog replay), a partition and rejoin, and a coordinator crash and
// warm takeover on top of the splice: a pass must stop at the next event's
// tick, budgets must go stale after any event, a crashed slot's updates
// must reach its backlog, and a pass's sends must leave at its last
// update's tick.
func TestQuietStepBatchMatchesStep(t *testing.T) {
	// Every run splices site 2 at the midpoint, so the first half of each
	// is also the splice-free case.
	const k, n, cut = 5, 10_000, 5_000
	zeroEvery := func(ups []stream.Update, m int) []stream.Update {
		for i := m - 1; i < len(ups); i += m {
			ups[i].Delta = 0
		}
		return ups
	}
	inputs := map[string][]stream.Update{
		"nearly-monotone/skewed": stream.Collect(stream.NewAssign(stream.NearlyMonotone(n, 0.2, 5), stream.NewSkewed(k, 1.2, 6))),
		"walk/round-robin":       stream.Collect(stream.NewAssign(stream.RandomWalk(n, 7), stream.NewRoundRobin(k))),
		"zero-crossing/skewed":   stream.Collect(stream.NewAssign(stream.ZeroCrossing(n, 300), stream.NewSkewed(k, 1.5, 8))),
		"bulk-and-zero/single":   zeroEvery(stream.Collect(stream.NewAssign(stream.BulkWalk(n, 9, 9), stream.NewSingle(k))), 5),
		"bulk-and-zero/skewed":   zeroEvery(stream.Collect(stream.NewAssign(stream.BulkWalk(n, 4, 10), stream.NewSkewed(k, 1.2, 11))), 3),
		"r0/round-robin":         stream.Collect(stream.NewAssign(stream.ZeroCrossing(n, 2*k), stream.NewRoundRobin(k))),
	}
	faults, err := dist.ParseNetModel(faultModel)
	if err != nil {
		t.Fatal(err)
	}
	runtimes := []struct {
		prefix string
		eps    []float64
		deploy func(t *testing.T, build quietBuild) quietEnv
	}{
		{"", []float64{0.1, 0.25}, func(t *testing.T, build quietBuild) quietEnv {
			return newQuietSim(t, build, cut)
		}},
		{"asyncsim/zero/", []float64{0.1}, func(t *testing.T, build quietBuild) quietEnv {
			return newQuietAsync(t, build, dist.NetModel{}, cut)
		}},
		{"asyncsim/faults/", []float64{0.1}, func(t *testing.T, build quietBuild) quietEnv {
			return newQuietAsync(t, build, faults, cut)
		}},
	}
	for _, rt := range runtimes {
		for _, eps := range rt.eps {
			build := func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(k, eps) }
			for name, ups := range inputs {
				want := quietReference(rt.deploy(t, build), ups)
				for _, v := range []struct{ batch, stepEvery int }{{1, 0}, {7, 0}, {4096, 0}, {64, 10}} {
					t.Run(fmt.Sprintf("%seps=%g/%s/batch=%d/step=%d", rt.prefix, eps, name, v.batch, v.stepEvery), func(t *testing.T) {
						checkQuietBatched(t, rt.deploy(t, build), ups, v.batch, v.stepEvery, want)
					})
				}
			}
		}
	}
}

// quietReference drives ups through env one Step at a time.
func quietReference(env quietEnv, ups []stream.Update) quietRef {
	var ref quietRef
	for i, u := range ups {
		if act := env.actions[i]; act != nil {
			act()
		}
		before := env.active()
		env.rt.Step(u)
		ref.ests = append(ref.ests, env.rt.Estimate())
		ref.active = append(ref.active, env.active() != before)
	}
	env.finish()
	ref.transcript = *env.transcript
	ref.stats = env.rt.Stats()
	return ref
}

// checkQuietBatched drives ups through StepBatch in chunks of batch
// updates (every action index ends a chunk too), feeding every chunk that
// starts at a multiple of stepEvery chunks to Step instead, one update,
// when stepEvery > 0. It compares every call and the whole run against
// want.
func checkQuietBatched(t *testing.T, env quietEnv, ups []stream.Update, batch, stepEvery int, want quietRef) {
	cuts := make([]int, 0, len(env.actions))
	for i := range env.actions {
		cuts = append(cuts, i)
	}
	sort.Ints(cuts)
	ests := make([]int64, 0, len(ups))
	est := env.rt.Estimate()
	for i, calls := 0, 0; i < len(ups); calls++ {
		if act := env.actions[i]; act != nil {
			act()
		}
		end := min(len(ups), i+batch)
		if j := sort.SearchInts(cuts, i+1); j < len(cuts) && cuts[j] < end {
			end = cuts[j]
		}
		var c int
		var active bool
		if stepEvery > 0 && calls%stepEvery == 0 {
			before := env.active()
			env.rt.Step(ups[i])
			c, active, end = 1, env.active() != before, i+1
		} else {
			c, active = env.rt.StepBatch(ups[i:end])
			// An event inside the call may have spliced a site in, which
			// makes the next call probe again.
			if !active && !env.rt.QuietMode() {
				t.Fatal("StepBatch over the deterministic tracker did not take the quiet path")
			}
		}
		// The reference's first active update in [i, end) ends the call.
		wantC, wantActive := end-i, false
		for j := i; j < end; j++ {
			if want.active[j] {
				wantC, wantActive = j-i+1, true
				break
			}
		}
		if c != wantC || active != wantActive {
			t.Fatalf("StepBatch(ups[%d:%d]) = (%d, %v), want (%d, %v)", i, end, c, active, wantC, wantActive)
		}
		for j := 0; j < c-1; j++ {
			ests = append(ests, est)
		}
		if active {
			est = env.rt.Estimate()
		}
		ests = append(ests, est)
		i += c
	}
	env.finish()
	if got := env.rt.Stats(); got != want.stats {
		t.Fatalf("stats %+v, want %+v", got, want.stats)
	}
	if !reflect.DeepEqual(ests, want.ests) {
		for i := range ests {
			if ests[i] != want.ests[i] {
				t.Fatalf("estimate after update %d is %d, want %d", i, ests[i], want.ests[i])
			}
		}
	}
	if transcript := *env.transcript; !reflect.DeepEqual(transcript, want.transcript) {
		t.Fatalf("transcripts diverge (%d vs %d entries)", len(transcript), len(want.transcript))
	}
}

// TestStepBatchEmpty pins that StepBatch on an empty slice consumes
// nothing and reports no activity, on both runtimes, on the quiet (det)
// and the per-update (rand) path, before and after the first real call.
func TestStepBatchEmpty(t *testing.T) {
	const k = 4
	ups := stream.Collect(stream.NewAssign(stream.RandomWalk(100, 3), stream.NewRoundRobin(k)))
	builds := map[string]quietBuild{
		"det":  func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(k, 0.1) },
		"rand": func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewRandomized(k, 0.1, 9) },
	}
	for name, build := range builds {
		runtimes := map[string]func() quietRuntime{
			"sim": func() quietRuntime { return dist.NewSim(build()) },
			"asyncsim": func() quietRuntime {
				coord, sites := build()
				return dist.NewAsyncSim(coord, sites, dist.NetModel{}, 1)
			},
		}
		for rname, mk := range runtimes {
			t.Run(rname+"/"+name, func(t *testing.T) {
				rt := mk()
				checkEmpty(t, rt, "fresh")
				for i := 0; i < len(ups); {
					c, _ := rt.StepBatch(ups[i:])
					i += c
				}
				checkEmpty(t, rt, "warm")
			})
		}
	}
}

// checkEmpty fails unless rt.StepBatch on an empty slice returns (0, false)
// without panicking.
func checkEmpty(t *testing.T, rt quietRuntime, phase string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: StepBatch(empty) panicked: %v", phase, r)
		}
	}()
	if c, active := rt.StepBatch(nil); c != 0 || active {
		t.Fatalf("%s: StepBatch(empty) = (%d, %v), want (0, false)", phase, c, active)
	}
}
