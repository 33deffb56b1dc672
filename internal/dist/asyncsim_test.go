package dist_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/freq"
	"repro/internal/stream"
	"repro/internal/track"
)

// runAsyncRecorded drives updates through a fresh tracker on AsyncSim's
// event queue, under the zero model too, capturing the transcript and the
// estimate after every Step — the queue's mirror of runRecorded in
// batch_test.go.
func runAsyncRecorded(coord dist.CoordAlgo, sites []dist.SiteAlgo, model dist.NetModel,
	seed uint64, ups []stream.Update) ([]dist.TranscriptEntry, []int64, dist.Stats) {
	sim := dist.NewAsyncSim(coord, sites, model, seed)
	sim.LeaveLane()
	var transcript []dist.TranscriptEntry
	sim.Recorder = func(e dist.TranscriptEntry) { transcript = append(transcript, e) }
	ests := make([]int64, len(ups))
	for i, u := range ups {
		sim.Step(u)
		ests[i] = sim.Estimate()
	}
	sim.Flush()
	return transcript, ests, sim.Stats()
}

// TestAsyncSimZeroFaultByteIdentical is the property anchoring the async
// subsystem: under the zero NetModel, the event queue must reproduce the
// lane's (Sim's) transcripts, per-step estimates, and stats byte for byte,
// for every tracker family and assignment pattern.
func TestAsyncSimZeroFaultByteIdentical(t *testing.T) {
	const k, n = 5, 30_000
	streams := map[string]func() stream.Stream{
		"rr": func() stream.Stream {
			return stream.NewAssign(stream.RandomWalk(n, 3), stream.NewRoundRobin(k))
		},
		"skewed": func() stream.Stream {
			return stream.NewAssign(stream.BiasedWalk(n, 0.2, 4), stream.NewSkewed(k, 1.5, 5))
		},
		"items": func() stream.Stream {
			return stream.NewAssign(stream.NewItemGen(n, 512, 1.2, 0.2, 8), stream.NewRoundRobin(k))
		},
	}
	builders := map[string]func() (dist.CoordAlgo, []dist.SiteAlgo){
		"det":  func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(k, 0.1) },
		"rand": func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewRandomized(k, 0.1, 9) },
		"freq": func() (dist.CoordAlgo, []dist.SiteAlgo) {
			tr, sites := freq.New(k, 0.1, freq.ExactMapper{})
			return tr, sites
		},
	}
	for sname, mk := range streams {
		ups := stream.Collect(mk())
		for bname, build := range builders {
			coord, sites := build()
			wantTr, wantEst, wantStats := runRecorded(coord, sites, ups)
			coord, sites = build()
			gotTr, gotEst, gotStats := runAsyncRecorded(coord, sites, dist.NetModel{}, 1, ups)
			if gotStats != wantStats {
				t.Fatalf("%s/%s: stats %+v, want %+v", sname, bname, gotStats, wantStats)
			}
			if !reflect.DeepEqual(gotEst, wantEst) {
				t.Fatalf("%s/%s: per-step estimates diverge", sname, bname)
			}
			if !reflect.DeepEqual(gotTr, wantTr) {
				t.Fatalf("%s/%s: transcripts diverge (%d vs %d entries)",
					sname, bname, len(gotTr), len(wantTr))
			}
		}
	}
}

// TestLaneSwitchOff pins the lane's one transition. Under the zero model a
// runtime stays on its lane until the first Schedule* call, which leaves
// it for good; a run that leaves it mid-stream, with a partition and
// rejoin scheduled there, must match a run on the event queue throughout,
// byte for byte: transcript, the estimate after every StepBatch call, and
// Stats. The det sites take the quiet path, whose budgets must not
// survive the switch.
func TestLaneSwitchOff(t *testing.T) {
	const k, n, batch = 4, 20_000, 64
	ups := stream.Collect(stream.NewAssign(stream.BiasedWalk(n, 0.2, 13), stream.NewSkewed(k, 1.2, 14)))
	builders := map[string]func() (dist.CoordAlgo, []dist.SiteAlgo){
		"det":  func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(k, 0.1) },
		"rand": func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewRandomized(k, 0.1, 9) },
	}
	type run struct {
		tr    []dist.TranscriptEntry
		ests  []int64
		stats dist.Stats
	}
	for name, build := range builders {
		drive := func(lane bool) run {
			var r run
			sim := dist.NewSim(build())
			if !lane {
				sim.LeaveLane()
			}
			sim.Recorder = func(e dist.TranscriptEntry) { r.tr = append(r.tr, e) }
			scheduled := false
			for i := 0; i < n; {
				if sim.OnLane() != (lane && !scheduled) {
					t.Fatalf("%s: on the lane %v before update %d", name, sim.OnLane(), i)
				}
				if i >= n/2 && !scheduled {
					scheduled = true
					sim.ScheduleDown(2, sim.Now()+1)
					sim.ScheduleUp(2, sim.Now()+500)
				}
				c, _ := sim.StepBatch(ups[i:min(n, i+batch)])
				i += c
				r.ests = append(r.ests, sim.Estimate())
			}
			sim.Flush()
			r.stats = sim.Stats()
			return r
		}
		want, got := drive(false), drive(true)
		if got.stats != want.stats {
			t.Fatalf("%s: stats %+v, want %+v", name, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.ests, want.ests) {
			t.Fatalf("%s: estimates diverge", name)
		}
		if !reflect.DeepEqual(got.tr, want.tr) {
			t.Fatalf("%s: transcripts diverge (%d vs %d entries)", name, len(got.tr), len(want.tr))
		}
	}
}

// TestLaneSharedIdleNetwork drives runtimes on their lanes from several
// goroutines at once, with every query a runtime on its lane answers from
// the shared idle network value; under -race it pins that nothing writes
// that value. Each one then leaves its lane.
func TestLaneSharedIdleNetwork(t *testing.T) {
	const k, n = 4, 5_000
	ups := stream.Collect(stream.NewAssign(stream.RandomWalk(n, 21), stream.NewRoundRobin(k)))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim := dist.NewSim(track.NewRandomized(k, 0.1, uint64(g)))
			for i := 0; i < n; {
				c, _ := sim.StepBatch(ups[i:min(n, i+64)])
				i += c
				if sim.Pending() != 0 || sim.Crashed(1) || sim.Suspected(1) || sim.CoordCrashed() || sim.BacklogLen(1) != 0 {
					t.Error("a runtime on its lane reports network state")
					return
				}
			}
			sim.Flush()
			sim.ScheduleCrash(1, sim.Now()) // due before the next arrival
			sim.Step(stream.Update{T: n + 1, Site: 1, Delta: 1})
			if !sim.Crashed(1) || sim.BacklogLen(1) != 1 {
				t.Error("a crash scheduled after the lane did not take effect")
			}
		}()
	}
	wg.Wait()
}

// TestAsyncSimDeterministic pins bit-for-bit reproducibility under heavy
// fault injection: same seed, same transcript; the virtual clock never
// reads wall time.
func TestAsyncSimDeterministic(t *testing.T) {
	const k, n = 4, 8_000
	model := dist.NetModel{Latency: 3, Jitter: 5, Reorder: 4, Drop: 0.1, Retrans: 2}
	run := func() ([]dist.TranscriptEntry, dist.Stats) {
		coord, sites := track.NewDeterministic(k, 0.1)
		ups := stream.Collect(stream.NewAssign(stream.RandomWalk(n, 7), stream.NewRoundRobin(k)))
		tr, _, st := runAsyncRecorded(coord, sites, model, 42, ups)
		return tr, st
	}
	tr1, st1 := run()
	tr2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", st1, st2)
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatalf("transcripts differ across identical runs (%d vs %d entries)", len(tr1), len(tr2))
	}
	if st1.Dropped == 0 && st1.Retransmitted == 0 {
		t.Fatalf("fault model injected no faults: %+v", st1)
	}
}

// TestAsyncSimLatencyStaleness checks the staleness gauge and FIFO
// semantics under pure latency: no loss, delivery lag bounded by
// latency+jitter (modulo FIFO stretching), and after Flush the
// deterministic tracker's estimate is within the quiescent-state bound.
func TestAsyncSimLatencyStaleness(t *testing.T) {
	const k, n = 4, 20_000
	const eps = 0.1
	model := dist.NetModel{Latency: 8, Jitter: 3}
	coord, sites := track.NewDeterministic(k, eps)
	sim := dist.NewAsyncSim(coord, sites, model, 11)
	st := stream.NewAssign(stream.BiasedWalk(n, 0.3, 12), stream.NewRoundRobin(k))
	var f int64
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		f += u.Delta
		sim.Step(u)
	}
	sim.Flush()
	stats := sim.Stats()
	if stats.Dropped != 0 || stats.Retransmitted != 0 {
		t.Fatalf("latency-only model lost messages: %+v", stats)
	}
	if stats.StalenessMax < model.Latency {
		t.Errorf("StalenessMax = %d, want >= base latency %d", stats.StalenessMax, model.Latency)
	}
	if avg := stats.AvgStaleness(); avg < float64(model.Latency) {
		t.Errorf("AvgStaleness = %.2f, want >= base latency %d", avg, model.Latency)
	}
	// At full quiescence with no loss and per-link FIFO, the coordinator
	// holds every site's latest report, so the synchronous quiescent-state
	// error bound applies.
	est := sim.Estimate()
	diff := absDiff64(f, est)
	if af := absDiff64(f, 0); float64(diff) > eps*float64(af)+1e-9 {
		t.Errorf("post-Flush estimate %d too far from f=%d (eps=%v)", est, f, eps)
	}
}

// TestAsyncSimDropAndRetransmission exercises the loss model with the echo
// algorithm pair (known message counts): total loss with no retransmission
// drops everything; a generous retransmission budget recovers everything.
func TestAsyncSimDropAndRetransmission(t *testing.T) {
	const n = 2_000
	drive := func(model dist.NetModel) (*echoCoord, dist.Stats) {
		coord := &echoCoord{}
		sites := []dist.SiteAlgo{&echoSite{id: 0}}
		sim := dist.NewAsyncSim(coord, sites, model, 5)
		for i := 1; i <= n; i++ {
			sim.Step(stream.Update{T: int64(i), Site: 0, Delta: 1})
		}
		sim.Flush()
		return coord, sim.Stats()
	}

	// Total loss, no retransmission: nothing arrives.
	coord, stats := drive(dist.NetModel{Drop: 1})
	if coord.f != 0 || stats.Total() != 0 {
		t.Fatalf("drop=1: estimate %d, delivered %d; want 0, 0", coord.f, stats.Total())
	}
	if stats.Dropped != n {
		t.Fatalf("drop=1: Dropped = %d, want %d", stats.Dropped, n)
	}

	// Heavy loss, deep retransmission budget: everything arrives late.
	coord, stats = drive(dist.NetModel{Latency: 2, Drop: 0.5, Retrans: 40})
	if stats.Dropped != 0 {
		t.Fatalf("drop=0.5 retrans=40: Dropped = %d, want 0", stats.Dropped)
	}
	if stats.Retransmitted == 0 {
		t.Fatalf("drop=0.5: no retransmissions recorded")
	}
	if stats.SiteToCoord != n || stats.CoordToSite != n {
		t.Fatalf("drop=0.5 retrans=40: delivered %+v, want %d each way", stats, n)
	}
	// Retransmission reorders: a retried report re-enters the link behind
	// traffic sent after it (as on a real network), so the last-delivered
	// absolute value can trail the last-sent one — but only by the
	// retransmission horizon, not unboundedly.
	if coord.f > n || coord.f < n-200 {
		t.Fatalf("drop=0.5 retrans=40: estimate %d, want within [%d, %d]", coord.f, n-200, n)
	}
}

// TestAsyncSimChurnMidRun partitions one site across the middle third of
// the run and checks degradation (messages dropped) plus organic recovery:
// by the end of the run the deterministic tracker is back within its
// guarantee.
func TestAsyncSimChurnMidRun(t *testing.T) {
	const k, n = 4, 30_000
	const eps = 0.1
	coord, sites := track.NewDeterministic(k, eps)
	sim := dist.NewAsyncSim(coord, sites, dist.NetModel{Latency: 1}, 13)
	sim.ScheduleDown(2, n/3)
	sim.ScheduleUp(2, 2*n/3)
	st := stream.NewAssign(stream.BiasedWalk(n, 0.3, 17), stream.NewRoundRobin(k))
	var f int64
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		f += u.Delta
		sim.Step(u)
	}
	sim.Flush()
	stats := sim.Stats()
	if stats.Dropped == 0 {
		t.Fatalf("outage dropped no messages: %+v", stats)
	}
	est := sim.Estimate()
	diff := absDiff64(f, est)
	af := f
	if af < 0 {
		af = -af
	}
	if float64(diff) > eps*float64(af)+1e-9 {
		t.Errorf("post-recovery estimate %d vs f=%d: rel err %.4f > eps %v",
			est, f, float64(diff)/float64(af), eps)
	}
}

// TestAsyncSimRejoinResyncHeals isolates the resync hooks: site 2 goes
// down halfway through the stream and only rejoins after the last update,
// so no further updates can trigger organic drift reports — the only thing
// that can repair the coordinator's stale view of site 2 is the
// SiteRejoiner/CoordRejoiner handshake fired at rejoin during Flush.
func TestAsyncSimRejoinResyncHeals(t *testing.T) {
	const k, n = 4, 30_000
	const eps = 0.1
	run := func(rejoin bool) (f, est int64, stats dist.Stats) {
		coord, sites := track.NewDeterministic(k, eps)
		sim := dist.NewAsyncSim(coord, sites, dist.NetModel{Latency: 1}, 13)
		sim.ScheduleDown(2, n/2)
		if rejoin {
			sim.ScheduleUp(2, n+100)
		}
		st := stream.NewAssign(stream.BiasedWalk(n, 0.3, 17), stream.NewRoundRobin(k))
		for {
			u, ok := st.Next()
			if !ok {
				break
			}
			f += u.Delta
			sim.Step(u)
		}
		sim.Flush()
		return f, sim.Estimate(), sim.Stats()
	}

	relErr := func(f, est int64) float64 {
		af := f
		if af < 0 {
			af = -af
		}
		if af == 0 {
			return float64(absDiff64(f, est))
		}
		return float64(absDiff64(f, est)) / float64(af)
	}

	// Sanity: with the site still partitioned at the end, the estimate
	// must be visibly stale — otherwise this scenario cannot distinguish
	// resync from doing nothing.
	f, est, stats := run(false)
	if stats.Dropped == 0 {
		t.Fatalf("outage dropped no messages: %+v", stats)
	}
	if relErr(f, est) <= eps {
		t.Fatalf("scenario is toothless: estimate within eps (%.4f) despite permanent partition",
			relErr(f, est))
	}

	f, est, _ = run(true)
	if got := relErr(f, est); got > eps+1e-9 {
		t.Errorf("resync did not heal: rel err %.4f > eps %v (f=%d, f̂=%d)", got, eps, f, est)
	}
}

// TestAsyncSimReorderWindow checks both halves of the reorder semantics
// with the echo pair, whose drift reports carry strictly increasing
// absolute values: under Reorder == 0 the per-link FIFO floor forbids
// overtaking even with heavy jitter, and a wide window permits it.
func TestAsyncSimReorderWindow(t *testing.T) {
	const n = 5_000
	run := func(reorder int64) (outOfOrder int) {
		coord := &echoCoord{}
		sites := []dist.SiteAlgo{&echoSite{id: 0}}
		sim := dist.NewAsyncSim(coord, sites,
			dist.NetModel{Latency: 2, Jitter: 6, Reorder: reorder}, 21)
		last := int64(0)
		sim.Recorder = func(e dist.TranscriptEntry) {
			if e.To == dist.CoordID {
				if e.Msg.A < last {
					outOfOrder++
				}
				last = e.Msg.A
			}
		}
		for i := 1; i <= n; i++ {
			sim.Step(stream.Update{T: int64(i), Site: 0, Delta: 1})
		}
		sim.Flush()
		return outOfOrder
	}
	if got := run(0); got != 0 {
		t.Errorf("Reorder=0: %d overtakes on a FIFO link, want 0", got)
	}
	if got := run(8); got == 0 {
		t.Errorf("Reorder=8 with jitter 6: no overtaking observed, window is inert")
	}
}

// testSiteOutbox and testCoordOutbox route messages into in-memory queues
// so a test can deliver (or deliberately drop) individual messages.
type testSiteOutbox struct{ q *[]dist.Msg }

func (o testSiteOutbox) Send(m dist.Msg) { *o.q = append(*o.q, m) }

func (o testSiteOutbox) SendTo(site int, m dist.Msg) { o.Send(m) }

func (o testSiteOutbox) Broadcast(m dist.Msg) { o.Send(m) }

type testCoordOutbox struct{ qs []*[]dist.Msg }

func (o testCoordOutbox) SendTo(site int, m dist.Msg) {
	*o.qs[site] = append(*o.qs[site], m)
}

func (o testCoordOutbox) Send(m dist.Msg) { o.Broadcast(m) }

func (o testCoordOutbox) Broadcast(m dist.Msg) {
	for i := range o.qs {
		o.SendTo(i, m)
	}
}

// TestBlockResyncNetZeroBlockIdentity is the regression test for the
// resync block-identity collision: (r, f(n_j)) repeats whenever a block
// closes with zero net change, so a resync check based on those fields
// mistakes a site that missed such a boundary for a current one — the
// site keeps its stale old-block drift and the resync re-sends it as an
// absolute value the coordinator double-counts. The fix identifies blocks
// by the completed-block sequence number carried in the resync message.
//
// The scenario, hand-pumped so every delivery is explicit: two sites,
// block 1 closes with net change 0 (site 0: +1, site 1: −1), the closing
// broadcast to site 1 is lost, then site 1 rejoins. f = 2 throughout; a
// correct resync must restore Estimate() to exactly 2, while the
// (r, f(n_j)) identity yields 1 (site 1's stale d_i = −1 re-reported into
// a block whose boundary already folded it).
func TestBlockResyncNetZeroBlockIdentity(t *testing.T) {
	const k = 2
	coordAlgo, siteAlgos := track.NewDeterministic(k, 0.1)

	var toCoord []dist.Msg
	toSite := make([]*[]dist.Msg, k)
	for i := range toSite {
		toSite[i] = new([]dist.Msg)
	}
	coordOut := testCoordOutbox{qs: toSite}
	siteOut := testSiteOutbox{q: &toCoord}

	// pump delivers FIFO (coordinator first) until quiescent; drop, when
	// non-nil, discards matching site-bound messages instead.
	pump := func(drop func(site int, m dist.Msg) bool) {
		for {
			if len(toCoord) > 0 {
				m := toCoord[0]
				toCoord = toCoord[1:]
				coordAlgo.OnMessage(m, coordOut)
				continue
			}
			delivered := false
			for i := 0; i < k; i++ {
				if len(*toSite[i]) > 0 {
					m := (*toSite[i])[0]
					*toSite[i] = (*toSite[i])[1:]
					if drop == nil || !drop(i, m) {
						siteAlgos[i].OnMessage(m, siteOut)
					}
					delivered = true
					break
				}
			}
			if !delivered {
				return
			}
		}
	}
	update := func(site int, delta int64, tstep int64) {
		siteAlgos[site].OnUpdate(stream.Update{T: tstep, Site: site, Delta: delta}, siteOut)
		pump(nil)
	}

	// Block 0: +1 at each site; closes with f(n_1) = 2, r = 0.
	update(0, 1, 1)
	update(1, 1, 2)
	// Block 1: +1 and −1 — closes with zero net change, so f(n_2) = 2 and
	// r = 0 again: the colliding identity. Site 1 loses the broadcast.
	update(0, 1, 3)
	siteAlgos[1].OnUpdate(stream.Update{T: 4, Site: 1, Delta: -1}, siteOut)
	dropped := false
	pump(func(site int, m dist.Msg) bool {
		if site == 1 && m.Kind == dist.KindNewBlock {
			dropped = true
			return true
		}
		return false
	})
	if !dropped {
		t.Fatal("scenario broken: no NewBlock broadcast to site 1 to drop")
	}

	// Rejoin handshake, in AsyncSim's order: coordinator first, then site.
	coordAlgo.(dist.CoordRejoiner).OnSiteRejoin(1, coordOut)
	siteAlgos[1].(dist.SiteRejoiner).OnRejoin(siteOut)
	pump(nil)

	if got := coordAlgo.Estimate(); got != 2 {
		t.Fatalf("post-resync estimate = %d, want 2 (stale net-zero-block drift double-counted)", got)
	}
}

// TestAsyncSimResyncIdentityAllOffsets sweeps a short outage across every
// placement in the run and requires post-Flush recovery at all of them —
// the end-to-end complement of TestBlockResyncNetZeroBlockIdentity.
func TestAsyncSimResyncIdentityAllOffsets(t *testing.T) {
	const k, n = 2, 4_000
	const eps = 0.25
	for downAt := int64(100); downAt < n-500; downAt += 100 {
		coord, sites := track.NewDeterministic(k, eps)
		sim := dist.NewAsyncSim(coord, sites, dist.NetModel{Latency: 2}, 29)
		sim.ScheduleDown(1, downAt)
		sim.ScheduleUp(1, downAt+300)
		st := stream.NewAssign(stream.RandomWalk(n, 31), stream.NewRoundRobin(k))
		var f int64
		for {
			u, ok := st.Next()
			if !ok {
				break
			}
			f += u.Delta
			sim.Step(u)
		}
		sim.Flush()
		est := sim.Estimate()
		diff := absDiff64(f, est)
		af := f
		if af < 0 {
			af = -af
		}
		if float64(diff) > eps*float64(af)+1e-9 {
			t.Errorf("outage [%d, %d): post-recovery estimate %d vs f=%d exceeds eps",
				downAt, downAt+300, est, f)
		}
	}
}

func absDiff64(a, b int64) int64 {
	d := a - b
	if d < 0 {
		return -d
	}
	return d
}
