package dist_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// TestHeartbeatCrashFreeByteIdentical is the PR's anchor property: enabling
// failure detection on a run that never crashes must not change a single
// byte — same transcript, same per-step estimates, same Stats up to the
// liveness counters — under the zero model and under a faulty one.
func TestHeartbeatCrashFreeByteIdentical(t *testing.T) {
	const k, n = 4, 20_000
	models := map[string]dist.NetModel{
		"zero":   {},
		"faulty": {Latency: 3, Jitter: 5, Reorder: 4, Drop: 0.1, Retrans: 2},
	}
	for mname, model := range models {
		ups := stream.Collect(stream.NewAssign(stream.BiasedWalk(n, 0.25, 17), stream.NewRoundRobin(k)))

		coord, sites := track.NewDeterministic(k, 0.1)
		wantTr, wantEst, wantStats := runAsyncRecorded(coord, sites, model, 7, ups)

		hb := model
		hb.HeartbeatEvery = 64
		hb.HeartbeatMiss = 3
		coord, sites = track.NewDeterministic(k, 0.1)
		gotTr, gotEst, gotStats := runAsyncRecorded(coord, sites, hb, 7, ups)

		if gotStats.HeartbeatsSent == 0 || gotStats.HeartbeatsRecv == 0 {
			t.Fatalf("%s: heartbeats did not flow: %+v", mname, gotStats)
		}
		if gotStats.Takeovers != 0 {
			t.Fatalf("%s: phantom takeover: %+v", mname, gotStats)
		}
		if got := gotStats.WithoutLiveness(); got != wantStats {
			t.Fatalf("%s: stats changed under heartbeats: %+v, want %+v", mname, got, wantStats)
		}
		if !reflect.DeepEqual(gotEst, wantEst) {
			t.Fatalf("%s: per-step estimates diverge under heartbeats", mname)
		}
		if !reflect.DeepEqual(gotTr, wantTr) {
			t.Fatalf("%s: transcripts diverge under heartbeats (%d vs %d entries)",
				mname, len(gotTr), len(wantTr))
		}
	}
}

// TestCrashDetectionAndDegradation crashes a site mid-stream with no
// replacement: the detector must declare it dead within the miss budget,
// the coordinator must excuse it from collections (blocks keep completing
// instead of wedging), and deliveries racing the crash must surface as
// Dropped, not as staleness.
func TestCrashDetectionAndDegradation(t *testing.T) {
	const k, n, crashAt = 4, 30_000, 10_000
	model := dist.NetModel{Latency: 2, HeartbeatEvery: 32, HeartbeatMiss: 3}
	coord, sites := track.NewDeterministic(k, 0.1)
	bc := coord.(*track.BlockCoord)
	sim := dist.NewAsyncSim(coord, sites, model, 5)
	sim.ScheduleCrash(2, crashAt)
	st := stream.NewAssign(stream.BiasedWalk(n, 0.3, 23), stream.NewRoundRobin(k))
	var blocksAtDeath int64
	dead := false
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
		if !dead && sim.Suspected(2) {
			dead = true
			blocksAtDeath = bc.Blocks()
			if !bc.SiteDead(2) {
				t.Fatalf("detector suspected site 2 but coordinator was not told")
			}
			lag := sim.Now() - crashAt
			budget := int64(model.HeartbeatMiss+3) * model.HeartbeatEvery
			if lag > budget {
				t.Fatalf("detection took %d ticks, budget %d", lag, budget)
			}
		}
	}
	sim.Flush()
	if !dead {
		t.Fatalf("crashed site was never suspected")
	}
	if !sim.Crashed(2) {
		t.Fatalf("site 2 not marked crashed")
	}
	if sim.BacklogLen(2) == 0 {
		t.Fatalf("dead slot's local updates were not queued")
	}
	if bc.Blocks() <= blocksAtDeath {
		t.Fatalf("no block completed after the death verdict: protocol wedged (blocks %d)",
			bc.Blocks())
	}
	if st := sim.Stats(); st.Dropped == 0 {
		t.Fatalf("deliveries racing the crash should count as Dropped: %+v", st)
	}
}

// TestCrashTakeoverReconverges is the warm-replacement path end to end:
// snapshot a site, crash it, restore the blob into a fresh algorithm,
// splice it in via ScheduleTakeover, and require the final estimate to meet
// the tracker's ε bound — the held snapshot state, the replayed backlog,
// and the takeover handshake must all land for that to hold.
func TestCrashTakeoverReconverges(t *testing.T) {
	const k, n = 4, 40_000
	const eps = 0.1
	model := dist.NetModel{Latency: 2, HeartbeatEvery: 32, HeartbeatMiss: 3}
	coord, sites := track.NewDeterministic(k, eps)
	sim := dist.NewAsyncSim(coord, sites, model, 13)
	st := stream.NewAssign(stream.BiasedWalk(n, 0.3, 29), stream.NewRoundRobin(k))
	var f int64
	i := 0
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		f += u.Delta
		sim.Step(u)
		i++
		if i == n/2 {
			// Checkpoint site 2 and kill it on the next tick: the
			// checkpoint lag is one tick's in-flight traffic, so the ε
			// bound must survive the swap.
			snap, err := track.SnapshotSite(sites[2])
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			_, fresh := track.NewDeterministic(k, eps)
			if err := track.RestoreSite(fresh[2], snap); err != nil {
				t.Fatalf("restore: %v", err)
			}
			crash := sim.Now() + 1
			sim.ScheduleCrash(2, crash)
			// Replacement arrives after the detector has had time to
			// declare the slot dead — the takeover must also clear the
			// suspicion and the dead-slot excusal.
			sim.ScheduleTakeover(2, crash+8*model.HeartbeatEvery, fresh[2])
		}
	}
	sim.Flush()
	stats := sim.Stats()
	if stats.Takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1", stats.Takeovers)
	}
	if sim.Crashed(2) || sim.Suspected(2) {
		t.Fatalf("slot 2 still dead/suspected after takeover")
	}
	if coord.(*track.BlockCoord).SiteDead(2) {
		t.Fatalf("coordinator still excuses slot 2 after takeover")
	}
	est := sim.Estimate()
	diff := est - f
	if diff < 0 {
		diff = -diff
	}
	bound := eps * float64(f)
	if bound < 0 {
		bound = -bound
	}
	if float64(diff) > bound {
		t.Fatalf("estimate %d vs exact %d: |err|=%d exceeds ε·f=%.1f after takeover",
			est, f, diff, bound)
	}
}

// TestNaiveRestartLosesState is the contrast run: a cold (unrestored)
// replacement loses the dead site's uncollected in-block state for good.
// The run must still terminate and serve estimates — degradation, not a
// wedge — but the snapshot machinery is what makes takeover accurate, and
// this pins that the accuracy in TestCrashTakeoverReconverges is earned.
func TestNaiveRestartLosesState(t *testing.T) {
	const k, n = 4, 40_000
	const eps = 0.1
	model := dist.NetModel{Latency: 2, HeartbeatEvery: 32, HeartbeatMiss: 3}
	coord, sites := track.NewDeterministic(k, eps)
	sim := dist.NewAsyncSim(coord, sites, model, 13)
	st := stream.NewAssign(stream.BiasedWalk(n, 0.3, 29), stream.NewRoundRobin(k))
	i := 0
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
		i++
		if i == n/2 {
			_, fresh := track.NewDeterministic(k, eps)
			crash := sim.Now() + 1
			sim.ScheduleCrash(2, crash)
			sim.ScheduleTakeover(2, crash+8*model.HeartbeatEvery, fresh[2])
		}
	}
	sim.Flush()
	if sim.Stats().Takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1", sim.Stats().Takeovers)
	}
	if sim.Crashed(2) {
		t.Fatalf("slot 2 still crashed after cold takeover")
	}
}

// TestZeroAllocHeartbeat pins the heartbeat machinery's steady-state cost:
// beacons, arrivals, and detector checks ride the scheduler queue with zero
// allocations per update once warm.
func TestZeroAllocHeartbeat(t *testing.T) {
	const k, warm, runs = 4, 20_000, 20_000
	model := dist.NetModel{Latency: 2, HeartbeatEvery: 16, HeartbeatMiss: 3}
	coord, sites := track.NewDeterministic(k, 0.1)
	sim := dist.NewAsyncSim(coord, sites, model, 3)
	st := stream.NewAssign(stream.BiasedWalk(warm+runs+1, 0.2, 7), stream.NewRoundRobin(k))
	for i := 0; i < warm; i++ {
		u, _ := st.Next()
		sim.Step(u)
	}
	ups := stream.Collect(stream.NewLimit(st, runs))
	i := 0
	if a := testing.AllocsPerRun(runs-1, func() {
		sim.Step(ups[i])
		i++
	}); a != 0 {
		t.Fatalf("Step with heartbeats allocated %v objects/op at steady state, want 0", a)
	}
	if sim.Stats().HeartbeatsSent == 0 {
		t.Fatalf("heartbeats were not flowing during the measurement")
	}
}

// TestParseNetModelRejectsCrashKeys: crash faults are scheduled through
// ScheduleCrash (varmon maps -kill onto it), not through the network model,
// so the model syntax has no crash keys — they fail like any unknown key
// instead of reaching NewAsyncSim with an out-of-range site.
func TestParseNetModelRejectsCrashKeys(t *testing.T) {
	for _, s := range []string{"crashat=10", "crashsite=9", "crashat=10,crashsite=9,hb=4"} {
		if _, err := dist.ParseNetModel(s); err == nil || !strings.Contains(err.Error(), "bad -net field") {
			t.Errorf("ParseNetModel(%q) = %v, want the unknown-key error", s, err)
		}
	}
	m, err := dist.ParseNetModel("latency=8,jitter=2,drop=0.01,retrans=3,hb=4")
	if err != nil || m.String() != "latency=8,jitter=2,drop=0.01,retrans=3,hb=4" {
		t.Errorf("ParseNetModel round trip = %q, %v", m.String(), err)
	}
}
