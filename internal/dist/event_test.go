package dist_test

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/track"
)

// runTranscribed runs one crash-free simulation and returns its transcript
// and final stats. When traced, an event ring is installed first.
func runTranscribed(t *testing.T, async, traced bool) ([]dist.TranscriptEntry, dist.Stats, *obs.Ring) {
	t.Helper()
	const k, n = 4, 8_000
	coord, sites := track.NewDeterministic(k, 0.1)
	ups := stream.Collect(stream.NewAssign(
		stream.BiasedWalk(n, 0.3, 17), stream.NewRoundRobin(k)))
	var ring *obs.Ring
	if traced {
		ring = obs.NewRing(obs.DefaultRingCap)
	}
	var transcript []dist.TranscriptEntry
	rec := func(e dist.TranscriptEntry) { transcript = append(transcript, e) }
	if async {
		sim := dist.NewAsyncSim(coord, sites,
			dist.NetModel{Latency: 3, Jitter: 2, Reorder: 2, Drop: 0.02, Retrans: 3}, 99)
		sim.Recorder = rec
		if traced {
			sim.Events = ring.Emit
		}
		for _, u := range ups {
			sim.Step(u)
		}
		sim.Flush()
		return transcript, sim.Stats(), ring
	}
	sim := dist.NewSim(coord, sites)
	sim.Recorder = rec
	if traced {
		sim.Events = ring.Emit
	}
	for _, u := range ups {
		sim.Step(u)
	}
	return transcript, sim.Stats(), ring
}

// TestEventTracingByteIdentical pins the observability layer's
// non-interference contract: installing an event sink on a crash-free run
// must leave the delivered-message transcript and the final Stats
// byte-identical to the untraced run — tracing observes the protocol, it
// never steers it.
func TestEventTracingByteIdentical(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := "sim"
		if async {
			name = "asyncsim"
		}
		plain, plainStats, _ := runTranscribed(t, async, false)
		traced, tracedStats, ring := runTranscribed(t, async, true)
		if plainStats != tracedStats {
			t.Fatalf("%s: stats diverge with tracing on:\n  plain  %+v\n  traced %+v",
				name, plainStats, tracedStats)
		}
		if len(plain) != len(traced) {
			t.Fatalf("%s: transcript length diverges with tracing on: %d vs %d",
				name, len(plain), len(traced))
		}
		for i := range plain {
			if plain[i] != traced[i] {
				t.Fatalf("%s: transcript entry %d diverges with tracing on:\n  plain  %+v\n  traced %+v",
					name, i, plain[i], traced[i])
			}
		}
		if ring.Total() == 0 {
			t.Fatalf("%s: the traced run emitted no events — the sink is not wired", name)
		}
	}
}

// TestSimStepZeroAllocTraced extends the hot-path allocation contract to
// the enabled side: emitting control-plane events into an obs.Ring must
// not allocate either — the ring's buffer is fixed at construction and
// Events are passed by value.
func TestSimStepZeroAllocTraced(t *testing.T) {
	const k, warm, runs = 8, 20_000, 20_000
	coord, sites := track.NewDeterministic(k, 0.1)
	sim := dist.NewSim(coord, sites)
	sim.Events = obs.NewRing(obs.DefaultRingCap).Emit
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
		t.Fatalf("Sim.Step with an event ring installed allocated %v objects/op, want 0", a)
	}
}

// TestAsyncSimLivenessEventsAddressed: every liveness and takeover event
// is addressed to the coordinator, whose detector and control plane
// produced it — on AsyncSim exactly as on TCP. AsyncSim used to leave To at
// 0, so an /events dump showed them addressed to site 0.
func TestAsyncSimLivenessEventsAddressed(t *testing.T) {
	const k, n, eps = 4, 30_000, 0.1
	model := dist.NetModel{Latency: 2, HeartbeatEvery: 16, HeartbeatMiss: 3}
	coord, sites := track.NewDeterministic(k, eps)
	sim := dist.NewAsyncSim(coord, sites, model, 5)
	seen := map[dist.EventKind]int{}
	sim.Events = func(e dist.Event) {
		switch e.Kind {
		case dist.EvHeartbeatMiss, dist.EvSiteDead, dist.EvSiteAlive, dist.EvSiteCrash,
			dist.EvTakeover, dist.EvCoordCrash, dist.EvCoordTakeover:
			seen[e.Kind]++
			if e.To != dist.CoordID {
				t.Errorf("%v event for site %d addressed to %d, want CoordID", e.Kind, e.Site, e.To)
			}
		}
	}
	// A partition outlasting the miss budget (dead, then rescinded), a
	// site crash with a cold takeover, and a coordinator crash with a
	// restored standby.
	sim.ScheduleDown(1, 2_000)
	sim.ScheduleUp(1, 2_000+10*model.HeartbeatEvery)
	_, fresh := track.NewDeterministic(k, eps)
	sim.ScheduleCrash(2, 8_000)
	sim.ScheduleTakeover(2, 8_000+8*model.HeartbeatEvery, fresh[2])
	st := stream.NewAssign(stream.BiasedWalk(n, 0.3, 29), stream.NewRoundRobin(k))
	for i := 0; ; i++ {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
		if i == 16_000 {
			snap, err := track.SnapshotCoord(coord)
			if err != nil {
				t.Fatal(err)
			}
			standby, _ := track.NewDeterministic(k, eps)
			if err := track.RestoreCoord(standby, snap); err != nil {
				t.Fatal(err)
			}
			sim.ScheduleCoordCrash(sim.Now() + 1)
			sim.ScheduleCoordTakeover(sim.Now()+8*model.HeartbeatEvery, standby)
		}
	}
	sim.Flush()
	for _, k := range []dist.EventKind{dist.EvHeartbeatMiss, dist.EvSiteDead, dist.EvSiteAlive,
		dist.EvSiteCrash, dist.EvTakeover, dist.EvCoordCrash, dist.EvCoordTakeover} {
		if seen[k] == 0 {
			t.Errorf("scenario emitted no %v event", k)
		}
	}
}
