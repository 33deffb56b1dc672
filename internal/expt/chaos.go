package expt

import (
	"fmt"
	"strings"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/track"
)

// Experiment E32: chaos-schedule invariant harness. A seeded schedule
// generator composes the fault repertoire the runtime has grown — site
// crashes with warm takeover, coordinator crashes with a warm standby,
// and partition windows — into randomized schedules over a lossy,
// jittered AsyncSim, one fault per stream segment. After quiescence a
// fixed invariant set must hold for every schedule: each query's final
// estimate inside its ε bound, wire-byte accounting exactly
// Total()·MsgSize, the per-query Stats tables summing exactly to the
// aggregate (StalenessMax as a maximum), EpochDrops never exceeding
// Dropped, and the takeover counters matching the schedule — which
// together rule out a message from a dead incarnation having been folded
// into algorithm state. The harness is the PR's safety net: any fault
// composition the individual crash tests missed has to break one of
// these invariants to matter, and this is where it would surface.

// Fault kinds composed by a chaos schedule.
const (
	chaosSiteCrash = iota
	chaosCoordCrash
	chaosPartition
)

var chaosKindNames = [...]string{"site-crash", "coord-crash", "partition"}

// chaosFault is one scheduled fault: it fires when the drive loop reaches
// step index at. Site crashes and coordinator crashes heal by a warm
// takeover 8 heartbeat periods after the crash tick; a partition heals
// after window ticks.
type chaosFault struct {
	kind   int
	site   int   // victim site (site-crash, partition)
	at     int   // step index at which the fault fires
	window int64 // partition width in ticks
}

// chaosSchedule draws one fault per stream segment: a kind, a victim
// site, a fire offset inside the segment's first half (so the heal —
// bounded by 16 heartbeat periods — completes well before the next
// segment's fault), and a partition width in [4, 12] heartbeat periods.
//
// The segments divide the first HALF of the stream; the second half is a
// fault-free runway. Every heal path re-baselines exactly at the next
// completed collection (surrendered late replies and resync re-sends fold
// there), but a fault landing inside the stream's final block leaves its
// transient in-block slack un-rebaselined at quiescence — block lengths
// grow geometrically, so no runway suffix shorter than the fault's own
// position guarantees another boundary. Half the stream does. The ε
// invariant stays sharp and still catches permanent leaks: f(n_j) is
// accumulated from site-reported deltas, so mass a broken heal loses
// (e.g. a cold restart's uncollected in-block state) stays lost across
// every later boundary — E31 is the demonstration.
func chaosSchedule(r *rng.Xoshiro256, k, n, segments int, hb int64) []chaosFault {
	faults := make([]chaosFault, 0, segments)
	seg := n / 2 / segments
	for s := 0; s < segments; s++ {
		f := chaosFault{
			kind:   r.Intn(3),
			site:   r.Intn(k),
			at:     s*seg + seg/8 + r.Intn(seg/4),
			window: (4 + r.Int63n(9)) * hb,
		}
		faults = append(faults, f)
	}
	return faults
}

// chaosOutcome is the measurement and verdict of one schedule.
type chaosOutcome struct {
	counts    [3]int
	stats     dist.Stats
	maxRelErr float64
	// randOverEps counts randomized queries whose final estimate exceeds
	// their strict ε bound. §3.4's guarantee is P(|f−f̂| > ε|f|) < 1/3 per
	// step, so a single endpoint over ε is within contract — it becomes a
	// violation only in aggregate (the soak bounds the fraction) or past
	// the hard 3ε backstop.
	randOverEps int
	violations  []string
}

func (o *chaosOutcome) check(cond bool, format string, args ...any) {
	if !cond {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// chaosDrive runs one schedule over a Q-query engine on AsyncSim and
// checks the invariant set after quiescence. Every takeover is warm:
// site replacements restore the victim's snapshot taken one tick before
// the crash, standby coordinators restore a coordinator snapshot taken
// at schedule time — the deployment discipline the rest of the PR argues
// for, and the one under which ε must survive any schedule.
func chaosDrive(ups []stream.Update, k int, specs []query.Spec,
	model dist.NetModel, seed uint64, faults []chaosFault) chaosOutcome {
	eng, esites, err := query.New(k, specs)
	if err != nil {
		panic(err)
	}
	sim := dist.NewAsyncSim(eng, esites, model, seed)
	sim.SetClassifier(eng)
	coord := eng
	hb := model.HeartbeatEvery
	var out chaosOutcome
	var f int64
	next := 0
	for i, u := range ups {
		f += u.Delta
		sim.Step(u)
		if next < len(faults) && i == faults[next].at {
			fl := faults[next]
			next++
			out.counts[fl.kind]++
			fire := sim.Now() + 1
			switch fl.kind {
			case chaosSiteCrash:
				fresh := coord.RebuildSite(fl.site)
				snap, err := track.SnapshotSite(esites[fl.site])
				if err != nil {
					panic(err)
				}
				if err := track.RestoreSite(fresh, snap); err != nil {
					panic(err)
				}
				sim.ScheduleCrash(fl.site, fire)
				sim.ScheduleTakeover(fl.site, fire+8*hb, fresh)
				esites[fl.site] = fresh
			case chaosCoordCrash:
				snap, err := track.SnapshotCoord(coord)
				if err != nil {
					panic(err)
				}
				fresh, _, err := query.New(k, specs)
				if err != nil {
					panic(err)
				}
				if err := track.RestoreCoord(fresh, snap); err != nil {
					panic(err)
				}
				sim.ScheduleCoordCrash(fire)
				sim.ScheduleCoordTakeover(fire+8*hb, fresh)
				coord = fresh
			case chaosPartition:
				sim.ScheduleDown(fl.site, fire)
				sim.ScheduleUp(fl.site, fire+fl.window)
			}
		}
	}
	sim.Flush()
	st := sim.Stats()
	out.stats = st

	// Invariant: every query's final estimate meets its guarantee — warm
	// takeovers and rejoin resyncs must have healed whatever each fault
	// broke. Deterministic queries get the sharp §3.3 bound; randomized
	// queries get a hard 3ε backstop here (their §3.4 bound is
	// probabilistic per endpoint, P < 1/3 of exceeding ε) and the strict-ε
	// excursions are counted for the soak's aggregate-fraction check.
	for qid, spec := range specs {
		est, ok := coord.EstimateQuery(qid)
		out.check(ok, "query %d vanished", qid)
		if !ok {
			continue
		}
		rel := 0.0
		if absF(f) > 0 {
			rel = float64(absDiff(f, est)) / absF(f)
		}
		if rel > out.maxRelErr {
			out.maxRelErr = rel
		}
		overEps := float64(absDiff(f, est)) > spec.Eps*absF(f)+1e-9
		if spec.Algo == "rand" {
			if overEps {
				out.randOverEps++
			}
			out.check(float64(absDiff(f, est)) <= 3*spec.Eps*absF(f)+1e-9,
				"rand query %d outside 3ε: |%d−%d| > 3·%.3g·|f|", qid, est, f, spec.Eps)
		} else {
			out.check(!overEps,
				"query %d outside ε: |%d−%d| > %.3g·|f|", qid, est, f, spec.Eps)
		}
	}

	// Invariant: byte accounting is exact — every delivered message is
	// MsgSize wire bytes, nothing else touches the counter.
	out.check(st.Bytes == st.Total()*dist.MsgSize,
		"bytes %d ≠ %d messages · %d", st.Bytes, st.Total(), dist.MsgSize)

	// Invariant: the per-query tables sum exactly to the aggregate on
	// every message counter, drops and EpochDrops included; StalenessMax
	// aggregates as a maximum. Class tables never carry the liveness
	// counters, so merging them leaves those at zero.
	var sum dist.Stats
	for _, cs := range sim.ClassStats() {
		sum.Merge(cs)
	}
	agg := st.WithoutLiveness()
	agg.EpochDrops = st.EpochDrops // EpochDrops is per-class, not liveness-only
	out.check(sum == agg, "per-query stats sum %+v ≠ aggregate %+v", sum, agg)

	// Invariant: incarnation losses are a subset of all losses, and the
	// takeover counters match the schedule exactly — no phantom or missed
	// splice, no dead-epoch message folded in silently.
	out.check(st.EpochDrops <= st.Dropped,
		"EpochDrops %d > Dropped %d", st.EpochDrops, st.Dropped)
	out.check(st.Takeovers == int64(out.counts[chaosSiteCrash]),
		"takeovers %d ≠ %d site crashes", st.Takeovers, out.counts[chaosSiteCrash])
	out.check(st.CoordTakeovers == int64(out.counts[chaosCoordCrash]),
		"coord takeovers %d ≠ %d coord crashes", st.CoordTakeovers, out.counts[chaosCoordCrash])
	out.check(st.HeartbeatsRecv <= st.HeartbeatsSent,
		"heartbeats received %d > sent %d", st.HeartbeatsRecv, st.HeartbeatsSent)
	out.check(!sim.CoordCrashed(), "coordinator still crashed after quiescence")
	return out
}

// chaosSpecs is the query mix every schedule runs under: three
// f-tracking queries with distinct ε budgets, so the ε invariant is
// checked at three tightnesses per schedule and the per-query sum
// invariant has a nontrivial table.
func chaosSpecs(seed uint64) []query.Spec {
	return []query.Spec{
		{Algo: "det", Eps: 0.1},
		{Algo: "rand", Eps: 0.1, Seed: seed + 41},
		{Algo: "det", Eps: 0.05},
	}
}

// chaosModel is the fault model every schedule runs over: latency and
// jitter to keep traffic in flight across fault boundaries, iid loss with
// a retransmission budget deep enough that unrecoverable loss comes from
// the schedule's faults rather than the coin, and heartbeat detection on.
var chaosModel = dist.NetModel{
	Latency: 2, Jitter: 3, Drop: 0.03, Retrans: 6,
	HeartbeatEvery: 32, HeartbeatMiss: 3,
}

// chaosRun generates and drives one seeded schedule.
func chaosRun(seed uint64, k, n, segments int) ([]chaosFault, chaosOutcome) {
	r := rng.New(seed)
	faults := chaosSchedule(r, k, n, segments, chaosModel.HeartbeatEvery)
	ups := stream.Collect(stream.NewAssign(
		stream.BiasedWalk(int64(n), 0.25, seed+7), stream.NewSkewed(k, 1.3, seed+11)))
	return faults, chaosDrive(ups, k, chaosSpecs(seed), chaosModel, seed+13, faults)
}

// chaosScheduleString renders a schedule compactly: kind initials in
// firing order, e.g. "s c p s c p".
func chaosScheduleString(faults []chaosFault) string {
	parts := make([]string, len(faults))
	for i, f := range faults {
		parts[i] = chaosKindNames[f.kind][:1]
	}
	return strings.Join(parts, " ")
}

// E32ChaosSchedules runs seeded randomized fault schedules and reports
// the invariant verdict per schedule. Every row must end "ok": the table
// is a regression tripwire, not a measurement — the interesting columns
// (drops, epoch drops, takeovers) exist so a future failure comes with
// its accounting attached.
func E32ChaosSchedules(cfg Config) *Table {
	t := NewTable("E32", "chaos schedules: composed crash/takeover/partition faults vs the invariant set",
		"seed", "schedule", "site tk", "coord tk", "dropped", "epoch drops",
		"retrans", "max rel err", "rand >ε", "invariants")
	const k, segments = 4, 6
	n := int(cfg.scale(90_000))
	seeds := cfg.trials(20)
	for s := 0; s < seeds; s++ {
		seed := cfg.Seed + uint64(s)*101
		faults, out := chaosRun(seed, k, n, segments)
		t.AddStats(out.stats)
		verdict := "ok"
		if len(out.violations) > 0 {
			verdict = out.violations[0]
		}
		t.AddRow(d(int64(seed)), chaosScheduleString(faults),
			d(out.stats.Takeovers), d(out.stats.CoordTakeovers),
			d(out.stats.Dropped), d(out.stats.EpochDrops),
			d(out.stats.Retransmitted), f4(out.maxRelErr),
			di(out.randOverEps), verdict)
	}
	t.AddNote("%d seeded schedules, %d segments each, one fault per segment (s = site crash + warm", seeds, segments)
	t.AddNote("takeover, c = coordinator crash + warm standby, p = partition window of 4–12 heartbeat")
	t.AddNote("periods), over net %s.", chaosModel.String())
	t.AddNote("invariants, checked after quiescence: deterministic queries inside sharp ε, randomized")
	t.AddNote("inside 3ε (their §3.4 bound is P < 1/3 of exceeding ε per endpoint; strict-ε excursions")
	t.AddNote("are counted and their fraction bounded by the soak); Bytes = Total·MsgSize; per-query")
	t.AddNote("Stats sum exactly to the aggregate (StalenessMax as max); EpochDrops ≤ Dropped;")
	t.AddNote("Takeovers/CoordTakeovers equal the schedule's crash counts; heartbeats recv ≤ sent.")
	return t
}
