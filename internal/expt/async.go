package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// Experiments E25–E27: the paper's guarantees under realistic network and
// failure conditions, on the fault-injecting asynchronous runtime
// (dist.AsyncSim). The synchronous per-step guarantee |f−f̂| ≤ ε·|f| cannot
// survive latency verbatim — every in-flight message is estimate error
// waiting to land — so these experiments measure how it degrades: staleness
// against latency (E25), violation rate against loss (E26), and recovery
// time against site churn (E27).

// asyncResult summarizes one AsyncSim tracking run with per-step checks.
type asyncResult struct {
	Steps      int64
	V          float64
	Stats      dist.Stats
	MaxRelErr  float64
	Violations int64
	FinalF     int64
	FinalEst   int64

	// RecoverTicks is the virtual time between rejoinAt and the first
	// subsequent step back inside the ε guarantee (−1 if it never
	// recovers, 0 if rejoinAt is 0 — no churn configured).
	RecoverTicks int64
	// ViolAfterRecovery counts guarantee violations after that first
	// back-in-bounds step: sustained recovery shows as 0 or near it.
	ViolAfterRecovery int64
	// MaxRelErrOutage is the worst relative error seen during [downAt,
	// rejoinAt) — how bad things got while partitioned.
	MaxRelErrOutage float64
	// MaxRelErrSettled is MaxRelErr restricted to steps with |f| > 4k —
	// away from zero crossings, where a single in-flight update can make
	// the raw relative error arbitrarily large and meaningless.
	MaxRelErrSettled float64
}

// runAsync drives st through a fresh AsyncSim under model, checking the
// estimate against the exact value after every update arrival, then
// flushes in-flight traffic. downAt/rejoinAt, when nonzero, partition site
// `churnSite` for that virtual-time window.
func runAsync(st stream.Stream, coord dist.CoordAlgo, sites []dist.SiteAlgo,
	eps float64, model dist.NetModel, seed uint64,
	churnSite int, downAt, rejoinAt int64) asyncResult {

	settleF := 4 * int64(len(sites))

	sim := dist.NewAsyncSim(coord, sites, model, seed)
	if rejoinAt > 0 {
		sim.ScheduleDown(churnSite, downAt)
		sim.ScheduleUp(churnSite, rejoinAt)
	}
	exact := core.NewTracker(0)
	res := asyncResult{RecoverTicks: -1}
	if rejoinAt == 0 {
		res.RecoverTicks = 0
	}
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
		exact.Update(u.Delta)
		res.Steps++
		f := exact.F()
		rel, violated := relErr(f, sim.Estimate(), eps)
		res.MaxRelErr = max(res.MaxRelErr, rel)
		if absDiff(f, 0) > settleF && rel > res.MaxRelErrSettled {
			res.MaxRelErrSettled = rel
		}
		if violated {
			res.Violations++
		}
		now := sim.Now()
		if rejoinAt > 0 && now >= downAt && now < rejoinAt && rel > res.MaxRelErrOutage {
			res.MaxRelErrOutage = rel
		}
		if rejoinAt > 0 && now >= rejoinAt {
			if res.RecoverTicks < 0 {
				if !violated {
					res.RecoverTicks = now - rejoinAt
				}
			} else if violated {
				res.ViolAfterRecovery++
			}
		}
	}
	sim.Flush()
	res.V = exact.V()
	res.Stats = sim.Stats()
	res.FinalF = exact.F()
	res.FinalEst = sim.Estimate()
	return res
}

// asyncBuilders returns the tracker families E25–E27 compare: both §3
// variability trackers and the naive forward-everything baseline, whose
// delta-carrying messages make it maximally fragile to loss.
func asyncBuilders() []struct {
	Name  string
	Build track.Builder
} {
	bs := track.Builders()
	return []struct {
		Name  string
		Build track.Builder
	}{
		{"det", bs["det"]},
		{"rand", bs["rand"]},
		{"naive", bs["naive"]},
	}
}

// E25AsyncStaleness measures estimate staleness and guarantee degradation
// against link latency. Latency 0 is the synchronous model (violations
// must match Sim: zero for det); thereafter staleness grows linearly with
// latency while the violation fraction stays modest — the estimate is
// late, not wrong.
func E25AsyncStaleness(cfg Config) *Table {
	t := NewTable("E25", "async runtime: estimate staleness and violations vs link latency",
		"tracker", "latency", "n", "msgs", "avg stale", "max stale", "max err (|f|>4k)", "viol frac")
	const k, eps = 8, 0.1
	n := cfg.scale(120_000)
	models := []dist.NetModel{
		{Latency: 0}, {Latency: 2}, {Latency: 8}, {Latency: 32}, {Latency: 128},
	}
	if cfg.Net != nil {
		models = append(models, *cfg.Net)
	}
	for _, b := range asyncBuilders() {
		for _, m := range models {
			coord, sites := b.Build(k, eps, cfg.Seed+99)
			st := stream.NewAssign(stream.BiasedWalk(n, 0.2, cfg.Seed), stream.NewRoundRobin(k))
			res := runAsync(st, coord, sites, eps, m, cfg.Seed+7, 0, 0, 0)
			t.AddStats(res.Stats)
			t.AddRow(b.Name, d(m.Latency), d(res.Steps), d(res.Stats.Total()),
				f1(res.Stats.AvgStaleness()), d(res.Stats.StalenessMax),
				f4(res.MaxRelErrSettled), pct(float64(res.Violations)/float64(res.Steps)))
		}
	}
	t.AddNote("latency 0 is the synchronous model: det must show zero violations (Sim equivalence)")
	t.AddNote("staleness is virtual ticks from a message's send to its effect on Estimate();")
	t.AddNote("one update arrives per tick, so max stale ≈ how many updates the estimate can lag;")
	t.AddNote("max err excludes |f| ≤ 4k, where one in-flight update dwarfs |f| at any latency")
	return t
}

// E26AsyncDrops measures the guarantee violation rate against iid message
// loss, with and without bounded retransmission. The §3 trackers report
// absolute values, so a delivered report fully heals earlier losses; the
// naive baseline forwards deltas and corrupts permanently.
func E26AsyncDrops(cfg Config) *Table {
	t := NewTable("E26", "async runtime: guarantee violation rate vs drop probability",
		"tracker", "drop", "retrans", "msgs", "dropped", "retransmitted", "max err (|f|>4k)", "viol frac")
	const k, eps = 8, 0.1
	n := cfg.scale(120_000)
	type cell struct {
		drop    float64
		retrans int
	}
	cells := []cell{
		{0, 0}, {0.01, 0}, {0.05, 0}, {0.20, 0},
		{0.05, 3}, {0.20, 3},
	}
	models := make([]dist.NetModel, 0, len(cells)+1)
	for _, c := range cells {
		models = append(models, dist.NetModel{Latency: 2, Drop: c.drop, Retrans: c.retrans})
	}
	if cfg.Net != nil {
		// The -net model joins the sweep as one extra configuration, all
		// knobs honored; its drop/retrans columns come from the model.
		models = append(models, *cfg.Net)
	}
	for _, b := range asyncBuilders() {
		for _, m := range models {
			coord, sites := b.Build(k, eps, cfg.Seed+99)
			st := stream.NewAssign(stream.BiasedWalk(n, 0.2, cfg.Seed), stream.NewRoundRobin(k))
			res := runAsync(st, coord, sites, eps, m, cfg.Seed+11, 0, 0, 0)
			t.AddStats(res.Stats)
			t.AddRow(b.Name, g3(m.Drop), di(m.Retrans), d(res.Stats.Delivered()),
				d(res.Stats.Dropped), d(res.Stats.Retransmitted),
				f4(res.MaxRelErrSettled), pct(float64(res.Violations)/float64(res.Steps)))
		}
	}
	t.AddNote("det/rand reports carry absolute state: the next delivery after a loss heals it,")
	t.AddNote("so the violation fraction tracks the loss rate instead of accumulating; the naive")
	t.AddNote("baseline forwards deltas — every loss corrupts its estimate forever (drop .2 row).")
	t.AddNote("retrans=0 message blow-up: one lost state request/reply wedges the §3.1 collection,")
	t.AddNote("freezing the block exponent — thresholds stay tight (accurate but chatty). Bounded")
	t.AddNote("retransmission is what keeps the partition protocol itself alive under loss.")
	return t
}

// E27AsyncChurn partitions the heaviest site of a skewed assignment for a
// window of virtual time and measures how bad the estimate gets during the
// outage and how fast the resync handshake (dist.SiteRejoiner /
// dist.CoordRejoiner, see track.BlockSite) restores the guarantee after
// rejoin. The skew matters: the partitioned site carries most of the
// stream, so its lost reports genuinely break the guarantee instead of
// hiding inside the other sites' slack.
func E27AsyncChurn(cfg Config) *Table {
	t := NewTable("E27", "async runtime: heavy-site churn — outage degradation and recovery time",
		"tracker", "outage ticks", "dropped", "max err (outage)", "viol frac", "recover ticks", "viol after recovery")
	const k, eps = 8, 0.1
	n := cfg.scale(120_000)
	outages := []int64{n / 20, n / 4}
	type netCase struct {
		label string
		model dist.NetModel
	}
	nets := []netCase{{"", dist.NetModel{Latency: 2}}}
	if cfg.Net != nil {
		// The -net model adds a second pass over the sweep; the built-in
		// baseline rows stay for comparison.
		nets = append(nets, netCase{" (" + cfg.Net.String() + ")", *cfg.Net})
	}
	for _, b := range asyncBuilders() {
		for _, nc := range nets {
			for _, outage := range outages {
				m := nc.model
				downAt := n / 3 * m.Gap()
				coord, sites := b.Build(k, eps, cfg.Seed+99)
				// Skewed (zipf s=2) assignment concentrates the stream on
				// site 0 — the site we partition.
				st := stream.NewAssign(stream.BiasedWalk(n, 0.3, cfg.Seed),
					stream.NewSkewed(k, 2.0, cfg.Seed+5))
				res := runAsync(st, coord, sites, eps, m, cfg.Seed+13,
					0, downAt, downAt+outage*m.Gap())
				t.AddStats(res.Stats)
				rec := "never"
				if res.RecoverTicks >= 0 {
					rec = fmt.Sprintf("%d", res.RecoverTicks)
				}
				t.AddRow(b.Name, d(outage)+nc.label, d(res.Stats.Dropped),
					f4(res.MaxRelErrOutage), pct(float64(res.Violations)/float64(res.Steps)),
					rec, d(res.ViolAfterRecovery))
			}
		}
	}
	t.AddNote("recover ticks: virtual time from rejoin to the first step back inside ε·|f|;")
	t.AddNote("the rejoin resync (block identity + absolute state + late state-reply fold) is")
	t.AddNote("what heals det/rand immediately; the naive baseline's lost deltas are never")
	t.AddNote("resent — it re-enters ε only once post-outage growth dilutes the stale offset")
	return t
}
