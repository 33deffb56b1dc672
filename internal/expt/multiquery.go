package expt

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/freq"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/track"
)

// Experiments E28–E29: the multi-query monitoring engine (internal/query).
// E28 prices multiplexing Q concurrent queries over one shared runtime
// against Q separate deployments; E29 measures how fast a query attached
// mid-stream becomes useful, as a function of the attach point and the
// network model.

// e28Mix returns the first q specs of the standard mixed workload: two
// deterministic trackers at different ε, a randomized one, and a frequency
// tracker, cycling.
func e28Mix(q int, seed uint64) []query.Spec {
	base := []query.Spec{
		{Algo: "det", Eps: 0.1},
		{Algo: "rand", Eps: 0.05},
		{Algo: "freq", Eps: 0.2},
		{Algo: "det", Eps: 0.02},
	}
	specs := make([]query.Spec, q)
	for i := range specs {
		specs[i] = base[i%len(base)]
		specs[i].Seed = seed + uint64(i)
	}
	return specs
}

// E28MuxAmortization compares Q tracking queries multiplexed on one engine
// (one runtime, one stream pass, k sockets) against Q separate standalone
// deployments (Q runtimes, Q stream passes, Q·k sockets). The engine's
// per-query isolation means message counts and wire bytes are identical by
// construction — what the mux costs is the query-id tag inside the routing
// field, visible only in the compact-bit model, and what it saves is the
// duplicated infrastructure. The per-query split comes from the
// dist.Classifier stats, so the table is also a demonstration that the
// engine's cost attribution is exact.
func E28MuxAmortization(cfg Config) *Table {
	t := NewTable("E28", "multi-query engine: Q muxed queries vs Q separate deployments",
		"Q", "msgs(mux)", "msgs(sep)", "bytes(mux)", "bytes(sep)",
		"cbits(mux)", "cbits(sep)", "tag overhead", "stream passes", "attribution")
	const k = 8
	n := cfg.scale(200_000)
	ups := stream.Collect(stream.NewAssign(
		stream.NewItemGen(n, 1024, 1.2, 0.2, cfg.Seed), stream.NewRoundRobin(k)))
	buf := make([]stream.Update, 256)

	for _, q := range []int{1, 2, 4, 8, 16, 32} {
		specs := e28Mix(q, cfg.Seed+100)

		eng, esites, err := query.New(k, specs)
		if err != nil {
			panic(err)
		}
		mux := dist.NewSim(eng, esites)
		mux.SetClassifier(eng)
		mux.RunBatch(stream.NewSlice(ups), buf, 0, nil)
		muxStats := mux.Stats()

		var sep dist.Stats
		exact := true
		classStats := mux.ClassStats()
		for qi, spec := range specs {
			coord, sites := standaloneFor(k, spec)
			sim := dist.NewSim(coord, sites)
			sim.RunBatch(stream.NewSlice(ups), buf, 0, nil)
			s := sim.Stats()
			sep.SiteToCoord += s.SiteToCoord
			sep.CoordToSite += s.CoordToSite
			sep.Bytes += s.Bytes
			sep.CompactBits += s.CompactBits
			// Per-query attribution check: the engine's class stats must
			// reproduce the standalone deployment's message count exactly.
			if qi < len(classStats) && classStats[qi].Total() != s.Total() {
				exact = false
			}
		}

		t.AddStats(muxStats)
		t.AddStats(sep)
		overhead := float64(muxStats.CompactBits-sep.CompactBits) / float64(sep.CompactBits)
		t.AddRow(di(q), d(muxStats.Total()), d(sep.Total()),
			d(muxStats.Bytes), d(sep.Bytes),
			d(muxStats.CompactBits), d(sep.CompactBits),
			pct(overhead), fmt.Sprintf("1 vs %d", q), b(exact))
	}
	t.AddNote("per-query isolation makes mux message counts and wire bytes equal the separate deployments exactly;")
	t.AddNote("the compact-bit tag overhead is the entire mux cost, against 1/Q of the runtimes, sockets, and stream passes.")
	t.AddNote("the tag rides the varint routing field, so it is free until Q·k virtual nodes outgrow one 7-bit group")
	t.AddNote("(Q·k > 64 here): the overhead column only turns positive at Q = 16 and stays in the low percent.")
	t.AddNote("attribution=true: per-query Classifier stats reproduce each standalone deployment's message count exactly.")
	return t
}

// standaloneFor builds the bare tracker a spec describes (the engine's
// child, deployed alone).
func standaloneFor(k int, spec query.Spec) (dist.CoordAlgo, []dist.SiteAlgo) {
	switch spec.Algo {
	case "det":
		return track.NewDeterministic(k, spec.Eps)
	case "rand":
		return track.NewRandomized(k, spec.Eps, spec.Seed)
	case "freq":
		return standaloneFreq(k, spec.Eps)
	}
	panic("E28: unknown algo " + spec.Algo)
}

// standaloneFreq builds a bare exact-counter frequency tracker.
func standaloneFreq(k int, eps float64) (dist.CoordAlgo, []dist.SiteAlgo) {
	tr, sites := freq.New(k, eps, freq.ExactMapper{})
	return tr, sites
}

// E29DynamicAttach registers a fresh deterministic query at 10%, 50%, and
// 90% of the stream, on networks from perfect to lossy, and measures how
// long the query takes to become useful: the attach announcement and the
// history bootstrap (count report → state collection) travel through the
// modeled network, so latency stretches the convergence window and an
// unlucky drop of the announcement leaves a site dark until a
// retransmission or resync heals it. Steps-to-ε counts updates from the
// attach to the first estimate inside the ε band; the attach cost column
// is the new query's own traffic, split out by the per-query stats.
func E29DynamicAttach(cfg Config) *Table {
	t := NewTable("E29", "multi-query engine: mid-stream attach convergence vs attach point and network",
		"net", "attach@", "steps to ε", "ticks to ε", "viol after ‰", "attach msgs", "dropped", "final ok")
	const k, eps = 6, 0.1
	n := cfg.scale(100_000)

	nets := []struct {
		name  string
		model dist.NetModel
	}{
		{"zero", dist.NetModel{}},
		{"lat8", dist.NetModel{Latency: 8, Jitter: 2}},
		{"drop5%+rt3", dist.NetModel{Latency: 4, Jitter: 2, Drop: 0.05, Retrans: 3}},
	}
	if cfg.Net != nil {
		nets = append(nets, struct {
			name  string
			model dist.NetModel
		}{cfg.Net.String(), *cfg.Net})
	}

	for _, net := range nets {
		for _, frac := range []float64{0.1, 0.5, 0.9} {
			attachAt := int64(float64(n) * frac)
			st := stream.NewAssign(stream.RandomWalk(n, cfg.Seed+5), stream.NewRoundRobin(k))

			eng, esites, err := query.New(k, []query.Spec{{Algo: "det", Eps: eps}})
			if err != nil {
				panic(err)
			}
			sim := dist.NewAsyncSim(eng, esites, net.model, cfg.Seed+9)
			sim.SetClassifier(eng)

			var qid int
			var f, steps int64
			var attachTick int64
			stepsToEps, ticksToEps := int64(-1), int64(-1)
			var violAfter, after int64
			for {
				u, ok := st.Next()
				if !ok {
					break
				}
				sim.Step(u)
				f += u.Delta
				steps++
				if steps == attachAt {
					sim.Inject(func(out dist.Outbox) {
						qid, err = eng.Attach(query.Spec{Algo: "det", Eps: eps}, out)
						if err != nil {
							panic(err)
						}
					})
					attachTick = sim.Now()
				}
				if steps > attachAt {
					est, _ := eng.EstimateQuery(qid)
					in := float64(absDiff(f, est)) <= eps*absF(f)+1e-9
					if stepsToEps < 0 {
						if in {
							stepsToEps = steps - attachAt
							ticksToEps = sim.Now() - attachTick
						}
					} else {
						after++
						if !in {
							violAfter++
						}
					}
				}
			}
			sim.Flush()
			t.AddStats(sim.Stats())
			est, _ := eng.EstimateQuery(qid)
			finalOK := float64(absDiff(f, est)) <= eps*absF(f)+1e-9
			cs := sim.ClassStats()
			var atkMsgs, atkDrop int64
			if qid < len(cs) {
				atkMsgs, atkDrop = cs[qid].Total(), cs[qid].Dropped
			}
			tte, ttt := "never", "-"
			if stepsToEps >= 0 {
				tte, ttt = d(stepsToEps), d(ticksToEps)
			}
			t.AddRow(net.name, pct(frac), tte, ttt, f1(1000*frac0(violAfter, after)),
				d(atkMsgs), d(atkDrop), b(finalOK))
		}
	}
	t.AddNote("attach bootstraps history through the resync machinery and immediately drives a state collection,")
	t.AddNote("so on a perfect network the first post-attach estimate is already exact (steps to ε = 1).")
	t.AddNote("viol-after is staleness, not bootstrap error: early attaches leave the random walk near zero,")
	t.AddNote("where any in-flight message breaks the relative band (cf. E25); the base query violates alike.")
	return t
}

// frac0 is a/b with 0 for an empty denominator.
func frac0(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// absF returns |x| as a float64.
func absF(x int64) float64 {
	if x < 0 {
		x = -x
	}
	return float64(x)
}
