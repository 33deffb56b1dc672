package expt

import (
	"math"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/track"
)

// assignRR wraps a generator with round-robin assignment.
func assignRR(st stream.Stream, k int) stream.Stream {
	return stream.NewAssign(st, stream.NewRoundRobin(k))
}

// engineRouted deploys a tracker as a Q = 1 multi-query engine — the
// deployment the det/rand tracking experiments measure since PR 6, so the
// committed timings price the engine's demux and fan-out in. The Q = 1
// byte-identity anchor (TestEngineQ1ByteIdentical) guarantees the table
// numbers are unchanged from the standalone deployment; only wall clock
// can move, which is what BENCH_pr6.json documents.
func engineRouted(k int, spec query.Spec) (dist.CoordAlgo, []dist.SiteAlgo) {
	coord, sites, err := query.New(k, []query.Spec{spec})
	if err != nil {
		panic(err)
	}
	return coord, sites
}

// E05Partitioning reproduces the §3.1 facts: the block partition costs at
// most 5k messages per block and ≤ 25kv+3k overall, and the variability
// gain per interior block is bounded below by a constant.
func E05Partitioning(cfg Config) *Table {
	t := NewTable("E05", "time partitioning: blocks, messages, Δv per block",
		"stream", "k", "n", "v(n)", "blocks", "≤10v+1", "msgs", "bound 25kv+3k", "min Δv")
	n := cfg.scale(200_000)
	for _, k := range []int{4, 16} {
		for _, c := range stream.Classes() {
			coord, sites := engineRouted(k, query.Spec{Algo: "det", Eps: 0.5}) // wide ε: partition cost dominates
			res := track.Run(c.Name, assignRR(c.Make(n, cfg.Seed), k), coord, sites, 0.5)
			minDV := math.Inf(1)
			prev := 0.0
			for _, v := range res.BlockV {
				if dv := v - prev; dv < minDV {
					minDV = dv
				}
				prev = v
			}
			if len(res.BlockV) == 0 {
				minDV = 0
			}
			t.AddRow(c.Name, di(k), d(res.Steps), f1(res.V), d(res.Blocks),
				b(float64(res.Blocks) <= bound.BlocksUpperSafe(res.V)),
				d(res.Stats.Total()), f1(bound.DetMessages(k, 0.5, res.V)), f3(minDV))
		}
	}
	t.AddNote("paper states Δv ≥ 1/5 per block; the provable constant is 1/10 for r ≥ 1 blocks")
	return t
}

// E06Deterministic reproduces §3.3: the deterministic tracker satisfies the
// ε guarantee at every step and uses O((k/ε)·v) messages.
func E06Deterministic(cfg Config) *Table {
	t := NewTable("E06", "deterministic tracker: msgs ≤ O(kv/ε), zero violations",
		"stream", "k", "ε", "v(n)", "msgs", "bound", "msgs/bound", "max rel err", "violations")
	n := cfg.scale(200_000)
	for _, c := range stream.Classes() {
		for _, k := range []int{4, 16} {
			for _, eps := range []float64{0.1, 0.02} {
				coord, sites := engineRouted(k, query.Spec{Algo: "det", Eps: eps})
				res := track.Run(c.Name, assignRR(c.Make(n, cfg.Seed), k), coord, sites, eps)
				bd := bound.DetMessages(k, eps, res.V)
				t.AddRow(c.Name, di(k), g3(eps), f1(res.V), d(res.Stats.Total()),
					f1(bd), f3(float64(res.Stats.Total())/bd), f4(res.MaxRelErr), d(res.Violations))
			}
		}
	}
	t.AddNote("violations must be 0 (deterministic guarantee, §3.3); msgs/bound ≤ 1")
	t.AddNote("message size: %s", bitsPerMsgNote(cfg))
	return t
}

// bitsPerMsgNote measures the compact-encoding cost per message on a
// representative run — the paper's "messages of O(log n) bits" unit.
func bitsPerMsgNote(cfg Config) string {
	k, eps := 8, 0.1
	coord, sites := track.NewDeterministic(k, eps)
	res := track.Run("bits", assignRR(stream.BiasedWalk(cfg.scale(100_000), 0.3, cfg.Seed), k), coord, sites, eps)
	perMsg := float64(res.Stats.CompactBits) / float64(res.Stats.Total())
	return fmtBits(perMsg)
}

func fmtBits(perMsg float64) string {
	return f1(perMsg) + " bits/message varint-encoded (O(log n + log f), §1 model)"
}

// E07Randomized reproduces §3.4: the randomized tracker violates the ε
// guarantee on at most 1/3 of steps and uses O((k+√k/ε)·v) messages.
func E07Randomized(cfg Config) *Table {
	t := NewTable("E07", "randomized tracker: msgs ≤ O((k+√k/ε)v), P(err>εf) < 1/3",
		"stream", "k", "ε", "v(n)", "msgs", "E-bound", "msgs/bound", "violation frac")
	n := cfg.scale(200_000)
	for _, c := range stream.Classes() {
		for _, k := range []int{16, 64} {
			for _, eps := range []float64{0.1, 0.02} {
				coord, sites := engineRouted(k, query.Spec{Algo: "rand", Eps: eps, Seed: cfg.Seed + uint64(k)})
				res := track.Run(c.Name, assignRR(c.Make(n, cfg.Seed), k), coord, sites, eps)
				bd := bound.RandMessagesExpected(k, eps, res.V)
				t.AddRow(c.Name, di(k), g3(eps), f1(res.V), d(res.Stats.Total()),
					f1(bd), f3(float64(res.Stats.Total())/bd), pct(res.ViolationFrac()))
			}
		}
	}
	t.AddNote("violation fraction must stay below 33.3%% (Chebyshev gives < 1/3 per step)")
	return t
}

// E08MonotoneReduction reproduces the §2 remark that on monotone input the
// variability trackers recover the classical monotone-counter costs:
// O((k/ε)·log n) deterministic (CMY) and O((k+√k/ε)·log n) randomized (HYZ).
func E08MonotoneReduction(cfg Config) *Table {
	t := NewTable("E08", "monotone input: variability trackers vs monotone-only baselines",
		"k", "ε", "n", "det msgs", "CMY msgs", "det/CMY", "rand msgs", "HYZ msgs", "rand/HYZ")
	n := cfg.scale(400_000)
	for _, k := range []int{4, 16} {
		for _, eps := range []float64{0.1, 0.02} {
			run := func(coord dist.CoordAlgo, sites []dist.SiteAlgo) track.Result {
				return track.Run("monotone", assignRR(stream.Monotone(n), k), coord, sites, eps)
			}
			bs := track.Builders()
			det := run(engineRouted(k, query.Spec{Algo: "det", Eps: eps}))
			cmy := run(bs["cmy"](k, eps, cfg.Seed))
			rnd := run(engineRouted(k, query.Spec{Algo: "rand", Eps: eps, Seed: cfg.Seed + 1}))
			hyz := run(bs["hyz"](k, eps, cfg.Seed+2))
			t.AddRow(di(k), g3(eps), d(n),
				d(det.Stats.Total()), d(cmy.Stats.Total()), f2(float64(det.Stats.Total())/float64(cmy.Stats.Total())),
				d(rnd.Stats.Total()), d(hyz.Stats.Total()), f2(float64(rnd.Stats.Total())/float64(hyz.Stats.Total())))
		}
	}
	t.AddNote("ratios should be O(1): monotone streams have v = O(log n), so the variability")
	t.AddNote("trackers' O((k/ε)v) collapses to the baselines' O((k/ε)log n)")
	return t
}

// E09VsLRV reproduces the §2 remark contrasting worst-case-in-v bounds with
// Liu et al.'s expected bounds on fair coin flips: our trackers' costs on
// random walks land at the same O(√n·log n) shape.
func E09VsLRV(cfg Config) *Table {
	t := NewTable("E09", "fair-coin input: worst-case-in-v trackers vs LRV-style",
		"k", "ε", "n", "E[v]", "det msgs", "rand msgs", "LRV msgs", "LRV bound (√k/ε·√n·ln n)")
	n := cfg.scale(200_000)
	k := 16
	for _, eps := range []float64{0.1, 0.05} {
		run := func(coord dist.CoordAlgo, sites []dist.SiteAlgo) track.Result {
			return track.Run("walk", assignRR(stream.RandomWalk(n, cfg.Seed), k), coord, sites, eps)
		}
		bs := track.Builders()
		det := run(engineRouted(k, query.Spec{Algo: "det", Eps: eps}))
		rnd := run(engineRouted(k, query.Spec{Algo: "rand", Eps: eps, Seed: cfg.Seed + 1}))
		lrv := run(bs["lrv"](k, eps, cfg.Seed+2))
		t.AddRow(di(k), g3(eps), d(n), f1(det.V),
			d(det.Stats.Total()), d(rnd.Stats.Total()), d(lrv.Stats.Total()),
			f1(bound.LRVFairCoinMessagesExpected(k, eps, n)))
	}
	t.AddNote("our bounds hold for EVERY stream with this v; LRV's only in expectation over inputs")
	return t
}

// E10SingleSite reproduces appendix I: with k = 1, any aggregate is tracked
// with ≤ (1+ε)/ε·v + (zero/sign-crossing steps) messages.
func E10SingleSite(cfg Config) *Table {
	t := NewTable("E10", "single-site aggregates: msgs ≤ (1+ε)/ε·v + crossings",
		"stream", "ε", "v(n)", "crossings", "msgs", "bound", "max rel err", "violations")
	n := cfg.scale(200_000)
	cases := []struct {
		name string
		mk   func() stream.Stream
	}{
		{"randwalk", func() stream.Stream { return stream.RandomWalk(n, cfg.Seed) }},
		{"zerocross", func() stream.Stream { return stream.ZeroCrossing(n, 50) }},
		{"sawtooth", func() stream.Stream { return stream.Sawtooth(n, 64, 32) }},
	}
	for _, c := range cases {
		crossings := countCrossings(c.mk())
		for _, eps := range []float64{0.3, 0.1} {
			coord, sites := track.NewSingleSite(eps)
			res := track.Run(c.name, assignRR(c.mk(), 1), coord, sites, eps)
			bd := bound.SingleSiteMessages(eps, res.V, crossings)
			t.AddRow(c.name, g3(eps), f1(res.V), d(crossings), d(res.Stats.Total()),
				f1(bd), f4(res.MaxRelErr), d(res.Violations))
		}
	}
	t.AddNote("violations must be 0; the potential argument of appendix I gives the bound")
	return t
}

// countCrossings counts steps with f(t) = 0 or a sign change, the z(n) term
// in the appendix-I bound.
func countCrossings(st stream.Stream) int64 {
	var f, crossings, prevSign int64
	for {
		u, ok := st.Next()
		if !ok {
			return crossings
		}
		f += u.Delta
		var s int64
		if f > 0 {
			s = 1
		} else if f < 0 {
			s = -1
		}
		if f == 0 || (prevSign != 0 && s != 0 && s != prevSign) {
			crossings++
		}
		if s != 0 {
			prevSign = s
		}
	}
}

// E11LargeUpdates reproduces appendix C: expanding bulk updates into unit
// updates multiplies the variability by at most O(log max|f'|).
func E11LargeUpdates(cfg Config) *Table {
	t := NewTable("E11", "bulk-update splitting: overhead ≤ 1+H(max f') per appendix C",
		"max |f'|", "bulk v", "split v", "overhead", "bound 1+H(d)", "tracked ok")
	n := cfg.scale(50_000)
	for _, maxStep := range []int64{2, 8, 32, 128} {
		// Three passes over one bulk workload: bulk variability, split
		// variability, and the end-to-end tracker run.
		bulk := func() stream.Stream { return stream.BulkWalk(n, maxStep, cfg.Seed) }
		bulkV, _, _ := measureV(bulk())
		splitV, _, _ := measureV(stream.NewSplitBulk(bulk()))
		// End-to-end: the deterministic tracker on the split stream keeps
		// its guarantee.
		k, eps := 4, 0.1
		coord, sites := engineRouted(k, query.Spec{Algo: "det", Eps: eps})
		res := track.Run("split", assignRR(stream.NewSplitBulk(bulk()), k), coord, sites, eps)
		t.AddRow(d(maxStep), f1(bulkV), f1(splitV), f2(splitV/bulkV),
			f2(1+core.Harmonic(maxStep)), b(res.Violations == 0))
	}
	t.AddNote("overhead compares split-stream variability to bulk-stream variability")
	return t
}
