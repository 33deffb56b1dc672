package expt

import (
	"repro/internal/dist"
	"repro/internal/freq"
	"repro/internal/quantile"
	"repro/internal/stream"
)

// E24DyadicRank reproduces the §5.1-adjacent extension: distributed rank
// and quantile tracking over insert/delete value streams via dyadic
// decomposition of the appendix-H frequency tracker (the Yi-Zhang route the
// paper references). Rank error must stay within ε·F1 at all probe times.
func E24DyadicRank(cfg Config) *Table {
	t := NewTable("E24", "distributed ranks/quantiles by dyadic decomposition",
		"k", "ε", "bits", "delete %", "msgs", "max rank err/F1", "max quantile slip/F1", "ok")
	n := cfg.scale(50_000)
	for _, k := range []int{4, 8} {
		for _, bits := range []int{8, 10} {
			eps := 0.2
			delProb := 0.25
			rt, sites := freq.NewDyadicRank(k, eps, bits)
			sim := dist.NewSim(rt, sites)
			ref := quantile.NewFenwick(1 << uint(bits))
			gen := stream.NewItemGen(n, 1<<uint(bits), 1.0, delProb, cfg.Seed)
			st := stream.NewAssign(gen, stream.NewRoundRobin(k))
			var step int64
			checkEvery := n/40 + 1
			maxRank, maxQuant := 0.0, 0.0
			ok := true
			check := func() {
				if step%checkEvery != 0 || ref.Total() == 0 {
					return
				}
				f1 := float64(ref.Total())
				for _, x := range []int64{1 << uint(bits-2), 1 << uint(bits-1), 3 << uint(bits-2)} {
					err := float64(absDiff(rt.Rank(x), ref.PrefixSum(int(x)))) / f1
					if err > maxRank {
						maxRank = err
					}
					if err > eps+1e-9 {
						ok = false
					}
				}
				for _, q := range []float64{0.25, 0.5, 0.75} {
					val := rt.Quantile(q)
					slip := float64(ref.PrefixSum(int(val)))/f1 - q
					if slip < 0 {
						slip = -slip
					}
					if slip > maxQuant {
						maxQuant = slip
					}
					if slip > 2*eps+2/f1 {
						ok = false
					}
				}
			}
			// Runs end on probe boundaries; the probes read only
			// coordinator state, which at a quiescent point matches the
			// per-update path exactly.
			sim.RunBatch(st, nil, checkEvery, func(run []stream.Update, _ bool) {
				for _, u := range run {
					ref.Add(int(u.Item), u.Delta)
				}
				step += int64(len(run))
				check()
			})
			t.AddRow(di(k), g3(0.2), di(bits), pct(delProb),
				d(sim.Stats().Total()), f4(maxRank), f4(maxQuant), b(ok))
		}
	}
	t.AddNote("rank error must be ≤ ε·F1 everywhere; quantile slip ≤ 2ε (one ε from ranks,")
	t.AddNote("one from the search). Internally each dyadic level is tracked at ε/bits.")
	return t
}
