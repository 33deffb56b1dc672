package expt

import (
	"math"

	"repro/internal/dist"
	"repro/internal/freq"
	"repro/internal/hist"
	"repro/internal/lowerbound"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/track"
)

// E20ChangepointSummary shows that the appendix-I single-site tracker's
// changepoint history is an essentially optimal deterministic tracing
// summary: it answers every historical query within ε in
// O((v/ε)·log n) bits, against theorem 4.1's Ω((log n/ε)·v) lower bound —
// and is far smaller than the raw appendix-D transcript.
func E20ChangepointSummary(cfg Config) *Table {
	t := NewTable("E20", "changepoint tracing summary: O((v/ε)log n) bits vs Ω((log n/ε)v)",
		"stream", "ε", "v(n)", "changepts", "bits (varint)", "transcript bits", "LB shape v/ε·log2 n", "hist ok")
	n := cfg.scale(100_000)
	cases := []struct {
		name string
		mk   func() stream.Stream
	}{
		{"randwalk", func() stream.Stream { return stream.RandomWalk(n, cfg.Seed) }},
		{"biased", func() stream.Stream { return stream.BiasedWalk(n, 0.2, cfg.Seed) }},
		{"sawtooth", func() stream.Stream { return stream.Sawtooth(n, 64, 32) }},
	}
	for _, c := range cases {
		for _, eps := range []float64{0.1, 0.05} {
			coord, sites := track.NewSingleSite(eps)
			sim := dist.NewSim(coord, sites)
			transcript := lowerbound.NewTranscriptSummary(func() dist.CoordAlgo {
				cc, _ := track.NewSingleSite(eps)
				return cc
			})
			sim.Recorder = transcript.Recorder()
			var cp hist.ChangepointSummary
			st := stream.NewAssign(c.mk(), stream.NewSingle(1))
			exact := make([]int64, 0, n)
			var f int64
			vv := 0.0
			for {
				u, ok := st.Next()
				if !ok {
					break
				}
				sim.Step(u)
				f += u.Delta
				exact = append(exact, f)
				cp.Observe(u.T, sim.Estimate())
				af := f
				if af < 0 {
					af = -af
				}
				if af == 0 || af == 1 {
					vv++
				} else {
					vv += 1 / float64(af)
				}
			}
			ok := true
			for i, fv := range exact {
				if _, violated := relErr(fv, cp.Query(int64(i+1)), eps); violated {
					ok = false
					break
				}
			}
			lbShape := vv / eps * math.Log2(float64(n))
			t.AddRow(c.name, g3(eps), f1(vv), di(cp.Len()), d(cp.CompressedSizeBits()),
				d(transcript.SizeBits()), f1(lbShape), b(ok))
		}
	}
	t.AddNote("changepoint bits should sit within a small constant of the lower-bound shape,")
	t.AddNote("and far below the raw transcript — the appendix-I upper bound meets theorem 4.1")
	return t
}

// E21FreqSampledAblation is the appendix-H.0.3 ablation: per-cell HYZ
// sampling works when combined with the paper's deterministic block-end
// resynchronization, and fails on grow-then-shrink workloads without it —
// the variance obstacle the paper identifies for randomized frequency
// tracking over general update streams.
func E21FreqSampledAblation(cfg Config) *Table {
	t := NewTable("E21", "H.0.3 ablation: sampled frequency tracking with and without resync",
		"workload", "variant", "msgs", "violation frac (final quarter)")
	k, eps := 8, 0.05
	grow := cfg.scale(40_000)
	// Workloads are regenerated from seed for every variant rather than
	// materialized once and replayed, so peak memory stays O(dataset), not
	// O(updates).
	workloads := []struct {
		name  string
		total int64
		mk    func() stream.Stream
	}{
		{"steady-churn", grow, func() stream.Stream { return steadyChurn(grow, 400, cfg.Seed) }},
		{"grow-shrink", grow + grow*9/10, func() stream.Stream { return growShrink(grow, 400, cfg.Seed) }},
	}
	variants := []struct {
		name string
		mk   func() (*freq.Tracker, []dist.SiteAlgo)
	}{
		{"deterministic", func() (*freq.Tracker, []dist.SiteAlgo) { return freq.New(k, eps, freq.ExactMapper{}) }},
		{"sampled+sync", func() (*freq.Tracker, []dist.SiteAlgo) {
			return freq.NewSampled(k, eps, freq.ExactMapper{}, cfg.Seed+5)
		}},
		{"sampled-nosync", func() (*freq.Tracker, []dist.SiteAlgo) {
			return freq.NewSampledNoSync(k, eps, freq.ExactMapper{}, cfg.Seed+5)
		}},
	}
	for _, w := range workloads {
		for _, v := range variants {
			tr, sites := v.mk()
			frac, msgs := replayFreq(tr, sites, k, w.mk(), w.total, eps)
			t.AddRow(w.name, v.name, d(msgs), pct(frac))
		}
	}
	t.AddNote("violations appear ONLY for sampled-nosync on grow-shrink: stale sampling noise")
	t.AddNote("from the large-F1 era violates the shrunken εF1 budget — the H.0.3 obstacle")
	return t
}

// steadyChurn is an insert/delete workload with stationary 30% deletions.
func steadyChurn(n int64, universe int, seed uint64) stream.Stream {
	return stream.NewItemGen(n, universe, 1.0, 0.3, seed)
}

// growShrink inserts n items then deletes 90% of them. It produces the
// identical update sequence the old materializing implementation did, but
// as a generator: only the live multiset (item ids) is held, never the
// update stream itself.
func growShrink(n int64, universe int, seed uint64) stream.Stream {
	return &growShrinkStream{
		gen:  stream.NewItemGen(n, universe, 1.0, 0, seed),
		dels: n * 9 / 10,
		src:  rng.New(seed + 1),
	}
}

// growShrinkStream streams the grow phase straight out of an ItemGen while
// recording inserted items, then emits uniform swap-remove deletions.
type growShrinkStream struct {
	gen     *stream.ItemGen
	dels    int64 // deletions remaining
	t       int64
	src     *rng.Xoshiro256
	present []uint64
}

// Next implements stream.Stream.
func (g *growShrinkStream) Next() (stream.Update, bool) {
	if u, ok := g.gen.Next(); ok {
		g.present = append(g.present, u.Item)
		g.t = u.T
		return u, true
	}
	if g.dels <= 0 || len(g.present) == 0 {
		return stream.Update{}, false
	}
	g.dels--
	idx := g.src.Intn(len(g.present))
	item := g.present[idx]
	g.present[idx] = g.present[len(g.present)-1]
	g.present = g.present[:len(g.present)-1]
	g.t++
	return stream.Update{T: g.t, Delta: -1, Item: item}, true
}

// replayFreq drives a regenerated workload of `total` updates, scanning all
// live items every 101 steps in the final quarter.
func replayFreq(tr *freq.Tracker, sites []dist.SiteAlgo, k int, workload stream.Stream, total int64, eps float64) (violFrac float64, msgs int64) {
	st := stream.NewAssign(workload, stream.NewRoundRobin(k))
	sim := dist.NewSim(tr, sites)
	exact := make(map[uint64]int64)
	var f1, step, checks, viols int64
	lastQuarter := total * 3 / 4
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
		exact[u.Item] += u.Delta
		if exact[u.Item] == 0 {
			delete(exact, u.Item)
		}
		f1 += u.Delta
		step++
		if step < lastQuarter || step%101 != 0 || f1 == 0 {
			continue
		}
		for item, f := range exact {
			checks++
			if float64(absDiff(f, tr.Frequency(item))) > eps*float64(f1)+1e-9 {
				viols++
			}
		}
	}
	if checks == 0 {
		return 0, sim.Stats().Total()
	}
	return float64(viols) / float64(checks), sim.Stats().Total()
}
