package expt

import (
	"math"

	"repro/internal/dist"
	"repro/internal/quantile"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/track"
)

// E22QuantileHistory reproduces the §2-remarks restatement of Tao et al.'s
// order-statistics-history bounds in variability terms: the
// variability-driven snapshot structure answers historical quantile queries
// within ε·|D(t)| using O(v/ε) snapshots and O(v/ε²) words — Tao et al.'s
// online upper bound — against their Ω(v/ε) lower bound.
func E22QuantileHistory(cfg Config) *Table {
	t := NewTable("E22", "historical order statistics: O(v/ε²) words vs Ω(v/ε)",
		"workload", "ε", "n", "v(|D|)", "snapshots", "≤4v/ε+2", "words", "LB v/ε", "max rank err/|D|")
	n := cfg.scale(60_000)
	universe := 1 << 10
	workloads := []struct {
		name    string
		delProb float64
	}{
		{"grow (5% del)", 0.05},
		{"churn (40% del)", 0.40},
	}
	for _, w := range workloads {
		for _, eps := range []float64{0.2, 0.1} {
			h := quantile.NewHistory(eps, universe)
			ref := quantile.NewFenwick(universe)
			src := rng.New(cfg.Seed + uint64(w.delProb*100))
			var present []int
			type upd struct {
				v     int
				delta int64
			}
			var log []upd
			for i := int64(0); i < n; i++ {
				if len(present) > 0 && src.Bernoulli(w.delProb) {
					idx := src.Intn(len(present))
					v := present[idx]
					present[idx] = present[len(present)-1]
					present = present[:len(present)-1]
					h.Update(v, -1)
					log = append(log, upd{v, -1})
				} else {
					v := src.Intn(universe)
					present = append(present, v)
					h.Update(v, 1)
					log = append(log, upd{v, 1})
				}
			}
			// Measure worst observed rank error over a time × quantile grid.
			maxErr := 0.0
			step := int64(0)
			checkEvery := n/40 + 1
			for _, u := range log {
				ref.Add(u.v, u.delta)
				step++
				if step%checkEvery != 0 || ref.Total() == 0 {
					continue
				}
				size := ref.Total()
				for _, q := range []float64{0.1, 0.5, 0.9} {
					got := h.QueryQuantile(step, q)
					rank := ref.PrefixSum(int(got))
					if e := math.Abs(float64(rank)-q*float64(size)) / float64(size); e > maxErr {
						maxErr = e
					}
				}
			}
			v := h.VariabilityV()
			t.AddRow(w.name, g3(eps), d(n), f1(v), di(h.Checkpoints()),
				b(float64(h.Checkpoints()) <= 4*v/eps+2),
				d(h.SizeWords()), f1(v/eps), f4(maxErr))
		}
	}
	t.AddNote("max rank err/|D| must stay ≤ ε; words follow Tao et al.'s online O(v/ε²) shape")
	return t
}

// E23Threshold reproduces the original (k, f, τ, ε) thresholded problem of
// Cormode et al. (recalled in §2) as a corollary of continuous tracking:
// the monitor's answer is correct at every step on streams that cross τ
// repeatedly in both directions — the non-monotone case the original
// formulation could not handle with worst-case guarantees.
func E23Threshold(cfg Config) *Table {
	t := NewTable("E23", "thresholded monitoring (k,f,τ,ε) via the variability tracker",
		"stream", "k", "ε", "τ", "crossings", "msgs", "promise violations")
	n := cfg.scale(200_000)
	for _, k := range []int{4, 16} {
		for _, c := range []struct {
			name string
			mk   func() stream.Stream
			tau  int64
		}{
			{"sawtooth", func() stream.Stream { return stream.Sawtooth(n, 4000, 3800) }, 3000},
			{"randwalk", func() stream.Stream { return stream.RandomWalk(n, cfg.Seed) }, 150},
		} {
			eps := 0.3
			m, sites := track.NewThresholdMonitor(k, eps, c.tau)
			sim := dist.NewSim(m, sites)
			st := stream.NewAssign(c.mk(), stream.NewRoundRobin(k))
			var f, crossings, violations int64
			wasAbove := false
			state := m.State()
			check := func(delta int64) {
				f += delta
				if f >= c.tau && state != track.Above {
					violations++
				}
				if float64(f) <= (1-eps)*float64(c.tau) && state != track.Below {
					violations++
				}
				isAbove := f >= c.tau
				if isAbove != wasAbove {
					crossings++
					wasAbove = isAbove
				}
			}
			// The monitor state is coordinator-side, so it only moves on a
			// delivering run.
			sim.RunBatch(st, nil, 0, func(run []stream.Update, delivered bool) {
				last := len(run) - 1
				for _, u := range run[:last] {
					check(u.Delta)
				}
				if delivered {
					state = m.State()
				}
				check(run[last].Delta)
			})
			t.AddRow(c.name, di(k), g3(eps), d(c.tau), d(crossings),
				d(sim.Stats().Total()), d(violations))
		}
	}
	t.AddNote("promise violations must be 0: f ≥ τ ⇒ Above and f ≤ (1−ε)τ ⇒ Below, always")
	return t
}
