package expt

import (
	"repro/internal/bound"
	"repro/internal/dist"
	"repro/internal/freq"
	"repro/internal/stream"
)

// freqRun drives an item workload through a frequency tracker and measures
// per-item error against ε·F1 along the way.
type freqRunResult struct {
	Steps      int64
	V          float64 // F1-variability of the workload
	Msgs       int64
	MaxErrOver float64 // max over checks of |f_ℓ−f̂_ℓ|/F1
	Violations int64
	Checks     int64
	MaxCells   int // peak live counters at any site
}

func freqRun(tr *freq.Tracker, sites []dist.SiteAlgo, k int,
	n int64, universe int, delProb float64, seed uint64, eps float64) freqRunResult {
	gen := stream.NewItemGen(n, universe, 1.0, delProb, seed)
	st := stream.NewAssign(gen, stream.NewRoundRobin(k))
	sim := dist.NewSim(tr, sites)

	exact := make(map[uint64]int64)
	var f1 int64
	var res freqRunResult
	var vtrack float64
	checkEvery := n/50 + 1
	// check inspects tracker state against ground truth. It reads site
	// state (SiteLiveCells), so it must run on the exact step boundary.
	check := func() {
		if res.Steps%checkEvery != 0 || f1 == 0 {
			return
		}
		for item, fv := range exact {
			res.Checks++
			err := float64(absDiff(fv, tr.Frequency(item))) / float64(f1)
			if err > res.MaxErrOver {
				res.MaxErrOver = err
			}
			if err > eps+1e-12 {
				res.Violations++
			}
		}
		for _, c := range tr.SiteLiveCells() {
			if c > res.MaxCells {
				res.MaxCells = c
			}
		}
	}
	// Runs end on check steps, so site-state reads happen at the same
	// steps as in the per-update loop.
	sim.RunBatch(st, nil, checkEvery, func(run []stream.Update, _ bool) {
		for _, u := range run {
			exact[u.Item] += u.Delta
			if exact[u.Item] == 0 {
				delete(exact, u.Item)
			}
			f1 += u.Delta
			res.Steps++
			// F1-variability: v'(t) = min{1, 1/F1(t)} per appendix H.
			if f1 == 0 {
				vtrack++
			} else {
				vtrack += 1 / float64(f1)
			}
		}
		check()
	})
	res.V = vtrack
	res.Msgs = sim.Stats().Total()
	return res
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// relErr returns est's error against f relative to |f| (absolute at f = 0)
// and whether it breaks the guarantee |f − est| ≤ ε·|f|.
func relErr(f, est int64, eps float64) (rel float64, violated bool) {
	diff, af := float64(absDiff(f, est)), absF(f)
	if rel = diff; af > 0 {
		rel = diff / af
	}
	return rel, diff > eps*af+1e-9
}

// E12FreqExact reproduces appendix H.0.1: exact per-item counters, error
// ≤ εF1 deterministically, O((k/ε)·v) messages.
func E12FreqExact(cfg Config) *Table {
	t := NewTable("E12", "item frequencies, exact counters: err ≤ εF1, msgs = O(kv/ε)",
		"k", "ε", "delete %", "v(F1)", "msgs", "bound", "max err/F1", "violations")
	n := cfg.scale(100_000)
	universe := 1000
	for _, k := range []int{4, 12} {
		for _, eps := range []float64{0.2, 0.05} {
			for _, delProb := range []float64{0.1, 0.4} {
				tr, sites := freq.New(k, eps, freq.ExactMapper{})
				r := freqRun(tr, sites, k, n, universe, delProb, cfg.Seed, eps)
				t.AddRow(di(k), g3(eps), pct(delProb), f1(r.V), d(r.Msgs),
					f1(bound.FreqMessages(k, eps, r.V, 1)), f4(r.MaxErrOver), d(r.Violations))
			}
		}
	}
	t.AddNote("violations must be 0 (deterministic guarantee)")
	return t
}

// E13FreqCM reproduces appendix H.0.2 with the Count-Min backend: site
// space falls from |U| to O(1/ε) counters at the cost of a probabilistic
// εF1/3 collision term.
func E13FreqCM(cfg Config) *Table {
	t := NewTable("E13", "item frequencies, Count-Min: O(1/ε) cells, err ≤ εF1 w.h.p.",
		"k", "ε", "|U|", "sketch cells", "peak site cells", "msgs", "max err/F1", "viol frac")
	n := cfg.scale(100_000)
	k := 4
	for _, eps := range []float64{0.2, 0.1} {
		for _, universe := range []int{2_000, 20_000} {
			mapper := freq.NewCMMapper(eps, 2, cfg.Seed+7)
			tr, sites := freq.New(k, eps, mapper)
			r := freqRun(tr, sites, k, n, universe, 0.25, cfg.Seed, eps)
			frac := 0.0
			if r.Checks > 0 {
				frac = float64(r.Violations) / float64(r.Checks)
			}
			t.AddRow(di(k), g3(eps), di(universe), di(mapper.NumCells()),
				di(r.MaxCells), d(r.Msgs), f4(r.MaxErrOver), pct(frac))
		}
	}
	t.AddNote("peak site cells must stay ≤ sketch cells regardless of |U| — the space claim")
	return t
}

// E14FreqCR reproduces appendix H.0.2 with the CR-precis backend: fully
// deterministic εF1 error in O((log|U|/ε·log(1/ε))·(1/ε)) counters.
func E14FreqCR(cfg Config) *Table {
	t := NewTable("E14", "item frequencies, CR-precis: deterministic err ≤ εF1",
		"k", "ε", "universe bits", "sketch cells", "msgs", "max err/F1", "violations")
	n := cfg.scale(60_000)
	k := 3
	for _, eps := range []float64{0.3, 0.2} {
		for _, bits := range []int{10, 14} {
			mapper := freq.NewCRMapper(eps, bits)
			tr, sites := freq.New(k, eps, mapper)
			r := freqRun(tr, sites, k, n, 1<<bits, 0.25, cfg.Seed, eps)
			t.AddRow(di(k), g3(eps), di(bits), di(mapper.NumCells()),
				d(r.Msgs), f4(r.MaxErrOver), d(r.Violations))
		}
	}
	t.AddNote("violations must be 0: both the protocol and the sketch are deterministic")
	return t
}
