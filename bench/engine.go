package main

import (
	"fmt"
	"math"

	"repro/internal/bound"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/stream"
)

// engineSpecs are the eight queries of engine-mixed: every tracker family,
// with and without item filters.
const engineSpecs = "det,eps=0.1;rand,eps=0.1;freq,eps=0.2;threshold,eps=0.1,tau=500;" +
	"det,eps=0.05,filter=even;rand,eps=0.2,filter=odd;freq,eps=0.1,filter=mod:4:1;det,eps=0.2,filter=le:100"

// engineUniverse is the item universe of engine-mixed. Deletions are one
// update in ten: at three in ten the dataset stayed small for longer, and
// the message count varied twice as much from seed to seed.
const engineUniverse = 1 << 12

// hotItems is how many of the most frequent items (0 .. hotItems−1 under the
// zipf item distribution) a poll asks the frequency query about.
const hotItems = 16

func engineMixed() *closedSpec {
	const k = 8
	specs, err := query.ParseSpecs(engineSpecs)
	if err != nil {
		panic(err) // the specs are a constant
	}
	return &closedSpec{
		k: k, eps: specs[0].Eps, maxViol: 0, pollEvery: 1 << 12,
		input: func(n int, seed uint64) stream.Stream {
			return stream.NewAssign(stream.NewItemGen(int64(n), engineUniverse, 1.1, 0.1, seed), stream.NewSkewed(k, 1.0, seed+1))
		},
		algos: func() (dist.CoordAlgo, []dist.SiteAlgo) {
			eng, sites, err := query.New(k, specs)
			if err != nil {
				panic(err) // the specs passed ParseSpecs, which validates them
			}
			return eng, sites
		},
		build: func(_ uint64, coord dist.CoordAlgo, sites []dist.SiteAlgo, l *lane) *deployment {
			eng := coord.(*query.Coord)
			sim := dist.NewSim(instrument(coord, sites, l))
			sim.SetClassifier(eng)
			return &deployment{
				rt:      sim,
				engine:  eng,
				blocks:  eng.UnderlyingBlockCoord().Blocks,
				metrics: &obs.Metrics{Stats: sim.Stats, Classes: sim.ClassStats, ClassLabel: "query"},
				read: func() {
					for q := range len(specs) {
						e, _ := eng.EstimateQuery(q)
						sink += e
					}
					for item := range uint64(hotItems) {
						e, _ := eng.Frequency(2, item)
						sink += e
					}
					st, _ := eng.ThresholdState(3)
					sink += int64(st)
				},
				ests: func() []int64 {
					out := make([]int64, len(specs))
					for q := range out {
						out[q], _ = eng.EstimateQuery(q)
					}
					return out
				},
				live: func() (dist.CoordAlgo, []dist.SiteAlgo) { return coord, sites },
			}
		},
		check:    engineCheck(specs),
		msgBound: func(v float64) float64 { return bound.DetMessages(k, specs[0].Eps, v) },
	}
}

// engineCheck verifies the guarantees that hold at every step for the
// deterministic families, on the final state: each det query within its ε
// of its filtered count, and each frequency query's hot items within ε·F1
// of their filtered counts. Query 0 is also checked at every step by the
// closed loop; the randomized families only promise each step with
// probability 2/3 and are not checked. The exact answers are computed once,
// since every chunk feeds the same segment.
func engineCheck(specs []query.Spec) func(d *deployment, ups []stream.Update) []string {
	var f1 []int64
	var hot [][]int64
	return func(d *deployment, ups []stream.Update) []string {
		if f1 == nil {
			f1 = make([]int64, len(specs))
			hot = make([][]int64, len(specs))
			for q, sp := range specs {
				hot[q] = make([]int64, hotItems)
				for _, u := range ups {
					if sp.Filter != nil && !sp.Filter.Match(u.Item) {
						continue
					}
					f1[q] += u.Delta
					if u.Item < hotItems {
						hot[q][u.Item] += u.Delta
					}
				}
			}
		}
		var problems []string
		for q, sp := range specs {
			switch sp.Algo {
			case "det":
				est, _ := d.engine.EstimateQuery(q)
				problems = append(problems, finalWithin(fmt.Sprintf("query %d (%s)", q, sp.Label(q)), f1[q], est, sp.Eps)...)
			case "freq":
				for item := range uint64(hotItems) {
					if sp.Filter != nil && !sp.Filter.Match(item) {
						continue
					}
					got, _ := d.engine.Frequency(q, item)
					if math.Abs(float64(got-hot[q][item])) > sp.Eps*float64(f1[q]) {
						problems = append(problems, fmt.Sprintf("query %d: item %d frequency %d, exact %d, outside ε·F1=%g",
							q, item, got, hot[q][item], sp.Eps*float64(f1[q])))
					}
				}
			}
		}
		return problems
	}
}
