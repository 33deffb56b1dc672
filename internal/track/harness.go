package track

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/stream"
)

// Result summarizes one simulated tracking run: communication cost, error
// behaviour against the ε·|f| guarantee, and the stream's variability —
// everything the paper's bounds are stated in terms of.
type Result struct {
	Name  string
	Steps int64
	K     int
	Eps   float64

	// V is the variability v(n) of the input stream.
	V float64
	// Stats holds the message and byte counters.
	Stats dist.Stats
	// MaxRelErr is the largest |f−f̂| / max(1,|f|) observed over all steps.
	MaxRelErr float64
	// Violations counts steps where the guarantee |f−f̂| ≤ ε·|f| failed
	// (at f = 0 a violation means f̂ ≠ 0).
	Violations int64
	// FinalF and FinalEst are the exact value and estimate after the last
	// step.
	FinalF, FinalEst int64

	// Blocks is the number of completed partition blocks (0 for trackers
	// that do not partition time).
	Blocks int64
	// BlockV[j] is v(n) at the j-th completed block boundary; BlockMsgs[j]
	// is the cumulative message total there. Consecutive differences give
	// the per-block Δv and message cost the §3.1 analysis bounds.
	BlockV    []float64
	BlockMsgs []int64
}

// ViolationFrac returns the fraction of steps violating the ε guarantee.
func (r Result) ViolationFrac() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Steps)
}

// MsgsPerStep returns total messages divided by steps.
func (r Result) MsgsPerStep() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.Stats.Total()) / float64(r.Steps)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s: n=%d k=%d eps=%g v=%.1f msgs=%d (%.3f/step) maxerr=%.4f viol=%.3f blocks=%d",
		r.Name, r.Steps, r.K, r.Eps, r.V, r.Stats.Total(), r.MsgsPerStep(),
		r.MaxRelErr, r.ViolationFrac(), r.Blocks)
}

// BlockCoordSource exposes the underlying *BlockCoord of a wrapping
// coordinator (the multi-query engine, say), so Run's block-boundary
// instrumentation works however the tracker is deployed. A nil return
// means the wrapped coordinator does not partition time.
type BlockCoordSource interface {
	UnderlyingBlockCoord() *BlockCoord
}

// Run simulates the tracker over the stream and checks the estimate against
// the exact value after every step. The stream's updates must already carry
// site assignments in [0, k).
//
// Run drives the batched ingest path, RunBatch on dist.NewSim, which is
// byte-identical to a per-update Step loop. The per-step error check still
// runs for every update — across a message-free run the coordinator state
// is untouched, so the estimate is read once per delivering run instead of
// once per step.
func Run(name string, st stream.Stream, coord dist.CoordAlgo, sites []dist.SiteAlgo, eps float64) Result {
	sim := dist.NewSim(coord, sites)
	exact := core.NewTracker(0)
	res := Result{Name: name, K: len(sites), Eps: eps}

	bc, hasBlocks := coord.(*BlockCoord)
	if !hasBlocks {
		if src, ok := coord.(BlockCoordSource); ok {
			bc = src.UnderlyingBlockCoord()
			hasBlocks = bc != nil
		}
	}
	lastBlocks := int64(0)

	est := sim.Estimate()
	// check performs the per-step error accounting for one update, with
	// the same float operations in the same order as the per-update loop
	// (runReference in batch_test.go) so Results match bit for bit.
	check := func(delta int64) {
		exact.Update(delta)
		res.Steps++
		f := exact.F()
		diff := absI64(f - est)
		af := absI64(f)
		rel := float64(diff)
		if af > 0 {
			rel = float64(diff) / float64(af)
		}
		if rel > res.MaxRelErr {
			res.MaxRelErr = rel
		}
		if float64(diff) > eps*float64(af) {
			res.Violations++
		}
	}
	sim.RunBatch(st, nil, 0, func(run []stream.Update, delivered bool) {
		last := len(run) - 1
		for _, u := range run[:last] {
			check(u.Delta)
		}
		if delivered {
			est = sim.Estimate()
		}
		check(run[last].Delta)
		// Blocks only complete when messages are delivered, so the
		// boundary snapshot lands on exactly the step it did in the
		// per-update loop.
		if delivered && hasBlocks && bc.Blocks() != lastBlocks {
			lastBlocks = bc.Blocks()
			res.BlockV = append(res.BlockV, exact.V())
			res.BlockMsgs = append(res.BlockMsgs, sim.Stats().Total())
		}
	})

	res.V = exact.V()
	res.Stats = sim.Stats()
	res.FinalF = exact.F()
	res.FinalEst = sim.Estimate()
	if hasBlocks {
		res.Blocks = bc.Blocks()
	}
	return res
}

// Builder constructs a tracker instance for a given k and ε. The seed lets
// randomized trackers vary across trials.
type Builder func(k int, eps float64, seed uint64) (dist.CoordAlgo, []dist.SiteAlgo)

// Builders returns the named tracker constructors used across experiments.
// CMY and HYZ require monotone input; callers must pair them appropriately.
func Builders() map[string]Builder {
	return map[string]Builder{
		"det": func(k int, eps float64, seed uint64) (dist.CoordAlgo, []dist.SiteAlgo) {
			return NewDeterministic(k, eps)
		},
		"rand": func(k int, eps float64, seed uint64) (dist.CoordAlgo, []dist.SiteAlgo) {
			return NewRandomized(k, eps, seed)
		},
		"naive": func(k int, eps float64, seed uint64) (dist.CoordAlgo, []dist.SiteAlgo) {
			return NewNaive(k)
		},
		"cmy": func(k int, eps float64, seed uint64) (dist.CoordAlgo, []dist.SiteAlgo) {
			return NewCMY(k, eps)
		},
		"hyz": func(k int, eps float64, seed uint64) (dist.CoordAlgo, []dist.SiteAlgo) {
			return NewHYZ(k, eps, seed)
		},
		"lrv": func(k int, eps float64, seed uint64) (dist.CoordAlgo, []dist.SiteAlgo) {
			return NewLRV(k, eps, seed)
		},
	}
}
