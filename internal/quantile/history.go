package quantile

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// History answers historical quantile queries over an insert/delete stream
// of values: after feeding updates for times 1..n, QueryQuantile(t, q)
// returns a value whose rank in D(t) is within ε·|D(t)| of q·|D(t)|.
//
// Construction (the variability-driven scheme described in the package
// comment): maintain the exact current multiset in a Fenwick tree, track
// the |D|-variability, and snapshot the (ε/2)-spaced order statistics
// whenever the variability has grown by ε/4 since the last snapshot.
type History struct {
	eps   float64
	tree  *Fenwick
	vt    *core.Tracker
	lastV float64
	now   int64

	checkpoints []histCheckpoint
}

// histCheckpoint is one snapshot: the time it covers from, the dataset size
// then, and the ε/2-spaced order statistics.
type histCheckpoint struct {
	t      int64
	size   int64
	quants []int32
}

// NewHistory builds a History for values in [0, universe).
func NewHistory(eps float64, universe int) *History {
	if !(eps > 0 && eps < 1) {
		panic("quantile: NewHistory needs 0 < eps < 1")
	}
	h := &History{
		eps:  eps,
		tree: NewFenwick(universe),
		vt:   core.NewTracker(0),
	}
	return h
}

// Update feeds the next timestep's update: value v inserted (delta = +1) or
// deleted (delta = −1). Deleting an absent value panics — the model only
// permits deleting present items.
func (h *History) Update(v int, delta int64) {
	if delta != 1 && delta != -1 {
		panic("quantile: Update needs delta = ±1")
	}
	if delta == -1 && h.tree.PrefixSum(v)-h.tree.PrefixSum(v-1) == 0 {
		panic(fmt.Sprintf("quantile: deleting absent value %d", v))
	}
	h.now++
	h.tree.Add(v, delta)
	h.vt.Update(delta) // |D|-variability: f = |D|
	if h.vt.V()-h.lastV >= h.eps/4 || len(h.checkpoints) == 0 {
		h.snapshot()
	}
}

// snapshot records the current ε/2-spaced order statistics.
func (h *History) snapshot() {
	h.lastV = h.vt.V()
	size := h.tree.Total()
	var quants []int32
	if size > 0 {
		step := int64(h.eps / 2 * float64(size))
		if step < 1 {
			step = 1
		}
		quants = h.tree.Snapshot(step)
	}
	h.checkpoints = append(h.checkpoints, histCheckpoint{t: h.now, size: size, quants: quants})
}

// Now returns the current timestep.
func (h *History) Now() int64 { return h.now }

// Checkpoints returns the number of snapshots taken.
func (h *History) Checkpoints() int { return len(h.checkpoints) }

// SizeWords returns the summary footprint in words: one word per stored
// order statistic plus two per checkpoint header.
func (h *History) SizeWords() int64 {
	var words int64
	for _, c := range h.checkpoints {
		words += int64(len(c.quants)) + 2
	}
	return words
}

// QueryQuantile returns a value whose rank in D(t) is within ε·|D(t)| of
// q·|D(t)|, for any past time 1 ≤ t ≤ Now. It panics if no snapshot covers
// t (t < 1) or the dataset was empty at the covering snapshot.
func (h *History) QueryQuantile(t int64, q float64) int64 {
	if t < 1 || t > h.now {
		panic(fmt.Sprintf("quantile: QueryQuantile(%d) outside [1, %d]", t, h.now))
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Latest checkpoint at or before t.
	idx := sort.Search(len(h.checkpoints), func(i int) bool { return h.checkpoints[i].t > t })
	if idx == 0 {
		panic("quantile: no checkpoint covers the queried time")
	}
	c := h.checkpoints[idx-1]
	if c.size == 0 || len(c.quants) == 0 {
		return 0
	}
	// Rank q·size within the snapshot's evenly spaced statistics.
	pos := int(q * float64(len(c.quants)-1))
	return int64(c.quants[pos])
}

// VariabilityV returns the |D|-variability consumed so far — the quantity
// the snapshot count is proportional to.
func (h *History) VariabilityV() float64 { return h.vt.V() }
