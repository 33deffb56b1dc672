package quantile

import (
	"fmt"
	"sort"
)

// GK is the Greenwald-Khanna ε-approximate quantile summary for insert-only
// streams: after n inserts, Query(q) returns a value whose rank is within
// ε·n of ⌈q·n⌉, in O((1/ε)·log(ε·n)) space. It is the classical substrate
// for order-statistics tracking (Tao et al. build on it; Yi & Zhang's
// distributed quantile trackers ship GK summaries between sites and
// coordinator).
type GK struct {
	eps   float64
	n     int64
	tuple []gkTuple
}

// gkTuple is the (v, g, Δ) triple of the GK structure: v is a value, g the
// gap between this tuple's minimum rank and the previous tuple's, and Δ the
// uncertainty span of the tuple's rank.
type gkTuple struct {
	v     int64
	g     int64
	delta int64
}

// NewGK returns an empty summary with error parameter eps.
func NewGK(eps float64) *GK {
	if !(eps > 0 && eps < 1) {
		panic("quantile: NewGK needs 0 < eps < 1")
	}
	return &GK{eps: eps}
}

// N returns the number of inserted values.
func (g *GK) N() int64 { return g.n }

// Size returns the number of stored tuples.
func (g *GK) Size() int { return len(g.tuple) }

// Insert adds a value to the summary.
func (g *GK) Insert(v int64) {
	g.n++
	idx := sort.Search(len(g.tuple), func(i int) bool { return g.tuple[i].v >= v })
	var delta int64
	if idx > 0 && idx < len(g.tuple) {
		delta = int64(2*g.eps*float64(g.n)) - 1
		if delta < 0 {
			delta = 0
		}
	}
	t := gkTuple{v: v, g: 1, delta: delta}
	g.tuple = append(g.tuple, gkTuple{})
	copy(g.tuple[idx+1:], g.tuple[idx:])
	g.tuple[idx] = t
	// Compress periodically: every 1/(2ε) inserts keeps the size bound
	// without quadratic overhead.
	if g.n%int64(1/(2*g.eps)+1) == 0 {
		g.compress()
	}
}

// compress merges adjacent tuples whose combined span stays within 2εn.
func (g *GK) compress() {
	if len(g.tuple) < 3 {
		return
	}
	bound := int64(2 * g.eps * float64(g.n))
	out := g.tuple[:1]
	for i := 1; i < len(g.tuple)-1; i++ {
		t := g.tuple[i]
		last := &out[len(out)-1]
		// Merge t into its successor by accumulating g into the next
		// tuple — equivalently, drop t if the next tuple can absorb it.
		next := g.tuple[i+1]
		if t.g+next.g+next.delta <= bound && len(out) > 0 {
			// Fold t's gap into the successor (processed next round).
			g.tuple[i+1].g += t.g
			continue
		}
		_ = last
		out = append(out, t)
	}
	out = append(out, g.tuple[len(g.tuple)-1])
	g.tuple = append([]gkTuple(nil), out...)
}

// Query returns a value whose rank is within ε·n of q·n. It panics on an
// empty summary.
func (g *GK) Query(q float64) int64 {
	if len(g.tuple) == 0 {
		panic("quantile: Query on empty GK summary")
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(g.n)) + 1
	if target > g.n {
		target = g.n
	}
	bound := target + int64(g.eps*float64(g.n))
	var rmin int64
	for i, t := range g.tuple {
		rmin += t.g
		if rmin+t.delta > bound {
			if i == 0 {
				return t.v
			}
			return g.tuple[i-1].v
		}
	}
	return g.tuple[len(g.tuple)-1].v
}

// Merge folds another summary into this one (both keep their guarantees
// with the error parameters summed, per the standard mergeability result).
// Used by distributed quantile shipping.
func (g *GK) Merge(other *GK) error {
	if other.eps > g.eps {
		return fmt.Errorf("quantile: merging a coarser summary (ε=%v) into ε=%v", other.eps, g.eps)
	}
	merged := make([]gkTuple, 0, len(g.tuple)+len(other.tuple))
	i, j := 0, 0
	for i < len(g.tuple) && j < len(other.tuple) {
		if g.tuple[i].v <= other.tuple[j].v {
			merged = append(merged, g.tuple[i])
			i++
		} else {
			merged = append(merged, other.tuple[j])
			j++
		}
	}
	merged = append(merged, g.tuple[i:]...)
	merged = append(merged, other.tuple[j:]...)
	g.tuple = merged
	g.n += other.n
	g.compress()
	return nil
}
