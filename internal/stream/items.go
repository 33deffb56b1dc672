package stream

import "repro/internal/rng"

// ItemGen produces the insert/delete item streams of appendix H: at each
// timestep either some item ℓ is added to the dataset D (Delta = +1) or an
// item currently in D is removed (Delta = −1). The generator maintains the
// multiset so deletions always target a present item, keeping every
// frequency nonnegative — the invariant the problem definition requires.
type ItemGen struct {
	n       int64
	t       int64
	delProb float64
	src     *rng.Xoshiro256
	zipf    *rng.Zipf
	// present tracks the current multiset as a flat list of item ids so a
	// uniform deletion target can be drawn in O(1).
	present []uint64
	counts  map[uint64]int64
}

// NewItemGen returns an item stream of n updates over a universe of size
// universe. Items are drawn Zipf(s)-distributed; each step is a deletion
// with probability delProb (when the dataset is non-empty), else an insert.
// Deletions remove a uniformly random present item, which preserves the
// Zipf shape of the surviving dataset.
func NewItemGen(n int64, universe int, s, delProb float64, seed uint64) *ItemGen {
	if universe <= 0 {
		panic("stream: NewItemGen needs universe > 0")
	}
	if delProb < 0 || delProb >= 1 {
		panic("stream: NewItemGen needs 0 <= delProb < 1")
	}
	src := rng.New(seed)
	return &ItemGen{
		n:       n,
		delProb: delProb,
		src:     src,
		zipf:    rng.NewZipf(src.Fork(0xD1CE), universe, s),
		counts:  make(map[uint64]int64),
	}
}

// Next implements Stream.
func (g *ItemGen) Next() (Update, bool) {
	if g.t >= g.n {
		return Update{}, false
	}
	g.t++
	if len(g.present) > 0 && g.src.Bernoulli(g.delProb) {
		// Delete a uniformly random present item: swap-remove.
		idx := g.src.Intn(len(g.present))
		item := g.present[idx]
		g.present[idx] = g.present[len(g.present)-1]
		g.present = g.present[:len(g.present)-1]
		g.counts[item]--
		if g.counts[item] == 0 {
			delete(g.counts, item)
		}
		return Update{T: g.t, Delta: -1, Item: item}, true
	}
	item := uint64(g.zipf.Sample())
	g.present = append(g.present, item)
	g.counts[item]++
	return Update{T: g.t, Delta: 1, Item: item}, true
}

// NextBatch implements BatchStream. The insert/delete decision consults
// mutable multiset state per draw, so the batch is a straight loop over the
// single-update logic — the win is one virtual call per buffer instead of
// one per update.
func (g *ItemGen) NextBatch(buf []Update) int {
	n := 0
	for n < len(buf) {
		u, ok := g.Next()
		if !ok {
			break
		}
		buf[n] = u
		n++
	}
	return n
}

// Counts returns a copy of the current item frequencies. Intended for
// verifying tracker output in tests and experiments.
func (g *ItemGen) Counts() map[uint64]int64 {
	out := make(map[uint64]int64, len(g.counts))
	for k, v := range g.counts {
		out[k] = v
	}
	return out
}

// Size returns |D(t)|, the current first frequency moment F1.
func (g *ItemGen) Size() int64 { return int64(len(g.present)) }

// ExactFrequencies replays a slice of item updates and returns, for each
// timestep t (1-based index into the returned slice), nothing — instead it
// returns the final frequency map and the F1 trajectory. Tests use the
// trajectory to check per-step error guarantees against εF1(t).
func ExactFrequencies(updates []Update) (final map[uint64]int64, f1 []int64) {
	final = make(map[uint64]int64)
	f1 = make([]int64, len(updates))
	var size int64
	for i, u := range updates {
		final[u.Item] += u.Delta
		if final[u.Item] == 0 {
			delete(final, u.Item)
		}
		size += u.Delta
		f1[i] = size
	}
	return final, f1
}
