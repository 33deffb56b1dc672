package freq

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
)

// runFreq drives an item stream through the tracker, checking every
// checkEvery steps that all live items satisfy |f_ℓ − f̂_ℓ| ≤ bound·F1(n).
// It returns the number of violations, total checks, and the sim stats.
func runFreq(t *testing.T, tr *Tracker, sites []dist.SiteAlgo, k int,
	n int64, universe int, delProb float64, seed uint64,
	bound float64, checkEvery int64) (violations, checks int64, stats dist.Stats) {
	t.Helper()
	gen := stream.NewItemGen(n, universe, 1.0, delProb, seed)
	st := stream.NewAssign(gen, stream.NewRoundRobin(k))
	sim := dist.NewSim(tr, sites)

	exact := make(map[uint64]int64)
	var f1 int64
	var step int64
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
		if step%checkEvery != 0 {
			continue
		}
		for item, f := range exact {
			checks++
			if float64(absI64(f-tr.Frequency(item))) > bound*float64(f1)+1e-9 {
				violations++
			}
		}
	}
	return violations, checks, sim.Stats()
}

func TestExactTrackerDeterministicGuarantee(t *testing.T) {
	for _, k := range []int{2, 6} {
		for _, eps := range []float64{0.3, 0.1} {
			tr, sites := New(k, eps, ExactMapper{})
			viol, checks, _ := runFreq(t, tr, sites, k, 20000, 200, 0.3, 7, eps, 97)
			if checks == 0 {
				t.Fatal("no checks performed")
			}
			if viol != 0 {
				t.Errorf("k=%d eps=%g: %d/%d violations of the εF1 guarantee", k, eps, viol, checks)
			}
		}
	}
}

func TestExactTrackerF1Estimate(t *testing.T) {
	k, eps := 4, 0.1
	tr, sites := New(k, eps, ExactMapper{})
	gen := stream.NewItemGen(15000, 100, 1.0, 0.25, 3)
	st := stream.NewAssign(gen, stream.NewRoundRobin(k))
	sim := dist.NewSim(tr, sites)
	var f1 int64
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
		f1 += u.Delta
		if diff := absI64(f1 - tr.F1()); float64(diff) > eps*float64(f1)+1e-9 {
			t.Fatalf("F1 estimate %d off from %d beyond εF1", tr.F1(), f1)
		}
	}
}

func TestCountMinTrackerGuarantee(t *testing.T) {
	// Count-Min adds εF1/3 collision error with probability ≥ 8/9 per
	// query; allow the full ε bound plus a small violation rate.
	k, eps := 4, 0.2
	tr, sites := New(k, eps, NewCMMapper(eps, 3, 42))
	viol, checks, _ := runFreq(t, tr, sites, k, 20000, 500, 0.25, 11, eps, 101)
	if checks == 0 {
		t.Fatal("no checks performed")
	}
	if frac := float64(viol) / float64(checks); frac > 0.12 {
		t.Errorf("CM-backed violations %v of %d checks", frac, checks)
	}
}

func TestCRPrecisTrackerDeterministicGuarantee(t *testing.T) {
	// CR-precis is fully deterministic: zero violations allowed.
	k, eps := 3, 0.3
	universeBits := 10
	tr, sites := New(k, eps, NewCRMapper(eps, universeBits))
	viol, checks, _ := runFreq(t, tr, sites, k, 15000, 1<<universeBits, 0.25, 13, eps, 103)
	if checks == 0 {
		t.Fatal("no checks performed")
	}
	if viol != 0 {
		t.Errorf("CR-backed violations %d of %d checks", viol, checks)
	}
}

func TestSketchBackedSiteSpaceBounded(t *testing.T) {
	// The whole point of H.0.2: site state is O(cells), not O(|U|).
	k, eps := 2, 0.1
	universe := 5000
	mapper := NewCMMapper(eps, 2, 9)
	tr, sites := New(k, eps, mapper)
	gen := stream.NewItemGen(30000, universe, 0.9, 0.2, 17)
	st := stream.NewAssign(gen, stream.NewRoundRobin(k))
	sim := dist.NewSim(tr, sites)
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
	}
	for i, cells := range tr.SiteLiveCells() {
		if cells > mapper.NumCells() {
			t.Errorf("site %d holds %d cells > sketch size %d", i, cells, mapper.NumCells())
		}
	}
	// And the exact mapper would have needed up to `universe` counters;
	// verify the sketch is materially smaller.
	if mapper.NumCells() >= universe {
		t.Fatalf("sketch (%d cells) not smaller than universe (%d)", mapper.NumCells(), universe)
	}
}

func TestHeavyHittersExact(t *testing.T) {
	k, eps := 3, 0.05
	tr, sites := New(k, eps, ExactMapper{})
	// Skewed stream: item 0 dominates under Zipf(1.5).
	gen := stream.NewItemGen(20000, 50, 1.5, 0.1, 23)
	st := stream.NewAssign(gen, stream.NewRoundRobin(k))
	sim := dist.NewSim(tr, sites)
	exact := make(map[uint64]int64)
	var f1 int64
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
		exact[u.Item] += u.Delta
		f1 += u.Delta
	}
	phi := 0.2
	hh := tr.HeavyHitters(phi)
	// Every item with f_ℓ ≥ (φ+ε)·F1 must be in the set; nothing with
	// f_ℓ < (φ−ε)·F1 may be.
	for item, f := range exact {
		frac := float64(f) / float64(f1)
		_, in := hh[item]
		if frac >= phi+eps && !in {
			t.Errorf("item %d with share %v missing from heavy hitters", item, frac)
		}
		if frac < phi-eps && in {
			t.Errorf("item %d with share %v wrongly in heavy hitters", item, frac)
		}
	}
}

func TestFrequencyNeverNegative(t *testing.T) {
	k, eps := 2, 0.2
	tr, sites := New(k, eps, NewCMMapper(eps, 2, 5))
	gen := stream.NewItemGen(5000, 100, 1.0, 0.4, 31)
	st := stream.NewAssign(gen, stream.NewRoundRobin(k))
	sim := dist.NewSim(tr, sites)
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
		if tr.Frequency(u.Item) < 0 {
			t.Fatalf("negative frequency estimate at t=%d", u.T)
		}
	}
}

func TestCommunicationScalesWithVariability(t *testing.T) {
	// A growing dataset (low deletion rate → low F1-variability) must use
	// far fewer messages than n; a heavily churning one more.
	k, eps := 4, 0.1
	tr1, sites1 := New(k, eps, ExactMapper{})
	_, _, stGrow := runFreq(t, tr1, sites1, k, 30000, 300, 0.05, 41, 1.0, 1<<30)

	if frac := float64(stGrow.Total()) / 30000; frac > 0.9 {
		t.Errorf("growing dataset used %v messages/update; expected savings", frac)
	}
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"k":    func() { New(0, 0.1, ExactMapper{}) },
		"eps":  func() { New(1, 0, ExactMapper{}) },
		"eps2": func() { New(1, 1.5, ExactMapper{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestBlockThresholdsMatchPow pins the Ldexp form of the per-counter
// threshold to the math.Pow(2, r) form it replaces, bit for bit, for
// every r in [−1100, 1100] and shift-hostile values. (The F1 threshold is
// the §3.3 one, pinned by track's TestScalesMatchPow.)
func TestBlockThresholdsMatchPow(t *testing.T) {
	rs := []int64{63, 64, 1 << 62, -1 << 62}
	for r := int64(-1100); r <= 1100; r++ {
		rs = append(rs, r)
	}
	for _, r := range rs {
		for _, eps := range []float64{1e-9, 0.001, 0.05, 0.1, 1.0 / 3, 0.999999} {
			want := eps * math.Pow(2, float64(r)) / 3
			if got := cellThreshold(eps, r); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cellThreshold(%g, %d) = %v, math.Pow form %v", eps, r, got, want)
			}
		}
	}
}
