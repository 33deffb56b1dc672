package freq

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/quantile"
	"repro/internal/stream"
)

func TestDyadicMapperCells(t *testing.T) {
	m := NewDyadicMapper(3)
	cells := m.CellsInto(nil, 5) // 101b
	// Level 1: prefix 1 → id 2+1 = 3; level 2: prefix 10b=2 → id 4+2 = 6;
	// level 3: prefix 101b=5 → id 8+5 = 13.
	want := []uint64{3, 6, 13}
	for i := range want {
		if cells[i] != want[i] {
			t.Fatalf("CellsInto(nil, 5) = %v, want %v", cells, want)
		}
	}
	// Ids unique across values and levels.
	seen := map[uint64]bool{}
	for v := uint64(0); v < 8; v++ {
		leaf := m.CellsInto(nil, v)[2]
		if seen[leaf] {
			t.Fatalf("duplicate leaf id for %d", v)
		}
		seen[leaf] = true
	}
}

func TestDyadicMapperEstimateIsLeaf(t *testing.T) {
	m := NewDyadicMapper(4)
	table := map[uint64]int64{}
	for _, c := range m.CellsInto(nil, 9) {
		table[c] = 7
	}
	got := m.Estimate(func(c uint64) int64 { return table[c] }, 9)
	if got != 7 {
		t.Fatalf("Estimate = %d", got)
	}
}

// runDyadic drives an insert/delete value workload and checks rank and
// quantile accuracy against a Fenwick-tree ground truth.
func runDyadic(t *testing.T, k int, eps float64, bits int, n int64, delProb float64, seed uint64) {
	t.Helper()
	rt, sites := NewDyadicRank(k, eps, bits)
	sim := dist.NewSim(rt, sites)
	ref := quantile.NewFenwick(1 << uint(bits))
	gen := stream.NewItemGen(n, 1<<uint(bits), 1.0, delProb, seed)
	st := stream.NewAssign(gen, stream.NewRoundRobin(k))
	var step int64
	checkEvery := n/30 + 1
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
		ref.Add(int(u.Item), u.Delta)
		step++
		if step%checkEvery != 0 || ref.Total() == 0 {
			continue
		}
		f1 := ref.Total()
		// Rank accuracy at a spread of probe points.
		for _, x := range []int64{0, 1 << uint(bits-2), 1 << uint(bits-1), 3 << uint(bits-2), 1<<uint(bits) - 1} {
			got := rt.Rank(x)
			want := ref.PrefixSum(int(x))
			if diff := absI64(got - want); float64(diff) > eps*float64(f1)+1e-9 {
				t.Fatalf("t=%d rank(%d) = %d, want %d ± %v (F1=%d)",
					step, x, got, want, eps*float64(f1), f1)
			}
		}
		// Quantile accuracy: the returned value's true rank must be within
		// 2εF1 of the target (one ε from Rank, one from the search).
		for _, q := range []float64{0.1, 0.5, 0.9} {
			val := rt.Quantile(q)
			rank := ref.PrefixSum(int(val))
			target := q * float64(f1)
			if diff := float64(rank) - target; diff > 2*eps*float64(f1)+2 || diff < -2*eps*float64(f1)-2 {
				t.Fatalf("t=%d quantile(%v) = %d with rank %d, target %v (F1=%d)",
					step, q, val, rank, target, f1)
			}
		}
	}
}

func TestDyadicRankAccuracy(t *testing.T) {
	runDyadic(t, 4, 0.2, 8, 20000, 0.25, 7)
}

func TestDyadicRankHighChurn(t *testing.T) {
	runDyadic(t, 3, 0.3, 6, 15000, 0.45, 11)
}

func TestDyadicRankEdgeCases(t *testing.T) {
	rt, sites := NewDyadicRank(2, 0.2, 4)
	sim := dist.NewSim(rt, sites)
	gen := stream.NewItemGen(200, 16, 1.0, 0, 3)
	st := stream.NewAssign(gen, stream.NewRoundRobin(2))
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
	}
	if rt.Rank(-1) != 0 {
		t.Fatal("Rank(-1) should be 0")
	}
	if got := rt.Rank(1 << 10); got != rt.F1() {
		t.Fatalf("Rank beyond universe = %d, want F1 = %d", got, rt.F1())
	}
	if q := rt.Quantile(0); q < 0 || q > 15 {
		t.Fatalf("Quantile(0) = %d", q)
	}
	if q := rt.Quantile(1); q < 0 || q > 15 {
		t.Fatalf("Quantile(1) = %d", q)
	}
}

func TestDyadicConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bits-low":  func() { NewDyadicMapper(0) },
		"bits-high": func() { NewDyadicMapper(31) },
		"eps":       func() { NewDyadicRank(1, 0, 8) },
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
