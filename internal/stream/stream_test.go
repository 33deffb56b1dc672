package stream

import (
	"testing"
	"testing/quick"
)

func TestSliceStream(t *testing.T) {
	ups := []Update{{T: 1, Delta: 1}, {T: 2, Delta: -1}, {T: 3, Delta: 1}}
	s := NewSlice(ups)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	got := Collect(s)
	if len(got) != 3 {
		t.Fatalf("collected %d updates", len(got))
	}
	for i := range got {
		if got[i] != ups[i] {
			t.Fatalf("update %d = %+v, want %+v", i, got[i], ups[i])
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream returned an update")
	}
}

func TestValuesAndFinalValue(t *testing.T) {
	ups := []Update{{T: 1, Delta: 2}, {T: 2, Delta: -1}, {T: 3, Delta: 5}}
	vals := Values(ups)
	want := []int64{2, 1, 6}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("Values[%d] = %d, want %d", i, vals[i], want[i])
		}
	}
	if fv := FinalValue(ups); fv != 6 {
		t.Fatalf("FinalValue = %d", fv)
	}
}

func TestLimit(t *testing.T) {
	s := NewLimit(Monotone(100), 7)
	got := Collect(s)
	if len(got) != 7 {
		t.Fatalf("Limit yielded %d updates", len(got))
	}
}

func TestConcatRenumbers(t *testing.T) {
	c := NewConcat(Monotone(3), Flip(4))
	got := Collect(c)
	if len(got) != 7 {
		t.Fatalf("Concat yielded %d updates", len(got))
	}
	for i, u := range got {
		if u.T != int64(i+1) {
			t.Fatalf("update %d has T=%d", i, u.T)
		}
	}
}

func TestMonotone(t *testing.T) {
	got := Collect(Monotone(1000))
	if len(got) != 1000 {
		t.Fatalf("got %d updates", len(got))
	}
	for i, u := range got {
		if u.Delta != 1 {
			t.Fatalf("monotone delta at %d = %d", i, u.Delta)
		}
		if u.T != int64(i+1) {
			t.Fatalf("timestep at %d = %d", i, u.T)
		}
	}
	if FinalValue(got) != 1000 {
		t.Fatalf("final value %d", FinalValue(got))
	}
}

func TestMonotoneBulkPositive(t *testing.T) {
	got := Collect(MonotoneBulk(1000, 50, 1))
	for i, u := range got {
		if u.Delta < 1 || u.Delta > 50 {
			t.Fatalf("bulk delta at %d = %d", i, u.Delta)
		}
	}
}

func TestNearlyMonotoneStaysPositive(t *testing.T) {
	got := Collect(NearlyMonotone(100000, 2, 7))
	var f int64
	for i, u := range got {
		if u.Delta != 1 && u.Delta != -1 {
			t.Fatalf("delta at %d = %d", i, u.Delta)
		}
		f += u.Delta
		if f < 1 {
			t.Fatalf("f dipped to %d at step %d", f, i+1)
		}
	}
}

func TestNearlyMonotoneDeletionMass(t *testing.T) {
	// With beta = 2 the deletion mass f−(n) should be ≲ 2·f(n) (theorem 2.1
	// premise); allow slack for stochastic variation.
	got := Collect(NearlyMonotone(200000, 2, 11))
	var f, fminus int64
	for _, u := range got {
		f += u.Delta
		if u.Delta < 0 {
			fminus -= u.Delta
		}
	}
	if float64(fminus) > 2.5*float64(f) {
		t.Fatalf("f− = %d exceeds 2.5·f = %v", fminus, 2.5*float64(f))
	}
	if fminus == 0 {
		t.Fatal("no deletions generated")
	}
}

func TestRandomWalkDeltas(t *testing.T) {
	got := Collect(RandomWalk(10000, 3))
	var plus, minus int
	for _, u := range got {
		switch u.Delta {
		case 1:
			plus++
		case -1:
			minus++
		default:
			t.Fatalf("walk delta = %d", u.Delta)
		}
	}
	if plus < 4500 || minus < 4500 {
		t.Fatalf("walk unbalanced: +%d −%d", plus, minus)
	}
}

func TestBiasedWalkDrift(t *testing.T) {
	got := Collect(BiasedWalk(100000, 0.2, 5))
	f := FinalValue(got)
	// Expected final value 0.2·n = 20000; allow ±3σ ≈ ±3·√n.
	if f < 19000 || f > 21000 {
		t.Fatalf("biased walk final value %d, want ~20000", f)
	}
}

func TestBiasedWalkPanicsOnBadMu(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for mu out of range")
		}
	}()
	BiasedWalk(10, 2, 1)
}

func TestSawtoothShape(t *testing.T) {
	got := Collect(Sawtooth(30, 3, 2))
	vals := Values(got)
	// Pattern: up 3, down 2 → values 1,2,3,2,1, 2,3,4,3,2, ...
	want := []int64{1, 2, 3, 2, 1, 2, 3, 4, 3, 2}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("sawtooth vals[%d] = %d, want %d (all: %v)", i, vals[i], want[i], vals[:10])
		}
	}
}

func TestFlipAlternates(t *testing.T) {
	got := Collect(Flip(10))
	vals := Values(got)
	for i, v := range vals {
		want := int64((i + 1) % 2)
		if v != want {
			t.Fatalf("flip vals[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestZeroCrossingCrosses(t *testing.T) {
	got := Collect(ZeroCrossing(400, 10))
	vals := Values(got)
	sawPos, sawNeg := false, false
	for _, v := range vals {
		if v > 5 {
			sawPos = true
		}
		if v < -5 {
			sawNeg = true
		}
		if v > 10 || v < -10 {
			t.Fatalf("zero-crossing exceeded amplitude: %d", v)
		}
	}
	if !sawPos || !sawNeg {
		t.Fatalf("stream did not cross zero: pos=%v neg=%v", sawPos, sawNeg)
	}
}

func TestLevelSwitchOperatingRange(t *testing.T) {
	base, jump := int64(10), int64(3)
	got := Collect(LevelSwitch(5000, base, jump, 0.05, 9))
	vals := Values(got)
	// After warmup the value should stay within [base−1, base+jump+1].
	for i := int(base); i < len(vals); i++ {
		if vals[i] < base-1 || vals[i] > base+jump+1 {
			t.Fatalf("level switch out of range at %d: %d", i, vals[i])
		}
	}
}

func TestBulkWalkNonNegative(t *testing.T) {
	got := Collect(BulkWalk(10000, 20, 13))
	var f int64
	for i, u := range got {
		if u.Delta == 0 || u.Delta > 20 || u.Delta < -20 {
			t.Fatalf("bulk delta at %d = %d", i, u.Delta)
		}
		f += u.Delta
		if f < 0 {
			t.Fatalf("f went negative at step %d", i)
		}
	}
}

func TestClassesProduceRequestedLength(t *testing.T) {
	for _, c := range Classes() {
		got := Collect(c.Make(500, 1))
		if len(got) != 500 {
			t.Fatalf("class %s yielded %d updates", c.Name, len(got))
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	mk := func() []Update { return Collect(RandomWalk(1000, 42)) }
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random walk not deterministic at %d", i)
		}
	}
}

func TestRoundRobinAssigner(t *testing.T) {
	a := NewRoundRobin(3)
	if a.K() != 3 {
		t.Fatalf("K = %d", a.K())
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := a.Site(int64(i + 1)); got != w {
			t.Fatalf("Site(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestUniformRandomAssignerRange(t *testing.T) {
	a := NewUniformRandom(5, 1)
	counts := make([]int, 5)
	for i := int64(1); i <= 10000; i++ {
		s := a.Site(i)
		if s < 0 || s >= 5 {
			t.Fatalf("site %d out of range", s)
		}
		counts[s]++
	}
	for i, c := range counts {
		if c < 1500 || c > 2500 {
			t.Fatalf("site %d count %d far from uniform", i, c)
		}
	}
}

func TestSkewedAssignerSkew(t *testing.T) {
	a := NewSkewed(8, 1.2, 2)
	counts := make([]int, 8)
	for i := int64(1); i <= 20000; i++ {
		counts[a.Site(i)]++
	}
	if counts[0] <= counts[7] {
		t.Fatalf("skewed assigner not skewed: %v", counts)
	}
}

func TestSingleAssigner(t *testing.T) {
	a := NewSingle(4)
	for i := int64(1); i <= 100; i++ {
		if a.Site(i) != 0 {
			t.Fatal("Single assigner returned nonzero site")
		}
	}
	if a.K() != 4 {
		t.Fatalf("K = %d", a.K())
	}
}

func TestAssignDecorator(t *testing.T) {
	s := NewAssign(Monotone(9), NewRoundRobin(3))
	got := Collect(s)
	for i, u := range got {
		if u.Site != i%3 {
			t.Fatalf("update %d assigned to site %d", i, u.Site)
		}
	}
}

func TestAssignerPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"roundrobin": func() { NewRoundRobin(0) },
		"uniform":    func() { NewUniformRandom(0, 1) },
		"skewed":     func() { NewSkewed(0, 1, 1) },
		"single":     func() { NewSingle(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want panic for k=0", name)
				}
			}()
			fn()
		}()
	}
}

func TestItemGenNonNegativeFrequencies(t *testing.T) {
	g := NewItemGen(20000, 100, 1.0, 0.4, 3)
	counts := make(map[uint64]int64)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		counts[u.Item] += u.Delta
		if counts[u.Item] < 0 {
			t.Fatalf("item %d frequency went negative at t=%d", u.Item, u.T)
		}
	}
	// Generator's own bookkeeping must agree with the replay.
	final := g.Counts()
	for item, c := range counts {
		if c == 0 {
			continue
		}
		if final[item] != c {
			t.Fatalf("item %d: generator says %d, replay says %d", item, final[item], c)
		}
	}
	for item, c := range final {
		if counts[item] != c {
			t.Fatalf("item %d: generator reports %d but replay has %d", item, c, counts[item])
		}
	}
}

func TestItemGenSizeMatchesF1(t *testing.T) {
	g := NewItemGen(5000, 50, 0.8, 0.3, 4)
	ups := Collect(g)
	_, f1 := ExactFrequencies(ups)
	if g.Size() != f1[len(f1)-1] {
		t.Fatalf("generator Size=%d, replay F1=%d", g.Size(), f1[len(f1)-1])
	}
	for i, v := range f1 {
		if v < 0 {
			t.Fatalf("F1 negative at step %d: %d", i, v)
		}
	}
}

func TestItemGenDeleteProbZero(t *testing.T) {
	g := NewItemGen(1000, 10, 1.0, 0, 5)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		if u.Delta != 1 {
			t.Fatalf("delProb=0 produced a deletion at t=%d", u.T)
		}
	}
}

func TestExactFrequenciesDropsZeroes(t *testing.T) {
	ups := []Update{
		{T: 1, Delta: 1, Item: 7},
		{T: 2, Delta: 1, Item: 8},
		{T: 3, Delta: -1, Item: 7},
	}
	final, f1 := ExactFrequencies(ups)
	if _, ok := final[7]; ok {
		t.Fatal("item 7 should have been removed at frequency 0")
	}
	if final[8] != 1 {
		t.Fatalf("item 8 frequency = %d", final[8])
	}
	wantF1 := []int64{1, 2, 1}
	for i := range wantF1 {
		if f1[i] != wantF1[i] {
			t.Fatalf("f1[%d] = %d, want %d", i, f1[i], wantF1[i])
		}
	}
}

func TestStreamPropertySumOfDeltasEqualsValues(t *testing.T) {
	f := func(seed uint64) bool {
		ups := Collect(RandomWalk(200, seed))
		vals := Values(ups)
		var f int64
		for i, u := range ups {
			f += u.Delta
			if vals[i] != f {
				return false
			}
		}
		return FinalValue(ups) == f
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
