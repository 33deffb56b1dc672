package stream

import (
	"slices"
	"testing"
)

// TestConstructorReplaysIdentically checks that every generator, each
// class and the combinators yield the same updates when built twice from
// the same arguments, read through Next and through NextBatch at several
// buffer sizes. Experiments and the benchmark replay a workload by calling
// its constructor again, so this is the property they rely on.
func TestConstructorReplaysIdentically(t *testing.T) {
	const n = 512
	cases := []struct {
		name string
		mk   func() Stream
	}{
		{"monotone", func() Stream { return Monotone(n) }},
		{"monotone-bulk", func() Stream { return MonotoneBulk(n, 16, 5) }},
		{"nearly-monotone", func() Stream { return NearlyMonotone(n, 2, 7) }},
		{"randwalk", func() Stream { return RandomWalk(n, 7) }},
		{"biased", func() Stream { return BiasedWalk(n, 0.2, 7) }},
		{"sawtooth", func() Stream { return Sawtooth(n, 8, 4) }},
		{"flip", func() Stream { return Flip(n) }},
		{"levelswitch", func() Stream { return LevelSwitch(n, 32, 16, 0.05, 7) }},
		{"zerocross", func() Stream { return ZeroCrossing(n, 10) }},
		{"bulkwalk", func() Stream { return BulkWalk(n, 8, 7) }},
		{"bursty", func() Stream { return Bursty(n, 0.05, 8, 7) }},
		{"meanrev", func() Stream { return MeanReverting(n, 50, 0.5, 7) }},
		{"itemgen", func() Stream { return NewItemGen(n, 64, 1.0, 0.3, 7) }},
		{"splitbulk", func() Stream { return NewSplitBulk(BulkWalk(n/8, 8, 7)) }},
		{"limit", func() Stream { return NewLimit(RandomWalk(n, 7), n/2) }},
		{"concat", func() Stream { return NewConcat(Monotone(n/4), RandomWalk(n/4, 7)) }},
		{"assign-rr", func() Stream { return NewAssign(RandomWalk(n, 7), NewRoundRobin(4)) }},
		{"assign-uniform", func() Stream { return NewAssign(RandomWalk(n, 7), NewUniformRandom(4, 9)) }},
		{"assign-skewed", func() Stream { return NewAssign(RandomWalk(n, 7), NewSkewed(4, 1.2, 9)) }},
		{"slice", func() Stream { return NewSlice(Collect(RandomWalk(64, 7))) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := Collect(c.mk())
			if len(want) == 0 {
				t.Fatal("stream is empty")
			}
			if got := Collect(c.mk()); !slices.Equal(got, want) {
				t.Fatalf("second build diverges through Next (%d vs %d updates)", len(got), len(want))
			}
			for _, bufSize := range []int{1, 7, 256} {
				if got := collectBatched(c.mk(), bufSize); !slices.Equal(got, want) {
					t.Fatalf("buf=%d: second build diverges through NextBatch (%d vs %d updates)",
						bufSize, len(got), len(want))
				}
			}
		})
	}
}
