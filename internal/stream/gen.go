package stream

import "repro/internal/rng"

// Gen is a delta generator: it produces the next f'(t) given the current
// value f(t−1). Generators produce Site = 0; wrap with NewAssign to spread
// updates across sites. A Gen is consumed once; to replay a workload, call
// its constructor again with the same arguments, which yields the same
// sequence.
type Gen struct {
	n     int64
	t     int64
	f     int64
	delta func(t, f int64) int64
}

// NewGen returns a stream of n updates whose deltas are produced by fn,
// which receives the timestep t (1-based) and the value f(t−1). fn owns
// whatever state it closes over, typically an rng seeded by the
// constructor that calls NewGen.
func NewGen(n int64, fn func(t, f int64) int64) *Gen {
	return &Gen{n: n, delta: fn}
}

// Next implements Stream.
func (g *Gen) Next() (Update, bool) {
	if g.t >= g.n {
		return Update{}, false
	}
	g.t++
	d := g.delta(g.t, g.f)
	g.f += d
	return Update{T: g.t, Delta: d}, true
}

// NextBatch implements BatchStream: one virtual call fills the whole
// buffer, with the delta closure, timestep, and value kept in registers
// across the fill.
func (g *Gen) NextBatch(buf []Update) int {
	left := g.n - g.t
	if left <= 0 {
		return 0
	}
	if int64(len(buf)) > left {
		buf = buf[:left]
	}
	t, f, delta := g.t, g.f, g.delta
	for i := range buf {
		t++
		d := delta(t, f)
		f += d
		buf[i] = Update{T: t, Delta: d}
	}
	g.t, g.f = t, f
	return len(buf)
}

// Monotone returns the canonical monotone stream: n updates of +1.
// Its variability is O(log n) (theorem 2.1 of the paper with β = 1).
func Monotone(n int64) Stream {
	return NewGen(n, func(t, f int64) int64 { return 1 })
}

// MonotoneBulk returns a monotone stream of n updates with deltas drawn
// uniformly from [1, maxStep]. Used with the appendix-C splitter.
func MonotoneBulk(n int64, maxStep int64, seed uint64) Stream {
	src := rng.New(seed)
	return NewGen(n, func(t, f int64) int64 { return 1 + src.Int63n(maxStep) })
}

// NearlyMonotone returns a stream of n ±1 updates in which deletions occur
// with probability q = β/(1+2β), so that in expectation the total deletion
// mass f−(n) is about β·f(n). Theorem 2.1 then gives variability
// O(β log(β f(n))). A floor at f ≥ 1 keeps the prefix positive, matching the
// "database that grows more than it shrinks" motivation in section 2.
func NearlyMonotone(n int64, beta float64, seed uint64) Stream {
	if beta < 0 {
		panic("stream: NearlyMonotone needs beta >= 0")
	}
	q := beta / (1 + 2*beta)
	src := rng.New(seed)
	return NewGen(n, func(t, f int64) int64 {
		if f <= 1 {
			return 1
		}
		if src.Bernoulli(q) {
			return -1
		}
		return 1
	})
}

// RandomWalk returns the symmetric ±1 random walk of theorem 2.2, whose
// expected variability is O(√n·log n).
func RandomWalk(n int64, seed uint64) Stream {
	src := rng.New(seed)
	return NewGen(n, func(t, f int64) int64 { return src.PlusMinusOne(0.5) })
}

// BiasedWalk returns the ±1 walk with drift mu of theorem 2.4:
// P(f'(t) = +1) = (1+mu)/2. Expected variability is O(log(n)/mu) for mu > 0.
func BiasedWalk(n int64, mu float64, seed uint64) Stream {
	if mu < -1 || mu > 1 {
		panic("stream: BiasedWalk needs mu in [-1, 1]")
	}
	p := (1 + mu) / 2
	src := rng.New(seed)
	return NewGen(n, func(t, f int64) int64 { return src.PlusMinusOne(p) })
}

// Sawtooth returns a deterministic stream that climbs +1 for `up` steps and
// then descends −1 for `down` steps, repeating. With down < up the stream is
// nearly monotone; with down = up it oscillates over a fixed range.
func Sawtooth(n, up, down int64) Stream {
	if up <= 0 || down < 0 {
		panic("stream: Sawtooth needs up > 0 and down >= 0")
	}
	period := up + down
	return NewGen(n, func(t, f int64) int64 {
		phase := (t - 1) % period
		if phase < up {
			return 1
		}
		return -1
	})
}

// Flip returns the worst-case stream for relative-error tracking: f
// alternates between 1 and 0, so every step has v'(t) = 1 and the
// variability is v(n) = n. Any correct tracker is forced to communicate
// at essentially every step (section 1 of the paper: Ω(n) in general).
func Flip(n int64) Stream {
	return NewGen(n, func(t, f int64) int64 {
		if f == 0 {
			return 1
		}
		return -1
	})
}

// LevelSwitch returns the lower-bound-style stream of section 4: f starts at
// base and occasionally jumps between base and base+jump; each jump is
// expanded into `jump` consecutive ±1 updates so the stream is a legal ±1
// update stream. Switch times are Bernoulli(p) per step, as in lemma 4.4.
func LevelSwitch(n int64, base, jump int64, p float64, seed uint64) Stream {
	if base <= 0 || jump <= 0 {
		panic("stream: LevelSwitch needs base > 0 and jump > 0")
	}
	src := rng.New(seed)
	var pending int64 // remaining ±1 steps of an in-progress jump
	var dir int64 = 1
	level := base // target level: base or base+jump
	// Climb to base first so that f reaches the operating range.
	warm := base
	return NewGen(n, func(t, f int64) int64 {
		if warm > 0 {
			warm--
			return 1
		}
		if pending > 0 {
			pending--
			return dir
		}
		if f != level {
			// Return to the level after a jitter step.
			if f < level {
				return 1
			}
			return -1
		}
		if src.Bernoulli(p) {
			if level == base {
				level = base + jump
				dir = 1
			} else {
				level = base
				dir = -1
			}
			pending = jump - 1
			return dir
		}
		// Hold the level. A zero delta is not an update, so jitter +1 here
		// and −1 on the next step; this perturbs variability only by
		// O(1/base) per step.
		return 1
	})
}

// ZeroCrossing returns a stream that repeatedly ramps from −amp to +amp and
// back, crossing f = 0 every half-period. It exercises the f(t) = 0 special
// case in the variability definition and the sign-change accounting of the
// single-site tracker (appendix I).
func ZeroCrossing(n, amp int64) Stream {
	if amp <= 0 {
		panic("stream: ZeroCrossing needs amp > 0")
	}
	period := 4 * amp
	return NewGen(n, func(t, f int64) int64 {
		// One period: 0 → +amp → −amp → 0.
		phase := (t - 1) % period
		switch {
		case phase < amp:
			return 1
		case phase < 3*amp:
			return -1
		default:
			return 1
		}
	})
}

// BulkWalk returns a stream of n updates with deltas uniform in
// [−maxStep, maxStep] excluding 0, floored so f never goes below 0.
// It feeds the appendix-C large-update splitter experiments.
func BulkWalk(n int64, maxStep int64, seed uint64) Stream {
	if maxStep <= 0 {
		panic("stream: BulkWalk needs maxStep > 0")
	}
	src := rng.New(seed)
	return NewGen(n, func(t, f int64) int64 {
		for {
			d := src.Int63n(2*maxStep+1) - maxStep
			if d == 0 {
				continue
			}
			if f+d < 0 {
				d = -d
			}
			return d
		}
	})
}

// Class identifies a named stream family for parameter sweeps in the
// experiment harness.
type Class struct {
	// Name is a short identifier used in experiment tables.
	Name string
	// Make builds an instance of the class with n updates and the seed.
	Make func(n int64, seed uint64) Stream
}

// Classes returns the standard set of input classes the paper analyzes,
// in the order they appear in the text.
func Classes() []Class {
	return []Class{
		{Name: "monotone", Make: func(n int64, seed uint64) Stream { return Monotone(n) }},
		{Name: "nearmono-b2", Make: func(n int64, seed uint64) Stream { return NearlyMonotone(n, 2, seed) }},
		{Name: "randwalk", Make: func(n int64, seed uint64) Stream { return RandomWalk(n, seed) }},
		{Name: "biased-mu.1", Make: func(n int64, seed uint64) Stream { return BiasedWalk(n, 0.1, seed) }},
		{Name: "sawtooth", Make: func(n int64, seed uint64) Stream { return Sawtooth(n, 64, 32) }},
		{Name: "bursty", Make: func(n int64, seed uint64) Stream { return Bursty(n, 0.002, 32, seed) }},
		{Name: "meanrev-500", Make: func(n int64, seed uint64) Stream { return MeanReverting(n, 500, 0.5, seed) }},
		{Name: "flip", Make: func(n int64, seed uint64) Stream { return Flip(n) }},
	}
}
