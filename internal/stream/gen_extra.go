package stream

import "repro/internal/rng"

// Additional input classes beyond the ones the paper analyzes explicitly.
// They exercise regimes the theorems predict qualitatively: bursty traffic
// (short adversarial high-variability episodes inside an otherwise calm
// stream) and mean-reverting load (a stationary process whose variability
// is governed by its operating level).

// Bursty returns a stream that is monotone (+1) most of the time but, with
// probability burstProb per step, enters a burst: a run of `burstLen`
// alternating ±1 updates. Bursts model the "highly variable episodes" of
// the paper's introduction: each burst at level f adds ~burstLen/|f| to the
// variability, so infrequent bursts leave v barely above the monotone
// baseline — exactly the graceful degradation the framework promises.
func Bursty(n int64, burstProb float64, burstLen int64, seed uint64) Stream {
	if burstLen < 1 {
		panic("stream: Bursty needs burstLen >= 1")
	}
	src := rng.New(seed)
	var pending int64
	var dir int64 = -1
	return NewGen(n, func(t, f int64) int64 {
		if pending > 0 {
			pending--
			dir = -dir
			if f+dir < 0 {
				return -dir
			}
			return dir
		}
		if src.Bernoulli(burstProb) {
			pending = burstLen - 1
			dir = -1
			return dir * boolToSign(f > 0)
		}
		return 1
	})
}

func boolToSign(b bool) int64 {
	if b {
		return 1
	}
	return -1
}

// MeanReverting returns an integer Ornstein-Uhlenbeck-style stream: ±1
// steps biased toward a target level L with strength theta, so f hovers
// around L. Its variability is ~n/L: the higher the operating level, the
// cheaper the stream is to track — the quantitative version of "databases
// are interesting because they tend to grow" from §2.
func MeanReverting(n int64, level int64, theta float64, seed uint64) Stream {
	if level < 1 {
		panic("stream: MeanReverting needs level >= 1")
	}
	if theta < 0 || theta > 1 {
		panic("stream: MeanReverting needs theta in [0, 1]")
	}
	src := rng.New(seed)
	return NewGen(n, func(t, f int64) int64 {
		// Pull probability toward the level proportional to displacement.
		disp := float64(f-level) / float64(level)
		pUp := 0.5 - theta*disp/2
		if pUp < 0.05 {
			pUp = 0.05
		}
		if pUp > 0.95 {
			pUp = 0.95
		}
		return src.PlusMinusOne(pUp)
	})
}
