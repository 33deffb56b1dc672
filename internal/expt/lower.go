package expt

import (
	"math/big"
	mrand "math/rand"

	"repro/internal/dist"
	"repro/internal/lowerbound"
	"repro/internal/markov"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/track"
)

// E15DetFamily reproduces theorem 4.1: the hard family's size, its fixed
// per-member variability, and the executable Index reduction — a tracker
// summary from which every input bit is decoded.
func E15DetFamily(cfg Config) *Table {
	t := NewTable("E15", "deterministic hard family: Ω((log n/ε)·v) bits",
		"m", "n", "r", "v (closed form)", "info bound bits", "decoded ok", "summary bits", "≥ bound")
	for _, m := range []int64{8, 16} {
		for _, p := range []struct {
			n    int64
			bits int
		}{{1 << 10, 16}, {1 << 12, 24}} {
			fam := lowerbound.DetFamily{M: m, N: p.n, R: p.bits}
			src := rng.New(cfg.Seed + uint64(m))
			x := src.Uint64() & ((1 << uint(p.bits)) - 1)
			decoded, sumBits := lowerbound.IndexGame(fam, x, p.bits)
			// The executable subfamily carries exactly `bits` bits of
			// Alice's input; the full-family entropy is log2 C(n,r).
			info := float64(p.bits)
			t.AddRow(d(m), d(p.n), di(p.bits), f3(fam.TheoremVariability(p.bits)),
				f1(info), b(decoded == x), d(sumBits), b(float64(sumBits) >= info))
		}
	}
	// Full-family rows: Alice's input is an arbitrary index into all
	// C(n,r) flip sets (combinadic unranking), carrying the complete
	// log2 C(n,r) bits of theorem 4.1.
	for _, m := range []int64{8} {
		fam := lowerbound.DetFamily{M: m, N: 256, R: 8}
		total := lowerbound.BigChoose(fam.N, int64(fam.R))
		src := rng.New(cfg.Seed + 99)
		idx := new(big.Int).Rand(mrand.New(xsrc{src}), total)
		decoded, sumBits := lowerbound.FullIndexGame(fam, idx)
		info := fam.InfoBound()
		t.AddRow(d(m), d(fam.N), di(fam.R), f3(fam.TheoremVariability(fam.R)),
			f1(info), b(decoded.Cmp(idx) == 0), d(sumBits), b(float64(sumBits) >= info))
	}
	t.AddNote("the Index reduction decodes Alice's bits from the tracker transcript;")
	t.AddNote("positional rows use a 2^r subfamily; the final row uses the full C(n,r)")
	t.AddNote("family via combinadic unranking — entropy log2 C(n,r) ≥ r·log2(n/r) bits")
	return t
}

// xsrc adapts the repository RNG to math/rand.Source for big.Int.Rand.
type xsrc struct{ src *rng.Xoshiro256 }

func (x xsrc) Int63() int64    { return int64(x.src.Uint64() >> 1) }
func (x xsrc) Seed(seed int64) {}

// E16RandFamily reproduces lemmas 4.3/4.4: sampled members of the switching
// family pairwise fail to match, mostly satisfy the variability budget, and
// the implied space bound is Ω(v/ε) bits.
func E16RandFamily(cfg Config) *Table {
	t := NewTable("E16", "randomized hard family: e^Ω(v/ε) members, no matches",
		"ε", "v budget", "n", "sampled", "kept", "matches", "match bound (C=1)", "space bound bits")
	size := cfg.trials(24)
	for _, eps := range []float64{0.25, 0.1} {
		for _, v := range []float64{200, 600} {
			n := cfg.scale(int64(10 * v / eps))
			rf := lowerbound.RandFamily{Eps: eps, V: v, N: n}
			res := rf.Build(size, cfg.Seed+uint64(v))
			t.AddRow(g3(eps), f1(v), d(n), di(size), di(len(res.Sequences)),
				di(res.MatchingPairs), g3(markov.MatchProbabilityBound(eps, v, 1)),
				f1(rf.SpaceBoundBits()))
		}
	}
	t.AddNote("matches must be 0; the theorem-scale space bound kicks in at v/ε ≥ 32400·lnC")
	return t
}

// E17Tracing reproduces appendix D: the communication transcript of a live
// tracker, replayed, answers every historical query within ε — so tracking
// space+communication is lower-bounded by tracing space.
func E17Tracing(cfg Config) *Table {
	t := NewTable("E17", "tracing by transcript replay: historical queries within ε",
		"stream", "k", "ε", "msgs", "summary bits", "max hist err", "ok")
	n := cfg.scale(100_000)
	k := 4
	for _, cls := range []string{"randwalk", "biased"} {
		for _, eps := range []float64{0.1, 0.05} {
			mk := func() stream.Stream {
				if cls == "randwalk" {
					return stream.RandomWalk(n, cfg.Seed)
				}
				return stream.BiasedWalk(n, 0.2, cfg.Seed)
			}
			coord, sites := track.NewDeterministic(k, eps)
			sim := dist.NewSim(coord, sites)
			summary := lowerbound.NewTranscriptSummary(func() dist.CoordAlgo {
				c, _ := track.NewDeterministic(k, eps)
				return c
			})
			sim.Recorder = summary.Recorder()
			st := stream.NewAssign(mk(), stream.NewRoundRobin(k))
			exact := make([]int64, 0, n)
			var f int64
			for {
				u, ok := st.Next()
				if !ok {
					break
				}
				sim.Step(u)
				f += u.Delta
				exact = append(exact, f)
			}
			ests := summary.QueryAll(int64(len(exact)))
			maxErr := 0.0
			okAll := true
			for i := range ests {
				rel, violated := relErr(exact[i], ests[i], eps)
				maxErr = max(maxErr, rel)
				okAll = okAll && !violated
			}
			t.AddRow(cls, di(k), g3(eps), d(sim.Stats().Total()),
				d(summary.SizeBits()), f4(maxErr), b(okAll))
		}
	}
	t.AddNote("ok must be true for every row: replaying the transcript reproduces the live estimates")
	return t
}

// E18OverlapChain reproduces appendix G's chain analysis: measured mixing
// times against the 3/(2p(1−p)) bound, and the empirical overlap tail
// against the Chung-Lam-Liu-Mitzenmacher bound.
func E18OverlapChain(cfg Config) *Table {
	t := NewTable("E18", "overlap chain: mixing time and match-probability tail",
		"p", "T measured", "T bound", "n", "trials", "P(Y ≥ .6n) empirical", "Chung bound (C=1)")
	trials := cfg.trials(400)
	for _, p := range []float64{0.02, 0.05, 0.1} {
		chain := markov.OverlapChain(p)
		T := chain.MixingTime(markov.OverlapStationary(), 1.0/8, 1_000_000)
		n := cfg.scale(40_000)
		// Each trial walks the chain on its own derived seed, so trials are
		// independent and parTrials can spread them over cfg.Workers.
		hits := cfg.parTrials(trials, func(i int) float64 {
			src := rng.New(cfg.Seed + uint64(p*1000) + 0x9E3779B9*uint64(i+1))
			w := chain.TotalWeight(markov.OverlapStationary(), markov.OverlapWeight(), int(n), src)
			if w >= 0.6*float64(n) {
				return 1
			}
			return 0
		})
		exceed := 0
		for _, h := range hits {
			if h == 1 {
				exceed++
			}
		}
		emp := float64(exceed) / float64(trials)
		bd := markov.ChungTail(0.2, 0.5, n, markov.AnalyticMixingBound(p), 1)
		t.AddRow(g3(p), di(T), f1(markov.AnalyticMixingBound(p)), d(n), di(trials), g3(emp), g3(bd))
	}
	t.AddNote("measured mixing time must sit below the analytic bound; the empirical tail")
	t.AddNote("should be dominated by the Chung bound up to its universal constant")
	return t
}

// E19NetTransport runs the deterministic tracker over real TCP sockets on
// loopback, in lockstep: after every update, NetCluster.Settle runs the
// network to quiescence — the TCP analogue of the lane's drain loop. That
// makes the message set (and hence this table) deterministic, and lets the
// experiment verify the strict per-step guarantee over real sockets rather
// than only convergence at the end.
func E19NetTransport(cfg Config) *Table {
	t := NewTable("E19", "end-to-end over TCP, lockstep: per-step guarantee, bytes counted",
		"k", "ε", "n", "msgs", "wire bytes", "final f", "final f̂", "max rel err", "violations")
	k, eps := 3, 0.1
	// Lockstep costs k barrier round-trips per update, so E19 runs a
	// shorter stream than the sim experiments; it is a transport
	// equivalence check, not a scale test.
	n := cfg.scale(6_000)

	coordAlgo, siteAlgos := track.NewDeterministic(k, eps)
	cl, err := dist.NewNetCluster(coordAlgo, siteAlgos, dist.NetConfig{})
	if err != nil {
		t.AddNote("deploy failed: %v", err)
		return t
	}
	defer cl.Close()

	st := stream.NewAssign(stream.BiasedWalk(n, 0.3, cfg.Seed), stream.NewRoundRobin(k))
	var f, violations int64
	maxRel := 0.0
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		f += u.Delta
		cl.Step(u)
		if err := cl.Settle(); err != nil {
			t.AddNote("barrier failed: %v", err)
			return t
		}
		rel, violated := relErr(f, cl.Estimate(), eps)
		if maxRel = max(maxRel, rel); violated {
			violations++
		}
	}
	// Wire bytes as counted at both ends of every connection: each frame
	// once by its sender and once by its receiver.
	stats := cl.Stats()
	t.AddRow(di(k), g3(eps), d(n), d(stats.Total()), d(2*stats.Bytes),
		d(f), d(cl.Estimate()), f4(maxRel), d(violations))
	t.AddNote("violations must be 0: under per-update quiescence the synchronous per-step")
	t.AddNote("guarantee of §3.3 carries over to the TCP transport unchanged")
	return t
}
