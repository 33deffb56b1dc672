package stream

import "repro/internal/rng"

// Assigner decides which of the k sites receives the update at timestep t.
// The paper's model places each update at a single site i(n); the assignment
// pattern is adversarial in the worst case, so experiments exercise several
// policies.
type Assigner interface {
	// Site returns the site index in [0, k) for timestep t (t >= 1).
	Site(t int64) int
	// K returns the number of sites.
	K() int
}

// RoundRobin assigns update t to site (t−1) mod k.
type RoundRobin struct{ k int }

// NewRoundRobin returns a round-robin assigner over k sites.
// It panics if k <= 0.
func NewRoundRobin(k int) *RoundRobin {
	if k <= 0 {
		panic("stream: NewRoundRobin needs k > 0")
	}
	return &RoundRobin{k: k}
}

// Site implements Assigner.
func (r *RoundRobin) Site(t int64) int { return int((t - 1) % int64(r.k)) }

// K implements Assigner.
func (r *RoundRobin) K() int { return r.k }

// UniformRandom assigns each update to an independently uniform site.
type UniformRandom struct {
	k   int
	src *rng.Xoshiro256
}

// NewUniformRandom returns a uniform random assigner over k sites.
// It panics if k <= 0.
func NewUniformRandom(k int, seed uint64) *UniformRandom {
	if k <= 0 {
		panic("stream: NewUniformRandom needs k > 0")
	}
	return &UniformRandom{k: k, src: rng.New(seed)}
}

// Site implements Assigner.
func (u *UniformRandom) Site(t int64) int { return u.src.Intn(u.k) }

// K implements Assigner.
func (u *UniformRandom) K() int { return u.k }

// Skewed assigns updates to sites with Zipf-distributed popularity, modeling
// a deployment where a few observers see most of the traffic.
type Skewed struct {
	k    int
	zipf *rng.Zipf
}

// NewSkewed returns a Zipf(s) assigner over k sites. It panics if k <= 0.
func NewSkewed(k int, s float64, seed uint64) *Skewed {
	if k <= 0 {
		panic("stream: NewSkewed needs k > 0")
	}
	return &Skewed{k: k, zipf: rng.NewZipf(rng.New(seed), k, s)}
}

// Site implements Assigner.
func (s *Skewed) Site(t int64) int { return s.zipf.Sample() }

// K implements Assigner.
func (s *Skewed) K() int { return s.k }

// Single assigns every update to site 0. With k = 1 this is the single-site
// aggregate model of section 5.2 of the paper; with k > 1 it is the
// adversarial "all load on one observer" pattern.
type Single struct{ k int }

// NewSingle returns an assigner that always picks site 0 out of k sites.
// It panics if k <= 0.
func NewSingle(k int) *Single {
	if k <= 0 {
		panic("stream: NewSingle needs k > 0")
	}
	return &Single{k: k}
}

// Site implements Assigner.
func (s *Single) Site(t int64) int { return 0 }

// K implements Assigner.
func (s *Single) K() int { return s.k }

// Assign wraps a delta-only stream with an assignment policy, filling in the
// Site field of each update.
type Assign struct {
	inner Stream
	a     Assigner
}

// NewAssign decorates inner so that each update's Site field is set by a.
func NewAssign(inner Stream, a Assigner) *Assign { return &Assign{inner: inner, a: a} }

// Next implements Stream.
func (s *Assign) Next() (Update, bool) {
	u, ok := s.inner.Next()
	if !ok {
		return Update{}, false
	}
	u.Site = s.a.Site(u.T)
	return u, true
}

// NextBatch implements BatchStream: the inner stream fills the buffer
// natively, then sites are stamped in a second pass. Round-robin — the
// harness default — is special-cased so the dominant assignment policy
// pays arithmetic, not an interface call, per update; within the batch
// the site index advances by increment-and-wrap across consecutive
// timesteps, so the integer division runs once per discontinuity rather
// than once per update.
func (s *Assign) NextBatch(buf []Update) int {
	n := NextBatch(s.inner, buf)
	if rr, ok := s.a.(*RoundRobin); ok && n > 0 {
		k := int64(rr.k)
		t := buf[0].T
		site := (t - 1) % k
		buf[0].Site = int(site)
		for i := 1; i < n; i++ {
			if buf[i].T == t+1 {
				site++
				if site == k {
					site = 0
				}
			} else {
				site = (buf[i].T - 1) % k
			}
			t = buf[i].T
			buf[i].Site = int(site)
		}
		return n
	}
	for i := 0; i < n; i++ {
		buf[i].Site = s.a.Site(buf[i].T)
	}
	return n
}
