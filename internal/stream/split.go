package stream

// SplitBulk expands updates with |Delta| > 1 into runs of ±1 updates,
// implementing the simulation of appendix C: an update f'(n) = d becomes |d|
// consecutive unit updates at the same site. Timesteps are renumbered so the
// output is a legal ±1 update stream. Appendix C bounds the variability
// overhead by a factor of O(log max|f'|).
type SplitBulk struct {
	inner   Stream
	t       int64
	pending int64 // remaining unit updates of the current bulk update
	dir     int64 // +1 or −1
	site    int
	item    uint64
}

// NewSplitBulk wraps inner with the appendix-C unit-update expansion.
func NewSplitBulk(inner Stream) *SplitBulk { return &SplitBulk{inner: inner} }

// Next implements Stream.
func (s *SplitBulk) Next() (Update, bool) {
	for s.pending == 0 {
		u, ok := s.inner.Next()
		if !ok {
			return Update{}, false
		}
		if u.Delta == 0 {
			continue
		}
		if u.Delta > 0 {
			s.pending, s.dir = u.Delta, 1
		} else {
			s.pending, s.dir = -u.Delta, -1
		}
		s.site, s.item = u.Site, u.Item
	}
	s.pending--
	s.t++
	return Update{T: s.t, Site: s.site, Delta: s.dir, Item: s.item}, true
}

// NextBatch implements BatchStream: each pending bulk update expands into a
// run of identical ±1 updates, emitted with one inner pull per bulk update
// rather than one virtual call per unit update.
func (s *SplitBulk) NextBatch(buf []Update) int {
	n := 0
	for n < len(buf) {
		if s.pending == 0 {
			u, ok := s.inner.Next()
			if !ok {
				break
			}
			if u.Delta == 0 {
				continue
			}
			if u.Delta > 0 {
				s.pending, s.dir = u.Delta, 1
			} else {
				s.pending, s.dir = -u.Delta, -1
			}
			s.site, s.item = u.Site, u.Item
		}
		run := s.pending
		if int64(len(buf)-n) < run {
			run = int64(len(buf) - n)
		}
		for i := int64(0); i < run; i++ {
			s.t++
			buf[n] = Update{T: s.t, Site: s.site, Delta: s.dir, Item: s.item}
			n++
		}
		s.pending -= run
	}
	return n
}
