// Package stream defines the update-stream model of Felber & Ostrovsky
// ("Variability in data streams", PODS 2016) and provides generators for
// every input class the paper analyzes.
//
// Time occurs in discrete steps 1, 2, ..., n. At each step t a single update
// f'(t) = f(t) − f(t−1) arrives at one site i(t) of the k sites. The tracked
// function starts at f(0) = 0 unless a generator states otherwise.
//
// A Stream yields updates one at a time; an Assigner decides which site
// receives each update. Generators are deterministic given their seed, so
// every experiment is reproducible. A stream is consumed once: to replay a
// workload, call its constructor again with the same arguments, which
// yields the same updates.
package stream

// Update is one element of the update stream f'(n).
type Update struct {
	// T is the timestep, starting at 1.
	T int64
	// Site is the index in [0, k) of the site receiving the update.
	Site int
	// Delta is f'(T) = f(T) − f(T−1). The core algorithms of the paper
	// assume Delta = ±1; larger magnitudes are handled by the splitter in
	// internal/track (appendix C of the paper).
	Delta int64
	// Item is the item identifier for frequency-tracking streams
	// (appendix H). For plain counting streams it is 0.
	Item uint64
}

// Stream produces updates in timestep order. Implementations are not safe
// for concurrent use.
type Stream interface {
	// Next returns the next update and true, or a zero Update and false
	// when the stream is exhausted.
	Next() (Update, bool)
}

// BatchStream is implemented by streams with a native batch fill. The
// generators in this package all implement it: filling a caller-owned
// buffer in a tight loop amortizes the per-update virtual dispatch that a
// Next loop pays, which is most of the generation cost at millions of
// updates per second.
type BatchStream interface {
	Stream
	// NextBatch fills buf with up to len(buf) updates and returns how many
	// were written. A return of 0 (for a nonempty buf) means the stream is
	// exhausted. The sequence of updates is exactly the sequence Next
	// would have produced; Next and NextBatch may be freely interleaved.
	NextBatch(buf []Update) int
}

// NextBatch fills buf from s, using the native implementation when s
// provides one and falling back to a Next loop otherwise. It returns the
// number of updates written; 0 (for a nonempty buf) means exhaustion.
func NextBatch(s Stream, buf []Update) int {
	if bs, ok := s.(BatchStream); ok {
		return bs.NextBatch(buf)
	}
	n := 0
	for n < len(buf) {
		u, ok := s.Next()
		if !ok {
			break
		}
		buf[n] = u
		n++
	}
	return n
}

// Slice is a Stream over a pre-materialized slice of updates.
type Slice struct {
	updates []Update
	pos     int
}

// NewSlice returns a Stream that yields the given updates in order.
func NewSlice(updates []Update) *Slice { return &Slice{updates: updates} }

// Next implements Stream.
func (s *Slice) Next() (Update, bool) {
	if s.pos >= len(s.updates) {
		return Update{}, false
	}
	u := s.updates[s.pos]
	s.pos++
	return u, true
}

// NextBatch implements BatchStream by copying from the backing slice.
func (s *Slice) NextBatch(buf []Update) int {
	n := copy(buf, s.updates[s.pos:])
	s.pos += n
	return n
}

// Len returns the total number of updates in the underlying slice.
func (s *Slice) Len() int { return len(s.updates) }

// Collect drains a stream into a slice. It is intended for tests and for
// experiments that need to replay the same stream against several trackers.
func Collect(s Stream) []Update {
	var out []Update
	for {
		u, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, u)
	}
}

// Values returns the prefix values f(1..n) implied by a slice of updates,
// starting from f(0) = 0.
func Values(updates []Update) []int64 {
	vals := make([]int64, len(updates))
	var f int64
	for i, u := range updates {
		f += u.Delta
		vals[i] = f
	}
	return vals
}

// FinalValue returns f(n) implied by a slice of updates from f(0) = 0.
func FinalValue(updates []Update) int64 {
	var f int64
	for _, u := range updates {
		f += u.Delta
	}
	return f
}

// Limit wraps a stream and stops it after n updates.
type Limit struct {
	inner Stream
	left  int64
}

// NewLimit returns a stream yielding at most n updates of inner.
func NewLimit(inner Stream, n int64) *Limit { return &Limit{inner: inner, left: n} }

// Next implements Stream.
func (l *Limit) Next() (Update, bool) {
	if l.left <= 0 {
		return Update{}, false
	}
	u, ok := l.inner.Next()
	if !ok {
		return Update{}, false
	}
	l.left--
	return u, true
}

// NextBatch implements BatchStream: the budget simply caps the fill.
func (l *Limit) NextBatch(buf []Update) int {
	if l.left <= 0 {
		return 0
	}
	if int64(len(buf)) > l.left {
		buf = buf[:l.left]
	}
	n := NextBatch(l.inner, buf)
	l.left -= int64(n)
	return n
}

// Concat yields the updates of each stream in turn, renumbering timesteps so
// the concatenation is a single consistent stream starting at T=1.
type Concat struct {
	streams []Stream
	idx     int
	t       int64
}

// NewConcat concatenates the given streams.
func NewConcat(streams ...Stream) *Concat { return &Concat{streams: streams} }

// Next implements Stream.
func (c *Concat) Next() (Update, bool) {
	for c.idx < len(c.streams) {
		u, ok := c.streams[c.idx].Next()
		if ok {
			c.t++
			u.T = c.t
			return u, true
		}
		c.idx++
	}
	return Update{}, false
}

// NextBatch implements BatchStream, renumbering timesteps across the
// filled prefix. A batch may span the boundary between two inner streams.
func (c *Concat) NextBatch(buf []Update) int {
	n := 0
	for n < len(buf) && c.idx < len(c.streams) {
		m := NextBatch(c.streams[c.idx], buf[n:])
		if m == 0 {
			c.idx++
			continue
		}
		for i := n; i < n+m; i++ {
			c.t++
			buf[i].T = c.t
		}
		n += m
	}
	return n
}
