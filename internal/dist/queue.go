package dist

import (
	"math"
	"math/bits"
)

// wheelSpan is the timing wheel's reach in ticks: an event due less than
// wheelSpan ticks after the clock at its push joins a per-tick list, a later
// one the far heap. It covers every delivery, retransmission and heartbeat
// of the models the repository runs; takeovers and caller-scheduled events
// are what lands beyond it. A multiple of 64, so the occupancy bitmap is
// whole words.
const wheelSpan = 128

// topUnknown marks eventQueue.top as stale: the earliest pending tick must
// be recomputed from the bitmap and the far heap.
const topUnknown = math.MinInt64

// eventQueue is AsyncSim's scheduler queue, a min-queue over (at, seq) in
// three parts:
//
//   - slab holds the events, each built (alloc, link), popped and freed
//     (release) in its slot; freed slots are recycled through a free list
//     threaded through event.next. Index 0 is the nil link and is never
//     handed out, so zeroed link arrays need no init loop.
//   - The wheel links every event due in [now, now+wheelSpan) into the FIFO
//     list of its tick's bucket (at mod wheelSpan); occ marks the non-empty
//     buckets.
//   - far is a small binary heap of (at, seq, idx) keys for the rare events
//     due later, such as takeovers and caller Schedule* events.
//
// Pop order is exactly (at, seq), with no migration from far to wheel:
//
//   - push clamps at to now, and AsyncSim drains every event due before a
//     tick before its clock reaches that tick, so every pending event has
//     at ≥ now. With now nondecreasing, a non-empty bucket therefore holds
//     one tick only: two ticks sharing a bucket differ by a multiple of
//     wheelSpan, yet both lie in one [now, now+wheelSpan) window.
//   - seq grows with every push, so appending keeps each tick's list in seq
//     order.
//   - pop takes the smaller of the earliest list head and the far-heap top;
//     the two can tie on at (an event pushed far that the clock has since
//     caught up with), and seq breaks the tie.
//
// top caches the earliest pending tick: push lowers it, a pop that empties
// the earliest tick clears it, so the run-until and batch-scan checks
// usually cost one load instead of a bitmap scan.
type eventQueue struct {
	slab []event
	free int32 // head of the free-slot list; 0 when empty
	n    int   // pending events
	seq  uint64
	now  int64 // the clock at the latest push: the wheel's window start
	top  int64 // earliest pending tick, math.MaxInt64 when empty, or topUnknown

	head, tail [wheelSpan]int32
	occ        [wheelSpan / 64]uint64
	far        []farKey
}

// farKey orders one far-heap event; idx is its slab slot.
type farKey struct {
	at  int64
	seq uint64
	idx int32
}

// init empties the queue and presizes the slab for size pending events.
func (q *eventQueue) init(size int) {
	*q = eventQueue{slab: make([]event, 1, size+1), top: math.MaxInt64}
}

// len returns the number of pending events.
func (q *eventQueue) len() int { return q.n }

// popped returns how many events have been popped so far: every push
// stamps a sequence number, and every pushed event not pending was popped.
func (q *eventQueue) popped() uint64 { return q.seq - uint64(q.n) }

// topAt returns the earliest pending tick, or math.MaxInt64 when the queue
// is empty.
//
//varlint:zeroalloc
func (q *eventQueue) topAt() int64 {
	if q.top != topUnknown {
		return q.top
	}
	return q.findTop()
}

// due reports whether an event may be due before tick t: always when the
// cached top is stale (topUnknown is below every tick), so a false answer
// is exact and a true one costs the caller a topAt.
func (q *eventQueue) due(t int64) bool { return q.top < t }

// findTop recomputes and caches the earliest pending tick.
func (q *eventQueue) findTop() int64 {
	at := int64(math.MaxInt64)
	if b := q.firstBucket(); b >= 0 {
		at = q.now + (int64(b)-q.now)&(wheelSpan-1)
	}
	if len(q.far) > 0 && q.far[0].at < at {
		at = q.far[0].at
	}
	q.top = at
	return at
}

// firstBucket returns the first occupied bucket at or circularly after
// now's, which holds the earliest wheel tick, or -1 when the wheel is empty.
func (q *eventQueue) firstBucket() int {
	const words = wheelSpan / 64
	s := uint(q.now) & (wheelSpan - 1)
	w := s / 64
	if m := q.occ[w] >> (s % 64); m != 0 {
		return int(s) + bits.TrailingZeros64(m)
	}
	for i := uint(1); i <= words; i++ {
		j := (w + i) % words
		m := q.occ[j]
		if i == words {
			m &= 1<<(s%64) - 1 // back at the start word: the buckets before s
		}
		if m != 0 {
			return int(j*64) + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// alloc takes a free slot to build an event in; its address holds until
// the next alloc. The slot keeps what its last event left there, so the
// caller writes every field but seq and next (link stamps those).
//
//varlint:zeroalloc
func (q *eventQueue) alloc() (int32, *event) {
	idx := q.free
	if idx != 0 {
		q.free = q.slab[idx].next
	} else { // the one allocating edge, once per high-water mark
		q.slab = append(q.slab, event{})
		idx = int32(len(q.slab) - 1)
	}
	return idx, &q.slab[idx]
}

// link schedules the event in slot idx, alloc'd or popped and not yet
// released, at the clock now, clamping its at to now and stamping its seq.
//
//varlint:zeroalloc
func (q *eventQueue) link(idx int32, now int64) {
	p := &q.slab[idx]
	if p.at < now {
		p.at = now
	}
	p.seq = q.seq
	q.seq++
	q.now = now
	p.next = 0
	if p.at-now < wheelSpan {
		b := p.at & (wheelSpan - 1)
		if t := q.tail[b]; t != 0 {
			q.slab[t].next = idx
		} else {
			q.head[b] = idx
			q.occ[b/64] |= 1 << (b % 64)
		}
		q.tail[b] = idx
	} else {
		q.farPush(farKey{at: p.at, seq: p.seq, idx: idx})
	}
	q.n++
	if p.at < q.top { // topUnknown is below every tick, so it stays unknown
		q.top = p.at
	}
}

// pop unlinks the earliest pending event (by at, then seq) and returns its
// slot, held until released or linked again. The queue must not be empty.
//
//varlint:zeroalloc
func (q *eventQueue) pop() int32 {
	at := q.topAt()
	b := at & (wheelSpan - 1)
	idx := q.head[b] // the bucket, when occupied, holds tick at (see above)
	farTie := len(q.far) > 0 && q.far[0].at == at
	if farTie && (idx == 0 || q.far[0].seq < q.slab[idx].seq) {
		idx = q.farPop()
		farTie = len(q.far) > 0 && q.far[0].at == at
	} else {
		q.head[b] = q.slab[idx].next
		if q.head[b] == 0 {
			q.tail[b] = 0
			q.occ[b/64] &^= 1 << (b % 64)
		}
	}
	if q.head[b] == 0 && !farTie {
		q.top = topUnknown
	}
	q.n--
	return idx
}

// release returns a popped slot to the free list.
//
//varlint:zeroalloc
func (q *eventQueue) release(idx int32) { q.slab[idx].next, q.free = q.free, idx }

func (k *farKey) less(o *farKey) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// farPush and farPop sift with a hole, like the binary heap they replace.
func (q *eventQueue) farPush(k farKey) {
	q.far = append(q.far, k)
	i := len(q.far) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(&q.far[parent]) {
			break
		}
		q.far[i] = q.far[parent]
		i = parent
	}
	q.far[i] = k
}

func (q *eventQueue) farPop() int32 {
	idx := q.far[0].idx
	n := len(q.far) - 1
	last := q.far[n]
	q.far = q.far[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && q.far[r].less(&q.far[l]) {
			l = r
		}
		if !q.far[l].less(&last) {
			break
		}
		q.far[i] = q.far[l]
		i = l
	}
	if n > 0 {
		q.far[i] = last
	}
	return idx
}
