package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stream"
)

// queueRef is the reference scheduler: a plain slice scanned for the
// smallest (at, seq).
type queueRef struct{ ev []event }

func (r *queueRef) min() int {
	m := -1
	for i := range r.ev {
		if m < 0 || r.ev[i].at < r.ev[m].at || (r.ev[i].at == r.ev[m].at && r.ev[i].seq < r.ev[m].seq) {
			m = i
		}
	}
	return m
}

// runQueueProgram interprets prog as pushes, pops and clock advances on an
// eventQueue, driven through its in-place API the way AsyncSim drives it,
// and checks every pop, topAt, len and popped against queueRef. A pop
// either releases its slot at once or holds it, as a handler does: while
// held, pushes (slab growth included) must not hand the slot out or lose
// its contents, and a held slot is later released or linked again at a
// new tick (a retransmission). The clock follows AsyncSim's rule: it never
// passes the earliest pending event, and a pop moves it up to the popped
// tick. It returns the largest number of events pending at once.
func runQueueProgram(t *testing.T, prog []byte) (peak int) {
	var q eventQueue
	q.init(2)
	var ref queueRef
	type slot struct {
		idx int32
		e   event // the event popped into it
	}
	var held []slot
	var now, last int64
	var popped uint64
	next := func() int64 {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int64(b)
	}
	// tick returns the tick of offset class c (0-7) from now.
	tick := func(c int64) int64 {
		switch c {
		case 0:
			return now
		case 1:
			return last // a tie with the previous push, or below now
		case 2:
			return now + wheelSpan - 1
		case 3:
			return now + wheelSpan
		case 4:
			return now + wheelSpan + 1
		case 5:
			return now + next()
		case 6:
			return now + (next()<<8|next())*37
		}
		return now - 1 - next() // clamped to now
	}
	// link links slot idx, built with tick at, and mirrors it in ref.
	link := func(idx int32, at int64) {
		q.link(idx, now)
		e := q.slab[idx]
		if want := max(at, now); e.at != want {
			t.Fatalf("link at %d with now %d stamped at %d", at, now, e.at)
		}
		last = e.at
		ref.ev = append(ref.ev, e)
	}
	// check fails unless held slot h still holds the event popped into it.
	check := func(h slot) {
		got, want := q.slab[h.idx], h.e
		if got.at != want.at || got.seq != want.seq || got.msg.A != want.msg.A || got.kind != want.kind || got.to != want.to {
			t.Fatalf("held slot %d = (at %d, seq %d, id %d), want (at %d, seq %d, id %d)",
				h.idx, got.at, got.seq, got.msg.A, want.at, want.seq, want.msg.A)
		}
	}
	for id := int64(0); len(prog) > 0; id++ {
		op := next()
		switch op & 3 {
		case 0, 2: // push
			at := tick((op >> 2) & 7)
			idx, e := q.alloc()
			for _, h := range held {
				if h.idx == idx {
					t.Fatalf("alloc handed out held slot %d", idx)
				}
			}
			*e = event{at: at, kind: eventKind(op % 10), to: int32(op), msg: Msg{A: id}}
			link(idx, at)
		case 1:
			switch (op >> 2) & 3 {
			case 0, 1: // pop, then release (0) or hold (1) the slot
				m := ref.min()
				if m < 0 {
					continue
				}
				want := ref.ev[m]
				ref.ev = append(ref.ev[:m], ref.ev[m+1:]...)
				idx := q.pop()
				popped++
				got := q.slab[idx]
				if got.at != want.at || got.seq != want.seq || got.msg.A != want.msg.A ||
					got.kind != want.kind || got.to != want.to {
					t.Fatalf("pop = (at %d, seq %d, id %d), want (at %d, seq %d, id %d)",
						got.at, got.seq, got.msg.A, want.at, want.seq, want.msg.A)
				}
				if got.at > now {
					now = got.at
				}
				if (op>>2)&3 == 0 {
					q.release(idx)
				} else {
					held = append(held, slot{idx, got})
				}
			case 2: // link the latest held slot again at a new tick
				if len(held) == 0 {
					continue
				}
				h := held[len(held)-1]
				held = held[:len(held)-1]
				check(h)
				at := tick((op >> 4) & 7)
				q.slab[h.idx].at = at
				link(h.idx, at)
			case 3: // release the latest held slot
				if len(held) == 0 {
					continue
				}
				h := held[len(held)-1]
				held = held[:len(held)-1]
				check(h)
				q.release(h.idx)
			}
		case 3: // advance the clock, never past the earliest pending event
			now += next()
			if m := ref.min(); m >= 0 && ref.ev[m].at < now {
				now = ref.ev[m].at
			}
		}
		if q.len() != len(ref.ev) {
			t.Fatalf("len = %d, want %d", q.len(), len(ref.ev))
		}
		peak = max(peak, q.len())
		if q.popped() != popped {
			t.Fatalf("popped = %d, want %d", q.popped(), popped)
		}
		top := int64(math.MaxInt64)
		if m := ref.min(); m >= 0 {
			top = ref.ev[m].at
		}
		if got := q.topAt(); got != top {
			t.Fatalf("topAt = %d, want %d", got, top)
		}
	}
	for _, h := range held {
		check(h)
	}
	return peak
}

// FuzzEventQueue: random interleavings of pushes (same-tick ties, offsets
// of 0, just inside and just outside the wheel, far offsets, and pushes
// below now), pops that release or hold their slot, pushes while slots are
// held, held slots linked again or released, and clock advances pop in
// exactly (at, seq) order.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Add([]byte{8, 12, 16, 4, 1, 1, 1, 1, 3, 200, 1})
	f.Add([]byte{24, 7, 0, 28, 5, 3, 3, 127, 1, 1, 3, 255, 20, 1, 1})
	f.Add([]byte{12, 12, 3, 1, 1, 0, 4, 1, 1, 1, 1})
	// Hold a popped slot, then push past the slab's size so it grows.
	f.Add([]byte{0, 0, 5, 0, 0, 0, 0, 0, 13, 1, 1, 1, 1, 1, 1})
	// Hold two slots and link both again: one in the wheel, one far.
	f.Add([]byte{0, 4, 5, 5, 0x29, 0x49, 1, 1, 1, 1})
	// Hold, push, release, push: the released slot is reused.
	f.Add([]byte{0, 0, 5, 0, 13, 0, 1, 1, 1})
	// Link a held slot at a tick below now, clamped to now.
	f.Add([]byte{20, 30, 20, 40, 3, 9, 5, 0x79, 4, 1, 1, 1})
	f.Fuzz(func(t *testing.T, prog []byte) { runQueueProgram(t, prog) })
}

// TestEventQueueLongRun drives one long pseudo-random program through the
// queue so slab growth, free-list reuse and many wheel revolutions are
// covered on every test run, not only under -fuzz. Pushes and relinks put
// events in as often as pops take them out, so the queue random-walks
// through sizes in the hundreds; the run fails if it never gets there.
func TestEventQueueLongRun(t *testing.T) {
	prog := make([]byte, 200_000)
	x := uint32(1)
	for i := range prog {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		op := byte(x>>8) &^ 3 // a push, with a random offset class
		switch r := x % 40; {
		case r >= 37:
			op |= 3 // a clock advance
		case r >= 21:
			op = op&^12 | 1 // a pop, releasing its slot
		case r >= 19:
			op = op&^12 | 1 | 1<<2 // a pop, holding its slot
		case r == 18:
			op = op&^12 | 1 | 2<<2 // link a held slot again
		case r == 17:
			op = op&^12 | 1 | 3<<2 // release a held slot
		}
		prog[i] = op
	}
	if peak := runQueueProgram(t, prog); peak < 200 {
		t.Fatalf("at most %d events pending at once, want the queue to reach 200", peak)
	}
}

// TestAsyncSimFeedCutMatchesScan checks StepBatch's feed cut against a
// linear scan for every top from two ticks below the head's arrival to two
// past the last update's, and for an empty queue (math.MaxInt64): on
// slices whose T values run consecutively (as every stream here numbers
// them), repeat, skip, or both (StepBatch takes any nondecreasing T), at
// update gaps 1 and 3.
func TestAsyncSimFeedCutMatchesScan(t *testing.T) {
	scan := func(us []stream.Update, gap, top int64) int {
		c := 0
		for c < len(us) && us[c].T*gap < top {
			c++
		}
		if c < len(us) && us[c].T*gap == top {
			c++
		}
		return c
	}
	src := rng.New(7)
	shapes := []struct {
		name string
		step func() int64 // the T increment between neighbours
	}{
		{"consecutive", func() int64 { return 1 }},
		{"repeated", func() int64 { return src.Int63n(2) }},
		{"gaps", func() int64 { return 1 + src.Int63n(3) }},
		{"mixed", func() int64 { return src.Int63n(4) }},
	}
	for _, gap := range []int64{1, 3} {
		for _, sh := range shapes {
			for n := 1; n <= 40; n++ {
				us := make([]stream.Update, n)
				us[0].T = src.Int63n(50)
				for j := 1; j < n; j++ {
					us[j].T = us[j-1].T + sh.step()
				}
				tops := []int64{math.MaxInt64}
				for top := us[0].T*gap - 2; top <= us[n-1].T*gap+2; top++ {
					tops = append(tops, top)
				}
				for _, top := range tops {
					if got, want := feedCut(us, gap, top), scan(us, gap, top); got != want {
						t.Fatalf("gap %d, %s T %v, top %d: feedCut = %d, scan = %d", gap, sh.name, ts(us), top, got, want)
					}
				}
			}
		}
	}
}

// ts lists the T values of us.
func ts(us []stream.Update) []int64 {
	out := make([]int64, len(us))
	for i, u := range us {
		out[i] = u.T
	}
	return out
}
