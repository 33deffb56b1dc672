package dist

import (
	"math"
	"testing"
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
// eventQueue and checks every pop, topAt and len against queueRef. The
// clock follows AsyncSim's rule: it never passes the earliest pending
// event, and a pop moves it up to the popped tick.
func runQueueProgram(t *testing.T, prog []byte) {
	var q eventQueue
	q.init(2)
	var ref queueRef
	var now, last int64
	next := func() int64 {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int64(b)
	}
	for id := int64(0); len(prog) > 0; id++ {
		op := next()
		switch op & 3 {
		case 0, 2: // push
			var at int64
			switch (op >> 2) & 7 {
			case 0:
				at = now
			case 1:
				at = last // a tie with the previous push, or below now
			case 2:
				at = now + wheelSpan - 1
			case 3:
				at = now + wheelSpan
			case 4:
				at = now + wheelSpan + 1
			case 5:
				at = now + next()
			case 6:
				at = now + (next()<<8|next())*37
			case 7:
				at = now - 1 - next() // clamped to now
			}
			e := event{at: at, kind: eventKind(op % 10), to: int32(op), msg: Msg{A: id}}
			q.push(&e, now)
			want := at
			if want < now {
				want = now
			}
			if e.at != want {
				t.Fatalf("push at %d with now %d stamped at %d", at, now, e.at)
			}
			last = e.at
			ref.ev = append(ref.ev, e)
		case 1: // pop
			m := ref.min()
			if m < 0 {
				continue
			}
			want := ref.ev[m]
			ref.ev = append(ref.ev[:m], ref.ev[m+1:]...)
			got := q.pop()
			if got.at != want.at || got.seq != want.seq || got.msg.A != want.msg.A ||
				got.kind != want.kind || got.to != want.to {
				t.Fatalf("pop = (at %d, seq %d, id %d), want (at %d, seq %d, id %d)",
					got.at, got.seq, got.msg.A, want.at, want.seq, want.msg.A)
			}
			if got.at > now {
				now = got.at
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
		top := int64(math.MaxInt64)
		if m := ref.min(); m >= 0 {
			top = ref.ev[m].at
		}
		if got := q.topAt(); got != top {
			t.Fatalf("topAt = %d, want %d", got, top)
		}
	}
}

// FuzzEventQueue: random interleavings of pushes (same-tick ties, offsets
// of 0, just inside and just outside the wheel, far offsets, and pushes
// below now), pops and clock advances pop in exactly (at, seq) order.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Add([]byte{8, 12, 16, 4, 1, 1, 1, 1, 3, 200, 1})
	f.Add([]byte{24, 7, 0, 28, 5, 3, 3, 127, 1, 1, 3, 255, 20, 1, 1})
	f.Add([]byte{12, 12, 3, 1, 1, 0, 4, 1, 1, 1, 1})
	f.Fuzz(runQueueProgram)
}

// TestEventQueueLongRun drives one long pseudo-random program through the
// queue so slab growth, free-list reuse and many wheel revolutions are
// covered on every test run, not only under -fuzz. Pushes and pops are
// equally likely, so the queue random-walks through sizes in the hundreds.
func TestEventQueueLongRun(t *testing.T) {
	prog := make([]byte, 200_000)
	x := uint32(1)
	for i := range prog {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		op := byte(x>>8) &^ 3 // a push, with a random offset class
		switch r := x % 20; {
		case r >= 18:
			op |= 3 // a clock advance
		case r >= 9:
			op |= 1 // a pop
		}
		prog[i] = op
	}
	runQueueProgram(t, prog)
}
