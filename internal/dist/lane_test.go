package dist

import (
	"testing"

	"repro/internal/stream"
)

type nopSite struct{}

func (nopSite) OnUpdate(stream.Update, Outbox) {}
func (nopSite) OnMessage(Msg, Outbox)          {}

type nopCoord struct{}

func (nopCoord) OnMessage(Msg, Outbox) {}
func (nopCoord) Estimate() int64       { return 0 }

// laneRing returns a runtime on the lane whose coordinator outbox pushes
// into its ring: SendTo is the one push path.
func laneRing() *AsyncSim { return NewSim(nopCoord{}, []SiteAlgo{nopSite{}}) }

// take releases and returns the ring's oldest envelope.
func take(r *msgRing) envelope {
	e := *r.peek()
	r.drop()
	return e
}

func TestMsgRingFIFOAndGrowth(t *testing.T) {
	s := laneRing()
	r := &s.ring
	// Interleave pushes and pops so head wraps around the backing array
	// several times while the ring grows through multiple capacities.
	next, expect := int64(0), int64(0)
	push := func(k int) {
		for i := 0; i < k; i++ {
			s.coordOut.SendTo(int(next%7), Msg{A: next})
			next++
		}
	}
	pop := func(k int) {
		for i := 0; i < k; i++ {
			e := take(r)
			if e.msg.A != expect || e.to != int32(expect%7) {
				t.Fatalf("pop %d: got A=%d to=%d", expect, e.msg.A, e.to)
			}
			expect++
		}
	}
	push(3)
	pop(2)
	push(40) // forces growth with head mid-buffer
	pop(30)
	push(100)
	pop(111)
	if r.n != 0 {
		t.Fatalf("ring not drained: n=%d", r.n)
	}
}

func TestMsgRingSteadyStateReusesBuffer(t *testing.T) {
	s := laneRing()
	r := &s.ring
	for i := 0; i < 10; i++ {
		s.coordOut.SendTo(0, Msg{A: int64(i)})
	}
	for r.n > 0 {
		take(r)
	}
	base := &r.buf[0]
	// A full cycle that stays within the high-water mark must not
	// reallocate the backing array.
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			s.coordOut.SendTo(0, Msg{A: int64(i)})
		}
		for r.n > 0 {
			take(r)
		}
	}
	if &r.buf[0] != base {
		t.Fatal("steady-state push/pop reallocated the ring buffer")
	}
}

// TestLeaveLaneStalesBudgets: the lane's quiet-budget token counts
// coordinator-to-site deliveries and the queue's counts popped events.
// The two share no meaning, so leaving the lane makes every budget stale.
func TestLeaveLaneStalesBudgets(t *testing.T) {
	s := laneRing()
	s.synced = 3
	s.ScheduleDown(0, 10)
	if s.onLane() || s.synced != -1 {
		t.Fatalf("after the first schedule: on the lane %v, budgets read under token %d, want off and stale (-1)", s.onLane(), s.synced)
	}
}
