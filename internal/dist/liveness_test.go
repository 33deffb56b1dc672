package dist

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// liveRecorder is a coordinator that records the failure hooks and traced
// events it sees.
type liveRecorder struct {
	hooks  []string
	events []Event
}

func (r *liveRecorder) OnMessage(Msg, Outbox) {}
func (r *liveRecorder) Estimate() int64       { return 0 }
func (r *liveRecorder) OnSiteDead(site int, _ Outbox) {
	r.hooks = append(r.hooks, fmt.Sprint("dead ", site))
}
func (r *liveRecorder) OnSiteAlive(site int, _ Outbox) {
	r.hooks = append(r.hooks, fmt.Sprint("alive ", site))
}
func (r *liveRecorder) OnSiteTakeover(site int, _ Outbox) {
	r.hooks = append(r.hooks, fmt.Sprint("takeover ", site))
}

// liveStep is one input to the core at an injected time.
type liveStep struct {
	op   string // beat, sweep, ended, splice, coord
	slot int
	now  int64
}

func beatAt(slot int, now int64) liveStep   { return liveStep{"beat", slot, now} }
func sweepAt(now int64) liveStep            { return liveStep{"sweep", 0, now} }
func endedAt(slot int) liveStep             { return liveStep{"ended", slot, 0} }
func spliceAt(slot int, now int64) liveStep { return liveStep{"splice", slot, now} }
func coordAt(now int64) liveStep            { return liveStep{"coord", 0, now} }

// TestLivenessCore drives the shared failure detector and takeover policy
// with an injected clock — no sockets, no sleeps — and pins its verdicts,
// counters and hook calls. Slack is 10 and the miss threshold 3 throughout.
func TestLivenessCore(t *testing.T) {
	// deadOf0 beacons slot 0 at 0 and sweeps it to a dead verdict at 13.
	deadOf0 := []liveStep{beatAt(0, 0), sweepAt(11), sweepAt(12), sweepAt(13)}
	cases := []struct {
		name    string
		k       int
		redials bool
		steps   []liveStep
		hooks   []string
		stats   Stats
		dead    []bool
	}{{
		name: "miss run resets on a beacon",
		k:    1,
		steps: []liveStep{beatAt(0, 0), sweepAt(11), sweepAt(12), beatAt(0, 12),
			sweepAt(20), sweepAt(23), sweepAt(24)},
		stats: Stats{HeartbeatsRecv: 2, HeartbeatMisses: 4},
		dead:  []bool{false},
	}, {
		name:  "dead verdict after the miss threshold, then no more sweeps",
		k:     1,
		steps: slices.Concat(deadOf0, []liveStep{sweepAt(14), sweepAt(40)}),
		hooks: []string{"dead 0"},
		stats: Stats{HeartbeatsRecv: 1, HeartbeatMisses: 3},
		dead:  []bool{true},
	}, {
		name:  "a beacon rescinds the verdict and restarts the miss run",
		k:     1,
		steps: slices.Concat(deadOf0, []liveStep{beatAt(0, 15), sweepAt(25), sweepAt(26)}),
		hooks: []string{"dead 0", "alive 0"},
		stats: Stats{HeartbeatsRecv: 2, HeartbeatMisses: 4},
		dead:  []bool{false},
	}, {
		name: "a splice into an ended slot after a rescind still counts",
		k:    1, redials: true,
		steps: slices.Concat([]liveStep{endedAt(0)}, deadOf0,
			[]liveStep{beatAt(0, 14), spliceAt(0, 15)}),
		hooks: []string{"dead 0", "alive 0", "takeover 0"},
		stats: Stats{HeartbeatsRecv: 2, HeartbeatMisses: 3, Takeovers: 1},
		dead:  []bool{false},
	}, {
		name:  "a splice into a live slot is no takeover",
		k:     1,
		steps: []liveStep{beatAt(0, 0), spliceAt(0, 5), sweepAt(15)},
		stats: Stats{HeartbeatsRecv: 1},
		dead:  []bool{false},
	}, {
		name: "a replacement that re-dials before its first beacon counts once",
		k:    1, redials: true,
		steps: []liveStep{beatAt(0, 0), endedAt(0), spliceAt(0, 1), // replacement
			endedAt(0), spliceAt(0, 2), // its re-dial, still silent
			beatAt(0, 3), endedAt(0), spliceAt(0, 4)}, // beaconed, then a new one
		hooks: []string{"takeover 0", "takeover 0", "takeover 0"},
		stats: Stats{HeartbeatsRecv: 2, Takeovers: 2},
		dead:  []bool{false},
	}, {
		name: "without re-dials every splice is a fresh process",
		k:    1,
		steps: []liveStep{beatAt(0, 0), endedAt(0), spliceAt(0, 1),
			endedAt(0), spliceAt(0, 2), beatAt(0, 3), endedAt(0), spliceAt(0, 4)},
		hooks: []string{"takeover 0", "takeover 0", "takeover 0"},
		stats: Stats{HeartbeatsRecv: 2, Takeovers: 3},
		dead:  []bool{false},
	}, {
		name: "a standby's grace period resets miss runs, verdicts stand",
		k:    2,
		steps: []liveStep{beatAt(0, 0), beatAt(1, 3), sweepAt(11), sweepAt(12),
			sweepAt(13), sweepAt(14), coordAt(14), sweepAt(24), sweepAt(25)},
		hooks: []string{"dead 0"},
		stats: Stats{HeartbeatsRecv: 2, HeartbeatMisses: 5},
		dead:  []bool{true, false},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &liveRecorder{}
			led := ledger{Events: func(e Event) { rec.events = append(rec.events, e) }}
			var coord CoordAlgo = rec
			l := newLiveness(&coord, nil, &led, tc.k)
			l.arm(10, 3)
			l.redials = tc.redials
			for _, s := range tc.steps {
				switch s.op {
				case "beat":
					l.beat(s.slot, s.now)
				case "sweep":
					l.sweep(s.now)
				case "ended":
					l.ended(s.slot)
				case "splice":
					l.splice(s.slot, s.now, 0, 0)
				case "coord":
					l.coordSplice(s.now)
				}
			}
			if st := led.Stats(); st != tc.stats {
				t.Errorf("stats = %+v, want %+v", st, tc.stats)
			}
			if !reflect.DeepEqual(rec.hooks, tc.hooks) {
				t.Errorf("hooks = %q, want %q", rec.hooks, tc.hooks)
			}
			for i, want := range tc.dead {
				if got := l.slots[i].dead; got != want {
					t.Errorf("slot %d dead = %v, want %v", i, got, want)
				}
			}
			misses := 0
			for _, e := range rec.events {
				if e.To != CoordID {
					t.Errorf("%v event addressed to %d, want CoordID", e.Kind, e.To)
				}
				if e.Kind == EvHeartbeatMiss {
					misses++
				}
			}
			if int64(misses) != tc.stats.HeartbeatMisses {
				t.Errorf("%d miss events for %d misses", misses, tc.stats.HeartbeatMisses)
			}
		})
	}
}
