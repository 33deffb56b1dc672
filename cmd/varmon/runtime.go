package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/track"
)

// runtime is what the driver needs from a deployment of the engine: live
// TCP or AsyncSim. The driver calls it from one goroutine, holding the
// admin mutex.
type runtime interface {
	// step hands one update to its site (or to the site's local backlog
	// while the slot or the coordinator is down).
	step(u stream.Update)
	// inject runs fn with the coordinator's outbox under the coordinator's
	// lock: control traffic (attach) and consistent reads (status,
	// snapshots).
	inject(fn func(dist.Outbox))
	// quiesce flushes in-flight traffic: enough for a progress line, or —
	// final — to quiescence, after completing any pending takeover.
	quiesce(final bool)
	stats() dist.Stats
	classStats() []dist.Stats
	health() obs.Health
	gauges(emit func(name, help string, value float64))
	// snapshotSite checkpoints site i at the current update.
	snapshotSite(i int) []byte
	// crashSite kills site i; repl takes over the slot later and replays
	// its backlog. It describes when.
	crashSite(i int, repl dist.SiteAlgo) string
	// crashCoord kills the coordinator; standby takes over once the driver
	// calls healCoord, which the driver does at update healAt (or at the
	// end of a shorter stream). healCoord describes the takeover.
	crashCoord(standby *query.Coord, healAt int64)
	healCoord() string
	close()
}

// asyncRuntime is the deterministic AsyncSim deployment. Faults become
// scheduled events on its virtual clock.
type asyncRuntime struct {
	sim      *dist.AsyncSim
	sites    []dist.SiteAlgo
	hb, gap  int64
	healTick int64
}

func newAsyncRuntime(eng *query.Coord, sites []dist.SiteAlgo, model dist.NetModel, seed uint64,
	restored bool, sink dist.EventSink) *asyncRuntime {
	sim := dist.NewAsyncSim(eng, sites, model, seed)
	sim.SetClassifier(eng)
	sim.Events = sink
	if restored {
		// A coordinator booted from disk is a new incarnation: splice it in
		// at tick 0 so every site folds its books through the takeover
		// handshake, as a TCP standby's sites do when they dial.
		sim.ScheduleCoordCrash(0)
		sim.ScheduleCoordTakeover(0, eng)
	}
	return &asyncRuntime{sim: sim, sites: sites, hb: model.HeartbeatEvery, gap: model.Gap()}
}

func (a *asyncRuntime) step(u stream.Update)        { a.sim.Step(u) }
func (a *asyncRuntime) inject(fn func(dist.Outbox)) { a.sim.Inject(fn) }
func (a *asyncRuntime) stats() dist.Stats           { return a.sim.Stats() }
func (a *asyncRuntime) classStats() []dist.Stats    { return a.sim.ClassStats() }
func (a *asyncRuntime) close()                      {}
func (a *asyncRuntime) healCoord() string           { return fmt.Sprintf("spliced in at tick %d", a.healTick) }
func (a *asyncRuntime) snapshotSite(i int) []byte   { return mustSnap(track.SnapshotSite(a.sites[i])) }
func (a *asyncRuntime) quiesce(final bool) {
	if final {
		a.sim.Flush()
	}
}

func (a *asyncRuntime) health() obs.Health {
	if a.sim.CoordCrashed() {
		return obs.Health{Detail: "coordinator crashed"}
	}
	for i := range a.sites {
		if a.sim.Crashed(i) {
			return obs.Health{Detail: fmt.Sprintf("site %d crashed", i)}
		}
		if a.sim.Suspected(i) {
			return obs.Health{Detail: fmt.Sprintf("site %d suspected dead", i)}
		}
	}
	return obs.Health{OK: true}
}

func (a *asyncRuntime) gauges(emit func(name, help string, value float64)) {
	emit("virtual_time_ticks", "Simulator virtual clock.", float64(a.sim.Now()))
	emit("pending_events", "Undelivered events in the simulator's scheduler queue.", float64(a.sim.Pending()))
}

// crashSite schedules the crash at the kill step's arrival tick — Now, so
// it fires before any later event and the snapshot just taken is the
// victim's final state — and the takeover 8 heartbeat periods on.
func (a *asyncRuntime) crashSite(i int, repl dist.SiteAlgo) string {
	now := a.sim.Now()
	a.sim.ScheduleCrash(i, now)
	a.sim.ScheduleTakeover(i, now+8*a.hb, repl)
	a.sites[i] = repl
	return fmt.Sprintf("the replacement splices in at tick %d", now+8*a.hb)
}

func (a *asyncRuntime) crashCoord(standby *query.Coord, healAt int64) {
	a.healTick = healAt * a.gap
	a.sim.ScheduleCoordCrash(a.sim.Now())
	a.sim.ScheduleCoordTakeover(a.healTick, standby)
}

// tcpOpts carries the live-TCP runtime knobs from the flag set.
type tcpOpts struct {
	dialTimeout time.Duration
	hb          time.Duration // 0: failure detection off
	hbMiss      int
}

// tcpRuntime is the live loopback deployment: one Coordinator, k NetSites.
// A killed process is really closed; its successor listens or dials anew.
type tcpRuntime struct {
	out, errOut io.Writer
	opts        tcpOpts
	sink        dist.EventSink
	coord       *dist.Coordinator
	epoch       int64 // last coordinator epoch a standby announced
	sites       []*dist.NetSite
	algos       []dist.SiteAlgo
	backlog     [][]stream.Update // per-site updates held while the slot is dead
	now         int64             // T of the latest update, for event lines

	coords []*dist.Coordinator // every incarnation, for the run's counters
	dialed []*dist.NetSite     // every connection, for heartbeat counts

	victim   int           // killed site awaiting its replacement, or -1
	repl     dist.SiteAlgo // that replacement
	killedAt time.Time
	standby  *query.Coord // the coordinator replacement while the slot is vacant
}

func newTCPRuntime(eng *query.Coord, algos []dist.SiteAlgo, opts tcpOpts, restored bool,
	sink dist.EventSink, out, errOut io.Writer) *tcpRuntime {
	t := &tcpRuntime{out: out, errOut: errOut, opts: opts, sink: sink, victim: -1,
		sites: make([]*dist.NetSite, len(algos)), algos: algos, backlog: make([][]stream.Update, len(algos))}
	t.start(eng, restored)
	return t
}

// start brings a coordinator incarnation up and dials every live site into
// it. A standby (restored from disk, or replacing a dead coordinator)
// announces a new epoch so each site's books fold through the handshake.
func (t *tcpRuntime) start(eng *query.Coord, standby bool) {
	var err error
	if standby {
		t.epoch++
		t.coord, err = dist.ListenCoordinatorStandby("127.0.0.1:0", len(t.sites), eng, t.epoch)
	} else {
		t.coord, err = dist.ListenCoordinator("127.0.0.1:0", len(t.sites), eng)
	}
	if err != nil {
		fatalf("listen: %v", err)
	}
	t.coords = append(t.coords, t.coord)
	t.coord.SetClassifier(eng)
	t.coord.SetEventSink(t.sink)
	if t.opts.hb > 0 {
		t.coord.SetFailureDetection(t.opts.hb, t.opts.hbMiss)
	}
	for i := range t.sites {
		if i != t.victim {
			t.sites[i] = t.dial(i, t.algos[i])
		}
	}
}

func (t *tcpRuntime) dial(i int, algo dist.SiteAlgo) *dist.NetSite {
	s, err := dist.DialNetSiteRetry(t.coord.Addr(), i, algo, t.opts.dialTimeout)
	if err != nil {
		fatalf("dial site %d: %v", i, err)
	}
	if t.opts.hb > 0 {
		s.StartHeartbeats(t.opts.hb)
	}
	t.dialed = append(t.dialed, s)
	return s
}

func (t *tcpRuntime) step(u stream.Update) {
	t.now = u.T
	if t.victim >= 0 && t.verdictStands() {
		t.takeover()
	}
	if t.standby != nil || u.Site == t.victim {
		t.backlog[u.Site] = append(t.backlog[u.Site], u)
		return
	}
	t.sites[u.Site].Update(u)
}

// verdictStands reports whether the killed site is declared dead for good.
// A heartbeat already in flight when the victim died can briefly rescind
// a dead verdict just after we act on it (the replacement would then
// register against a live-looking slot and the takeover hook never
// fire), so a verdict counts only once the drain window after the kill
// has passed and it still stands.
func (t *tcpRuntime) verdictStands() bool {
	return t.standby == nil && time.Since(t.killedAt) >= 2*t.opts.hb && t.coord.SiteDead(t.victim)
}

// takeover dials the restored replacement into the dead slot, announces
// it, and replays the slot's backlog.
func (t *tcpRuntime) takeover() {
	v := t.victim
	fmt.Fprintf(t.out, "t=%-10d detector verdict: site %d dead (heartbeat misses: %d)\n",
		t.now, v, t.coord.Stats().HeartbeatMisses)
	s := t.dial(v, t.repl)
	s.Inject(func(out dist.Outbox) { t.repl.(dist.SiteTakeover).OnTakeover(out) })
	for _, u := range t.backlog[v] {
		s.Update(u)
	}
	fmt.Fprintf(t.out, "t=%-10d warm takeover: slot %d re-dialed, snapshot restored, %d buffered updates replayed\n",
		t.now, v, len(t.backlog[v]))
	t.sites[v], t.algos[v], t.backlog[v], t.victim = s, t.repl, nil, -1
}

func (t *tcpRuntime) inject(fn func(dist.Outbox)) { t.coord.Inject(fn) }

// quiesce runs barrier rounds over every live connection: two for a
// progress line; at the end, until the coordinator's protocol counters
// stop moving (a block collection is a multi-leg cascade, so a fixed
// number of rounds is not enough for a consistent multi-query report).
func (t *tcpRuntime) quiesce(final bool) {
	if final && t.victim >= 0 {
		// A short stream can end mid-outage; the plan still owes a takeover.
		deadline := time.Now().Add(10 * time.Second)
		for !t.verdictStands() {
			if time.Now().After(deadline) {
				fatalf("detector never declared site %d dead", t.victim)
			}
			time.Sleep(t.opts.hb)
		}
		t.takeover()
	}
	if t.standby != nil {
		return // every connection died with the coordinator
	}
	var prev dist.Stats
	for round := 0; round < 16; round++ {
		for i, s := range t.sites {
			if i == t.victim {
				continue
			}
			if err := s.Barrier(); err != nil {
				fatalf("barrier: %v", err)
			}
		}
		// Heartbeat beacons keep the liveness counters moving forever;
		// quiescence means the protocol counters stopped.
		st := t.coord.Stats().WithoutLiveness()
		if !final && round == 1 || final && st == prev {
			break
		}
		prev = st
		if round == 15 {
			fmt.Fprintln(t.errOut, "varmon: network still active after 16 barrier rounds; the report below may be a mid-cascade snapshot")
		}
	}
	if err := t.coord.Err(); final && err != nil {
		fatalf("transport error: %v", err)
	}
}

func (t *tcpRuntime) stats() (s dist.Stats) {
	for _, c := range t.coords {
		s.Merge(c.Stats())
	}
	for _, site := range t.dialed {
		s.HeartbeatsSent += site.Stats().HeartbeatsSent
	}
	return s
}

func (t *tcpRuntime) classStats() (table []dist.Stats) {
	for _, c := range t.coords {
		for i, s := range c.ClassStats() {
			if i == len(table) {
				table = append(table, dist.Stats{})
			}
			table[i].Merge(s)
		}
	}
	return table
}

// health rides the detector's verdict (thread-safe on the coordinator).
func (t *tcpRuntime) health() obs.Health {
	if t.standby != nil {
		return obs.Health{Detail: "coordinator down; sites buffering"}
	}
	for i := range t.sites {
		if t.coord.SiteDead(i) {
			return obs.Health{Detail: fmt.Sprintf("site %d dead", i)}
		}
	}
	return obs.Health{OK: true}
}

func (t *tcpRuntime) gauges(func(name, help string, value float64)) {}

// snapshotSite quiesces site i's connection and checkpoints it under its
// lock.
func (t *tcpRuntime) snapshotSite(i int) []byte {
	if err := t.sites[i].Barrier(); err != nil {
		fatalf("pre-kill barrier: %v", err)
	}
	var blob []byte
	var err error
	t.sites[i].Inject(func(dist.Outbox) { blob, err = track.SnapshotSite(t.algos[i]) })
	return mustSnap(blob, err)
}

func (t *tcpRuntime) crashSite(i int, repl dist.SiteAlgo) string {
	t.sites[i].Close()
	t.victim, t.repl, t.killedAt = i, repl, time.Now()
	return "the replacement dials in once the detector's verdict stands"
}

// crashCoord kills the coordinator process; the sites survive, but their
// connections die with it.
func (t *tcpRuntime) crashCoord(standby *query.Coord, _ int64) {
	t.coord.Close()
	for _, s := range t.sites {
		s.Close()
	}
	t.standby = standby
}

// healCoord brings the standby up on a new port, re-dials every site the
// way a restarted deployment would, and replays the buffered backlogs.
func (t *tcpRuntime) healCoord() string {
	eng := t.standby
	t.standby = nil
	t.start(eng, true)
	redialed, replayed := 0, 0
	for i, b := range t.backlog {
		if i == t.victim {
			continue
		}
		for _, u := range b {
			t.sites[i].Update(u)
		}
		redialed, replayed = redialed+1, replayed+len(b)
		t.backlog[i] = nil
	}
	return fmt.Sprintf("%d sites re-dialed %s, %d buffered updates replayed", redialed, t.coord.Addr(), replayed)
}

func (t *tcpRuntime) close() {
	for _, s := range t.dialed {
		s.Close()
	}
	for _, c := range t.coords {
		c.Close()
	}
}

func mustSnap(blob []byte, err error) []byte {
	if err != nil {
		fatalf("snapshot: %v", err)
	}
	return blob
}
