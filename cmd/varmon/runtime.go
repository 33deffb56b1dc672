package main

import (
	"fmt"
	"io"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/stream"
)

// runtime is what the driver needs from a deployment of the engine: live
// TCP (dist.NetCluster) or AsyncSim. The upper-case methods are the
// queries both answer under the same names; the lower-case ones adapt the
// fault plan and the reporting to each. The run loop calls it from one
// goroutine, holding the admin mutex.
type runtime interface {
	Step(u stream.Update)
	Inject(fn func(dist.Outbox))
	Stats() dist.Stats
	ClassStats() []dist.Stats
	Crashed(site int) bool
	Suspected(site int) bool
	CoordCrashed() bool
	WithSite(site int, fn func(dist.SiteAlgo)) error

	// quiesce flushes in-flight traffic: enough for a progress line, or —
	// final — to quiescence, after completing any pending takeover.
	quiesce(final bool)
	gauges(emit func(name, help string, value float64))
	// crashSite kills site i; repl takes over the slot later and replays
	// its backlog. It describes when.
	crashSite(i int, repl dist.SiteAlgo) string
	// crashCoord kills the coordinator; standby takes over once the driver
	// calls healCoord, which the driver does at update healAt (or at the
	// end of a shorter stream). healCoord describes the takeover.
	crashCoord(standby *query.Coord, healAt int64)
	healCoord(standby *query.Coord) string
	close()
}

// health rides the runtime's fault state and the detector's verdict.
func health(rt runtime, k int) obs.Health {
	if rt.CoordCrashed() {
		return obs.Health{Detail: "coordinator crashed"}
	}
	for i := 0; i < k; i++ {
		if rt.Crashed(i) {
			return obs.Health{Detail: fmt.Sprintf("site %d crashed", i)}
		}
		if rt.Suspected(i) {
			return obs.Health{Detail: fmt.Sprintf("site %d suspected dead", i)}
		}
	}
	return obs.Health{OK: true}
}

// asyncRuntime is the deterministic AsyncSim deployment. Faults become
// scheduled events on its virtual clock.
type asyncRuntime struct {
	*dist.AsyncSim
	hb, gap  int64
	healTick int64
}

func newAsyncRuntime(eng *query.Coord, sites []dist.SiteAlgo, model dist.NetModel, seed uint64,
	sink dist.EventSink) *asyncRuntime {
	sim := dist.NewAsyncSim(eng, sites, model, seed)
	sim.SetClassifier(eng)
	sim.Events = sink
	return &asyncRuntime{AsyncSim: sim, hb: model.HeartbeatEvery, gap: model.Gap()}
}

func (a *asyncRuntime) close() {}
func (a *asyncRuntime) healCoord(*query.Coord) string {
	return fmt.Sprintf("spliced in at tick %d", a.healTick)
}
func (a *asyncRuntime) quiesce(final bool) {
	if final {
		a.Flush()
	}
}

func (a *asyncRuntime) gauges(emit func(name, help string, value float64)) {
	emit("virtual_time_ticks", "Simulator virtual clock.", float64(a.Now()))
	emit("pending_events", "Undelivered events in the simulator's scheduler queue.", float64(a.Pending()))
}

// crashSite schedules the crash at the kill step's arrival tick — Now, so
// it fires before any later event and the snapshot just taken is the
// victim's final state — and the takeover 8 heartbeat periods on.
func (a *asyncRuntime) crashSite(i int, repl dist.SiteAlgo) string {
	now := a.Now()
	a.ScheduleCrash(i, now)
	a.ScheduleTakeover(i, now+8*a.hb, repl)
	return fmt.Sprintf("the replacement splices in at tick %d", now+8*a.hb)
}

func (a *asyncRuntime) crashCoord(standby *query.Coord, healAt int64) {
	a.healTick = healAt * a.gap
	a.ScheduleCoordCrash(a.Now())
	a.ScheduleCoordTakeover(a.healTick, standby)
}

// tcpRuntime is the live loopback deployment. A killed process is really
// closed; its successor listens or dials anew.
type tcpRuntime struct {
	*dist.NetCluster
	now int64 // T of the latest update, for the takeover lines
}

func newTCPRuntime(eng *query.Coord, sites []dist.SiteAlgo, cfg dist.NetConfig,
	sink dist.EventSink, out io.Writer) *tcpRuntime {
	c, err := dist.NewNetCluster(eng, sites, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	t := &tcpRuntime{NetCluster: c}
	c.SetClassifier(eng)
	c.SetEventSink(sink)
	c.OnTakeover = func(site, replayed int) {
		fmt.Fprintf(out, "t=%-10d detector verdict: site %d dead (heartbeat misses: %d)\n",
			t.now, site, c.Stats().HeartbeatMisses)
		fmt.Fprintf(out, "t=%-10d warm takeover: slot %d re-dialed, snapshot restored, %d buffered updates replayed\n",
			t.now, site, replayed)
	}
	return t
}

func (t *tcpRuntime) Step(u stream.Update) {
	t.now = u.T
	t.NetCluster.Step(u)
}

func (t *tcpRuntime) quiesce(final bool) {
	settle := t.Settle
	if final {
		settle = t.Flush
	}
	if err := settle(); err != nil {
		fatalf("transport: %v", err)
	}
}

func (t *tcpRuntime) gauges(func(name, help string, value float64)) {}
func (t *tcpRuntime) crashCoord(*query.Coord, int64)                { t.CrashCoord() }
func (t *tcpRuntime) close()                                        { t.Close() }

func (t *tcpRuntime) crashSite(i int, repl dist.SiteAlgo) string {
	t.CrashSite(i, repl)
	return "the replacement dials in once the detector's verdict stands"
}

func (t *tcpRuntime) healCoord(standby *query.Coord) string {
	redialed, replayed, err := t.CoordTakeover(standby)
	if err != nil {
		fatalf("coordinator takeover: %v", err)
	}
	return fmt.Sprintf("%d sites re-dialed %s, %d buffered updates replayed", redialed, t.Addr(), replayed)
}
