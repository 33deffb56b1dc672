package main

import (
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/query"
)

// admin wires the obs layer onto one run: an event ring shared by every
// runtime incarnation the run goes through, the -http admin server, and
// the -events-out JSONL dump. A nil *admin is the disabled state — every
// method no-ops — so runs with neither flag install no sinks and pay
// nothing.
type admin struct {
	httpAddr, eventsOut string
	out, errOut         io.Writer
	ring                *obs.Ring
	srv                 *obs.Server
	done                bool

	// mu serializes runtime access between the driver loop and the HTTP
	// handlers: AsyncSim is single-threaded, and a TCP takeover rebinds
	// the coordinator and sites.
	mu sync.Mutex
}

func newAdmin(httpAddr, eventsOut string, out, errOut io.Writer) *admin {
	if httpAddr == "" && eventsOut == "" {
		return nil
	}
	return &admin{httpAddr: httpAddr, eventsOut: eventsOut, out: out, errOut: errOut,
		ring: obs.NewRing(obs.DefaultRingCap)}
}

// sink returns the event sink to install on a runtime: nil when
// observability is off, which keeps the runtimes' hot paths
// allocation-free.
func (a *admin) sink() dist.EventSink {
	if a == nil {
		return nil
	}
	return a.ring.Emit
}

// locked runs fn under the admin mutex.
func (a *admin) locked(fn func()) {
	if a != nil {
		a.mu.Lock()
		defer a.mu.Unlock()
	}
	fn()
}

// statusDoc is the /status JSON document. Estimate repeats query 0's.
type statusDoc struct {
	Estimate int64          `json:"estimate"`
	Queries  []query.Status `json:"queries"`
	Stats    dist.Stats     `json:"stats"`
	PerQuery []dist.Stats   `json:"per_query"`
}

// serve starts the HTTP admin surface over the driver's runtime when -http
// was given, and prints the chosen address (the real port even for ":0")
// so scripts and smokes can scrape it. Every callback reads the runtime
// under the admin mutex, which the driver holds while it drives.
func (a *admin) serve(d *driver) {
	if a == nil || a.httpAddr == "" {
		return
	}
	m := &obs.Metrics{
		Stats:      func() (s dist.Stats) { a.locked(func() { s = d.rt.Stats() }); return s },
		Classes:    func() (c []dist.Stats) { a.locked(func() { c = d.rt.ClassStats() }); return c },
		ClassLabel: "query",
		Health:     func() (h obs.Health) { a.locked(func() { h = health(d.rt, d.k) }); return h },
		Gauges:     func(emit func(string, string, float64)) { a.locked(func() { d.rt.gauges(emit) }) },
		Ring:       a.ring,
		Runtime:    true,
	}
	status := func() any {
		var doc statusDoc
		a.locked(func() { doc.Queries, doc.Stats, doc.PerQuery = d.status(), d.rt.Stats(), d.rt.ClassStats() })
		if len(doc.Queries) > 0 {
			doc.Estimate = doc.Queries[0].Estimate
		}
		return doc
	}
	srv, err := obs.Serve(a.httpAddr, obs.NewHandler(&obs.Admin{Status: status, Metrics: m, Ring: a.ring}))
	if err != nil {
		fatalf("admin http on %s: %v", a.httpAddr, err)
	}
	a.srv = srv
	fmt.Fprintf(a.out, "admin surface on %s (/status /metrics /events /healthz /debug/pprof)\n", srv.URL())
}

// finish shuts the admin server down gracefully (no leaked listener) and
// dumps the retained event trace to -events-out. It is idempotent: the
// driver calls it before its final asserts so a failing run still leaves
// its trace behind, and the deferred call then no-ops.
func (a *admin) finish() {
	if a == nil || a.done {
		return
	}
	a.done = true
	if a.srv != nil {
		if err := a.srv.Close(); err != nil {
			fmt.Fprintf(a.errOut, "varmon: admin shutdown: %v\n", err)
		}
	}
	if a.eventsOut == "" {
		return
	}
	f, err := os.Create(a.eventsOut)
	if err != nil {
		fatalf("%v", err)
	}
	events := a.ring.Snapshot()
	if err := obs.WriteJSONL(f, events); err != nil {
		fatalf("writing events: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("closing events: %v", err)
	}
	evicted := ""
	if ev := a.ring.Evicted(); ev > 0 {
		evicted = fmt.Sprintf(" (%d older events evicted from the %d-deep ring)", ev, obs.DefaultRingCap)
	}
	fmt.Fprintf(a.out, "wrote %d events to %s%s\n", len(events), a.eventsOut, evicted)
}
