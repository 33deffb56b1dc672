// Command varmon runs the library as a live distributed monitoring service:
// a coordinator and k sites track an update stream and periodically print
// the coordinator's estimate against the true value. Every run is one
// driver over three independent choices:
//
//   - The query plan. -queries SPECS multiplexes Q tracking queries (mixed
//     algorithms, ε's, item filters) over one shared runtime
//     (internal/query) with per-query cost and error reporting; at=T
//     attaches a query mid-stream, bootstrapping the history it missed.
//     Without -queries, -eps E is the one-query plan 'det,eps=E'.
//   - The runtime: live TCP on loopback (dist.NetCluster), or with -net
//     MODEL the deterministic fault-injecting simulator dist.AsyncSim,
//     which adds staleness and loss counters.
//   - The fault plan. -kill STEP:SITE kills the site right after update
//     STEP; its updates buffer locally until a warm replacement restored
//     from a snapshot taken at the kill takes the slot over and replays
//     them (on TCP once the heartbeat detector's verdict stands, on
//     AsyncSim 8 heartbeat periods after the crash tick). -kill-coord STEP
//     kills the coordinator; at the next progress line a replacement takes
//     over, warm with -standby (restored from the kill-time snapshot) or
//     cold (rebuilt from what the sites re-report in the KindCoordTakeover
//     handshake). On TCP the sites buffer and replay through the outage.
//
// For example:
//
//	varmon -net latency=8,jitter=2,drop=0.01,retrans=3
//	varmon -stream zipf -queries 'det,eps=0.05;freq,eps=0.1;det,eps=0.1,filter=even;rand,eps=0.1,at=50000'
//	varmon -n 20000 -hb 10ms -kill 8000:1
//	varmon -n 20000 -net latency=2,drop=0.01,retrans=3,hb=8 -kill-coord 8000 -standby
//
// A fault plan arms failure detection the runtime lacks (-hb 25ms on TCP,
// hb=8 on AsyncSim), and the run exits nonzero unless each planned
// takeover happened exactly once and every deterministic query ends inside
// its ε. On -net it needs an in-order model that retransmits its losses:
// the takeover handshake assumes per-link FIFO and a delivered ack.
//
// -snapshot-dir DIR persists the coordinator's self-verifying snapshot at
// every progress interval it is up, and at a coordinator kill. -restore
// DIR boots a coordinator from the newest snapshot in DIR that passes its
// integrity hash (damaged files are skipped loudly), registering the
// queries attached by the snapshot's step first: the standby under
// -kill-coord -standby, else the initial coordinator, which then resumes
// the snapshot's history — the printed exact value only matches when the
// run continues the recorded stream.
//
// -http ADDR serves the admin surface: /status (JSON estimates and
// counters), /metrics (Prometheus text, aggregate and per-query),
// /events?n=K (the newest K protocol events as JSONL), /healthz (503 while
// a site or the coordinator is down), and /debug/pprof; ":0" picks a port
// and prints it. -events-out FILE dumps the retained event trace at exit.
// -record FILE tees the workload into a trace while running; -replay FILE
// drives the run from one. On TCP, site dials retry with backoff up to
// -dial-timeout, and -hb INTERVAL arms the heartbeat detector, which
// declares a slot dead after -hb-miss missed periods.
//
// Usage:
//
//	varmon [-k 4] [-eps 0.1] [-n 100000] [-stream randwalk|biased|monotone|sawtooth|zipf] [-seed 1]
//	       [-progress 10] [-queries SPECS] [-net MODEL] [-http ADDR] [-events-out FILE]
//	       [-record FILE] [-replay FILE] [-dial-timeout 2s] [-hb 0] [-hb-miss 3]
//	       [-kill STEP:SITE] [-kill-coord STEP] [-standby] [-snapshot-dir DIR] [-restore DIR]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/track"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		e := err.(*exitError)
		if e.msg != "" {
			fmt.Fprintf(os.Stderr, "varmon: %s\n", e.msg)
		}
		os.Exit(e.code)
	}
}

// exitError is a failed run: its message and exit status, 2 for input
// varmon rejects and 1 for a run that went wrong.
type exitError struct {
	code int
	msg  string
}

func (e *exitError) Error() string { return e.msg }

// fatalf and usagef abort the run from the driver goroutine; run recovers
// the panic into its returned error.
func fatalf(format string, args ...any) { panic(&exitError{1, fmt.Sprintf(format, args...)}) }
func usagef(format string, args ...any) { panic(&exitError{2, fmt.Sprintf(format, args...)}) }

// streamClasses is the CLI's workload menu, in display order. zipf is the
// item workload of appendix H (Zipf-distributed inserts with uniform
// deletions), which gives frequency queries something to track.
var streamClasses = []struct {
	name string
	make func(n int64, seed uint64) stream.Stream
}{
	{"randwalk", func(n int64, seed uint64) stream.Stream { return stream.RandomWalk(n, seed) }},
	{"biased", func(n int64, seed uint64) stream.Stream { return stream.BiasedWalk(n, 0.2, seed) }},
	{"monotone", func(n int64, seed uint64) stream.Stream { return stream.Monotone(n) }},
	{"sawtooth", func(n int64, seed uint64) stream.Stream { return stream.Sawtooth(n, 64, 32) }},
	{"zipf", func(n int64, seed uint64) stream.Stream { return stream.NewItemGen(n, 4096, 1.1, 0.2, seed) }},
}

func makeStream(class string, n int64, seed uint64) stream.Stream {
	names := make([]string, len(streamClasses))
	for i, c := range streamClasses {
		names[i] = c.name
		if c.name == class {
			return c.make(n, seed)
		}
	}
	usagef("unknown stream class %q (valid classes: %s)", class, strings.Join(names, "|"))
	return nil
}

// tee passes an assigned stream through while writing every update to a
// trace — recording is a side effect of the run consuming the stream, so
// the file can never diverge from the workload the run actually saw.
type tee struct {
	inner stream.Stream
	tw    *stream.TraceWriter
}

func (t *tee) Next() (stream.Update, bool) {
	u, ok := t.inner.Next()
	if ok {
		if err := t.tw.Write(u); err != nil {
			fatalf("writing trace: %v", err)
		}
	}
	return u, ok
}

// run is varmon with its arguments and output streams explicit; it
// returns an *exitError instead of exiting.
func run(args []string, stdout, stderr io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(*exitError)
			if !ok {
				panic(r)
			}
			err = e
		}
	}()
	d := &driver{out: stdout, errOut: stderr, ex: &exactMonitor{items: map[uint64]int64{}}}
	fs := flag.NewFlagSet("varmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&d.k, "k", 4, "number of sites")
	eps := fs.Float64("eps", 0.1, "relative error of the one-query plan 'det,eps=E' (without -queries)")
	n := fs.Int64("n", 100_000, "stream length")
	seed := fs.Uint64("seed", 1, "stream seed (and the -net model's)")
	sclass := fs.String("stream", "randwalk", "stream class: randwalk|biased|monotone|sawtooth|zipf")
	refresh := fs.Int64("progress", 10, "progress lines to print")
	record := fs.String("record", "", "tee the workload into this trace file while running")
	replay := fs.String("replay", "", "drive the run from a recorded trace file instead of a generator")
	netFlag := fs.String("net", "", "run on the async fault simulator under this model (e.g. latency=8,jitter=2,drop=0.01,retrans=3) instead of live TCP")
	queries := fs.String("queries", "", "query plan: ';'-separated specs, e.g. 'det,eps=0.1;freq,eps=0.2,filter=even;rand,eps=0.05,at=50000'")
	httpAddr := fs.String("http", "", "serve the admin surface (/status /metrics /events /healthz /debug/pprof) here; \":0\" picks a port and prints it")
	eventsOut := fs.String("events-out", "", "dump the protocol event trace as JSONL to this file at exit")
	fs.DurationVar(&d.tcp.DialTimeout, "dial-timeout", 2*time.Second, "TCP site dial retry budget (exponential backoff with jitter)")
	fs.DurationVar(&d.tcp.Heartbeat, "hb", 0, "TCP heartbeat interval (0 = off, or 25ms under a fault plan)")
	fs.IntVar(&d.tcp.HeartbeatMiss, "hb-miss", 3, "consecutive missed heartbeat periods before a TCP slot is declared dead")
	kill := fs.String("kill", "", "fault plan: kill site SITE right after update STEP, as 'STEP:SITE'")
	fs.Int64Var(&d.coordAt, "kill-coord", 0, "fault plan: kill the coordinator right after this update")
	fs.BoolVar(&d.standby, "standby", false, "with -kill-coord: the replacement is a warm standby restored from the kill-time snapshot, not a cold restart")
	fs.StringVar(&d.snapDir, "snapshot-dir", "", "persist coordinator snapshots into this directory at every progress interval")
	fs.StringVar(&d.restoreDir, "restore", "", "boot a coordinator (the -kill-coord -standby replacement, else the initial one) from the newest intact snapshot here")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return &exitError{code: 2}
	}
	if d.k < 1 {
		usagef("-k must be >= 1, got %d", d.k)
	}
	if *refresh < 1 {
		usagef("-progress must be >= 1, got %d", *refresh)
	}
	d.every = max(*n / *refresh, 1)
	d.specs = []query.Spec{{Algo: "det", Eps: *eps}}
	if d.multi = *queries != ""; d.multi {
		if d.specs, err = query.ParseSpecs(*queries); err != nil {
			usagef("%v", err)
		}
	}
	d.order = attachOrder(d.specs)
	if *kill != "" {
		if _, err := fmt.Sscanf(*kill, "%d:%d", &d.killAt, &d.killSite); err != nil {
			usagef("-kill wants STEP:SITE, got %q", *kill)
		}
		if d.killAt < 1 || d.killSite < 0 || d.killSite >= d.k {
			usagef("-kill %q: need STEP >= 1 and SITE in [0, %d)", *kill, d.k)
		}
	}
	faults := d.killAt > 0 || d.coordAt > 0
	if faults && d.tcp.Heartbeat <= 0 {
		d.tcp.Heartbeat = 25 * time.Millisecond
	}
	if *netFlag != "" {
		m, err := dist.ParseNetModel(*netFlag)
		if err != nil {
			usagef("%v", err)
		}
		if faults && (m.Reorder > 0 || m.Drop > 0 && m.Retrans == 0) {
			usagef("-kill/-kill-coord on -net need an in-order model that retransmits its losses (no reorder=, and retrans= >= 1 with drop=): " +
				"the takeover handshake assumes per-link FIFO and a delivered acknowledgement")
		}
		if faults && m.HeartbeatEvery == 0 {
			m.HeartbeatEvery = 8
		}
		d.model = &m
	}

	// Replayed traces already carry site assignments (validated per
	// update); generated workloads get round-robin.
	var st stream.Stream = stream.NewAssign(makeStream(*sclass, *n, *seed), stream.NewRoundRobin(d.k))
	recordK := d.k
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		tr, err := stream.NewTraceReader(f)
		if err != nil {
			fatalf("%v", err)
		}
		if tr.K() > d.k {
			fatalf("%s was recorded for %d sites; rerun with -k >= %d", *replay, tr.K(), tr.K())
		}
		if tr.K() == 0 {
			fmt.Fprintf(stderr, "varmon: %s predates the site-count header; site ids are validated per update\n", *replay)
		} else {
			// A re-recorded copy stays valid for the k it was assigned
			// over, not the (possibly larger) -k of this run.
			recordK = tr.K()
		}
		st = tr
	}
	var tw *stream.TraceWriter
	var recFile *os.File
	if *record != "" {
		if recFile, err = os.Create(*record); err != nil {
			fatalf("%v", err)
		}
		defer recFile.Close()
		if tw, err = stream.NewTraceWriter(recFile, recordK); err != nil {
			fatalf("%v", err)
		}
		st = &tee{inner: st, tw: tw}
	}

	d.adm = newAdmin(*httpAddr, *eventsOut, stdout, stderr)
	defer d.adm.finish()
	d.start(*seed)
	defer d.rt.close()
	d.adm.serve(d)
	d.drive(st)
	if tw != nil {
		if err := tw.Flush(); err != nil {
			fatalf("flushing trace: %v", err)
		}
		if err := recFile.Close(); err != nil {
			fatalf("closing trace: %v", err)
		}
		fmt.Fprintf(stdout, "recorded %d updates to %s\n", tw.Count(), *record)
	}
	return nil
}

// attachOrder lists spec indices in the order the driver registers them —
// the initial queries in CLI order, then the at= attaches by attach step —
// which is the order of query ids, so a restore can rebuild the registry
// a snapshot was taken against.
func attachOrder(specs []query.Spec) []int {
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return max(specs[order[a]].AttachAt, 0) < max(specs[order[b]].AttachAt, 0)
	})
	return order
}

// driver runs one query plan on one runtime under one fault plan.
type driver struct {
	out, errOut io.Writer
	k           int
	every       int64          // updates per progress interval
	multi       bool           // -queries: report per query
	specs       []query.Spec   // in CLI order
	order       []int          // spec indices in attach order (= query ids)
	attached    int            // specs order[:attached] are registered
	model       *dist.NetModel // nil: live TCP
	tcp         dist.NetConfig
	killAt      int64 // -kill step (0: none)
	killSite    int   // -kill site
	coordAt     int64 // -kill-coord step (0: none)
	standby     bool
	snapDir     string
	restoreDir  string
	restored    bool // the initial coordinator booted from -restore
	adm         *admin
	ex          *exactMonitor
	rt          runtime
	reg, eng    *query.Coord // the registry the sites read; the serving coordinator
	next        *query.Coord // the replacement while the coordinator is down
	healAt      int64        // the update at which next takes over
}

// engine builds the engine with the first n queries of the attach order.
func (d *driver) engine(n int) (*query.Coord, []dist.SiteAlgo) {
	specs := make([]query.Spec, n)
	for j := range specs {
		specs[j] = d.specs[d.order[j]]
	}
	c, sites, err := query.New(d.k, specs)
	if err != nil {
		usagef("%v", err)
	}
	return c, sites
}

// attachedBy counts the queries registered once update step has run.
func (d *driver) attachedBy(step int64) int {
	n := 0
	for n < len(d.order) && d.specs[d.order[n]].AttachAt <= step {
		n++
	}
	return n
}

// restore builds a coordinator from the newest intact snapshot in
// -restore. The queries attached by the snapshot's step are registered (in
// attach order) before it is decoded and any attached since after it, so
// query ids line up with the sites'.
func (d *driver) restore() (*query.Coord, []dist.SiteAlgo, int64) {
	var sites []dist.SiteAlgo
	algo, step, skipped, err := restoreLatest(d.restoreDir, func(step int64) any {
		c, s := d.engine(d.attachedBy(step))
		sites = s
		return c
	})
	for _, s := range skipped {
		fmt.Fprintf(d.errOut, "varmon: skipping damaged snapshot %s\n", s)
	}
	if err != nil {
		fatalf("%v", err)
	}
	c := algo.(*query.Coord)
	for j := d.attachedBy(step); j < d.attached; j++ {
		if _, err := c.Attach(d.specs[d.order[j]], discard{}); err != nil {
			fatalf("attach: %v", err)
		}
	}
	return c, sites, step
}

// start builds the engine — from disk when -restore is not reserved for a
// standby — and deploys it on the runtime.
func (d *driver) start(seed uint64) {
	d.attached = d.attachedBy(0)
	var sites []dist.SiteAlgo
	if d.restored = d.restoreDir != "" && !(d.coordAt > 0 && d.standby); d.restored {
		var step int64
		d.eng, sites, step = d.restore()
		d.attached = d.attachedBy(step)
		fmt.Fprintf(d.out, "coordinator restored from the step-%d snapshot in %s (f̂ resumes at %d)\n",
			step, d.restoreDir, d.eng.Estimate())
	} else {
		d.eng, sites = d.engine(d.attached)
	}
	d.reg = d.eng
	var where string
	if d.model != nil {
		d.rt, where = newAsyncRuntime(d.eng, sites, *d.model, seed, d.adm.sink()), "async simulator, net "+d.model.String()
	} else {
		d.rt = newTCPRuntime(d.eng, sites, d.tcp, d.adm.sink(), d.out)
	}
	if d.restored { // a new incarnation: the sites fold their books through the standby handshake
		d.rt.crashCoord(d.eng, 0)
		d.rt.healCoord(d.eng)
	}
	if t, ok := d.rt.(*tcpRuntime); ok {
		where = "coordinator on " + t.Addr()
	}
	if d.killAt > 0 {
		where += fmt.Sprintf("; killing site %d at step %d", d.killSite, d.killAt)
	}
	if d.coordAt > 0 {
		where += fmt.Sprintf("; killing the coordinator at step %d (%s)", d.coordAt, d.mode())
	}
	fmt.Fprintf(d.out, "%s: %d sites, %d queries (%d pending attach)\n", where, d.k, len(d.specs), len(d.specs)-d.attached)
}

func (d *driver) mode() string {
	if d.standby {
		return "warm standby"
	}
	return "cold restart"
}

// drive is the run loop. The admin mutex fences the runtime from
// concurrent HTTP scrapes (a no-op without -http/-events-out).
func (d *driver) drive(st stream.Stream) {
	var steps, last int64
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		if u.Site < 0 || u.Site >= d.k {
			fatalf("update %d is assigned to site %d, outside [0, %d); was the trace recorded with a larger -k?",
				u.T, u.Site, d.k)
		}
		d.ex.apply(u)
		steps, last = steps+1, u.T
		d.adm.locked(func() {
			d.rt.Step(u)
			if d.next != nil && u.T >= d.healAt {
				d.heal(u.T)
			}
			if u.T == d.killAt {
				d.crashSite(u.T)
			}
			if u.T == d.coordAt {
				d.crashCoord(u.T)
			}
			if d.next == nil {
				d.attachDue(u.T)
			}
			if u.T%d.every == 0 {
				d.progress(u.T)
			}
		})
	}
	for _, at := range []int64{d.killAt, d.coordAt} {
		if at > last {
			fatalf("stream ended before fault step %d (only %d updates)", at, steps)
		}
	}
	var s dist.Stats
	var class []dist.Stats
	var qs []query.Status
	d.adm.locked(func() {
		if d.next != nil {
			d.heal(last) // a short stream can end mid-outage; the plan still owes the takeover
		}
		d.rt.quiesce(true)
		s, class, qs = d.rt.Stats(), d.rt.ClassStats(), d.status()
	})
	miss := d.report(s, class, qs, steps)
	d.adm.finish() // before the asserts, so a failing run still dumps its trace
	if d.killAt > 0 && s.Takeovers != 1 {
		fatalf("expected exactly one takeover, saw %d", s.Takeovers)
	}
	if d.coordAt > 0 {
		want := int64(1)
		if d.restored {
			want = 2 // booting from disk was a takeover too
		}
		if s.CoordTakeovers != want {
			fatalf("expected %d coordinator takeover(s), saw %d", want, s.CoordTakeovers)
		}
	}
	if d.killAt > 0 || d.coordAt > 0 {
		if miss != "" {
			fatalf("%s after the takeover", miss)
		}
		if d.killAt > 0 {
			fmt.Fprintln(d.out, "kill-and-takeover smoke passed")
		}
		if d.coordAt > 0 {
			fmt.Fprintln(d.out, "coordinator kill-and-takeover smoke passed")
		}
	}
}

// status reads every query's row under the coordinator's lock.
func (d *driver) status() (qs []query.Status) {
	d.rt.Inject(func(dist.Outbox) { qs = d.eng.Status() })
	return qs
}

// persist checkpoints the serving coordinator under its lock into
// -snapshot-dir, returning the blob.
func (d *driver) persist(t int64) []byte {
	var blob []byte
	var err error
	d.rt.Inject(func(dist.Outbox) { blob, err = track.SnapshotCoord(d.eng) })
	if err != nil {
		fatalf("snapshot: %v", err)
	}
	if d.snapDir != "" {
		if _, err := writeSnapshotFile(d.snapDir, t, blob); err != nil {
			fatalf("persisting snapshot: %v", err)
		}
	}
	return blob
}

// attachDue registers every query whose attach step has passed. After a
// coordinator takeover the sites still read the registry they were built
// with, so the spec lands there first: an announcement must never reach a
// site ahead of the spec it names.
func (d *driver) attachDue(t int64) {
	for d.attached < len(d.order) && d.specs[d.order[d.attached]].AttachAt <= t {
		spec := d.specs[d.order[d.attached]]
		if d.reg != d.eng {
			if _, err := d.reg.Attach(spec, discard{}); err != nil {
				fatalf("attach: %v", err)
			}
		}
		var qid int
		var err error
		d.rt.Inject(func(out dist.Outbox) { qid, err = d.eng.Attach(spec, out) })
		if err != nil {
			fatalf("attach: %v", err)
		}
		d.attached++
		fmt.Fprintf(d.out, "t=%-10d attached query %s (qid %d)\n", t, spec.Label(qid), qid)
	}
}

// crashSite kills the -kill victim and hands the runtime a replacement
// restored from a snapshot of the victim's current state.
func (d *driver) crashSite(t int64) {
	var snap []byte
	var err error
	if werr := d.rt.WithSite(d.killSite, func(a dist.SiteAlgo) { snap, err = track.SnapshotSite(a) }); werr != nil || err != nil {
		fatalf("snapshot: %v", errors.Join(werr, err))
	}
	fresh := d.reg.RebuildSite(d.killSite)
	if err := track.RestoreSite(fresh, snap); err != nil {
		fatalf("restore: %v", err)
	}
	when := d.rt.crashSite(d.killSite, fresh)
	fmt.Fprintf(d.out, "t=%-10d killed site %d (snapshot: %d bytes); %s\n", t, d.killSite, len(snap), when)
}

// crashCoord checkpoints and kills the coordinator; its replacement takes
// over at the next progress line.
func (d *driver) crashCoord(t int64) {
	d.rt.quiesce(false)
	snap := d.persist(t)
	if d.standby && d.restoreDir != "" {
		var step int64
		d.next, _, step = d.restore()
		fmt.Fprintf(d.out, "t=%-10d standby restored from the step-%d snapshot in %s\n", t, step, d.restoreDir)
	} else if d.next, _ = d.engine(d.attached); d.standby {
		if err := track.RestoreCoord(d.next, snap); err != nil {
			fatalf("restore: %v", err)
		}
	}
	d.healAt = (t/d.every + 1) * d.every
	d.rt.crashCoord(d.next, d.healAt)
	fmt.Fprintf(d.out, "t=%-10d killed the coordinator (snapshot: %d bytes); the %s takes over at t=%d\n",
		t, len(snap), d.mode(), d.healAt)
}

func (d *driver) heal(t int64) {
	detail := d.rt.healCoord(d.next)
	d.eng, d.next = d.next, nil
	fmt.Fprintf(d.out, "t=%-10d coordinator takeover (%s): %s\n", t, d.mode(), detail)
}

func (d *driver) progress(t int64) {
	d.rt.quiesce(false)
	line := fmt.Sprintf("t=%-10d f=%-10d", t, d.ex.f)
	if d.next != nil {
		fmt.Fprintln(d.out, line+" f̂=(coordinator down) [degraded]")
		return
	}
	if d.snapDir != "" {
		d.persist(t)
	}
	qs := d.status()
	for _, q := range qs {
		if d.multi {
			line += fmt.Sprintf("  %s=%d", q.Name, q.Estimate)
		} else {
			line += fmt.Sprintf(" f̂=%-10d rel.err=%-8.5f", q.Estimate, relErr(d.ex.f, q.Estimate))
		}
	}
	s := d.rt.Stats()
	line += fmt.Sprintf(" msgs=%d", s.Total())
	if d.model != nil {
		line += fmt.Sprintf(" stale(avg/max)=%.1f/%d dropped=%d", s.AvgStaleness(), s.StalenessMax, s.Dropped)
	}
	if h := health(d.rt, d.k); !h.OK {
		line += " [" + h.Detail + "]"
	}
	fmt.Fprintln(d.out, line)
}

// report prints the final report and describes the first deterministic
// query outside its ε band, if any.
func (d *driver) report(s dist.Stats, class []dist.Stats, qs []query.Status, steps int64) (miss string) {
	if d.multi {
		fmt.Fprintf(d.out, "\n%-12s %-10s %-7s %-10s %-10s %-9s %-6s %-9s %-11s %s\n",
			"query", "algo", "eps", "estimate", "true", "rel.err", "in-ε", "msgs", "wire bytes", "note")
	}
	allOK := true
	for qid, i := range d.order {
		spec := d.specs[i]
		if qid >= d.attached {
			fmt.Fprintf(d.out, "%-12s %-10s %-7g never attached (at=%d > n)\n", spec.Label(i), spec.Algo, spec.Eps, spec.AttachAt)
			continue
		}
		est, want := qs[qid].Estimate, d.ex.want(spec)
		re := relErr(want, est)
		ok := re <= spec.Eps+1e-9
		if allOK = allOK && ok; !ok && spec.Algo == "det" && miss == "" {
			miss = fmt.Sprintf("query %s: estimate %d vs exact %d misses ε=%g", spec.Label(qid), est, want, spec.Eps)
		}
		if !d.multi {
			continue
		}
		var notes []string
		if spec.Filter != nil {
			notes = append(notes, "filter="+spec.Filter.Name)
		}
		if qs[qid].State != "" {
			// The threshold promise is the two-sided decision, judged on
			// the underlying tracked estimate above.
			notes = append(notes, fmt.Sprintf("f %s τ=%d", qs[qid].State, spec.Tau))
		}
		if spec.AttachAt > 0 {
			notes = append(notes, fmt.Sprintf("attached@%d", spec.AttachAt))
		}
		var cs dist.Stats
		if qid < len(class) {
			cs = class[qid]
		}
		fmt.Fprintf(d.out, "%-12s %-10s %-7g %-10d %-10d %-9.5f %-6v %-9d %-11d %s\n",
			spec.Label(qid), spec.Algo, spec.Eps, est, want, re, ok, cs.Total(), cs.Bytes, strings.Join(notes, " "))
	}
	perStep := float64(s.Total()) / float64(max(steps, 1))
	if d.multi {
		if !allOK {
			fmt.Fprintln(d.out, "WARNING: a query finished outside its ε band")
		}
		fmt.Fprintf(d.out, "\ntotal: %d messages (%.4f/update), %d wire bytes over one shared runtime\n", s.Total(), perStep, s.Bytes)
	} else {
		fmt.Fprintf(d.out, "\nfinal: f=%d f̂=%d rel.err=%.5f | messages=%d (%.4f/update) wire bytes=%d\n",
			d.ex.f, qs[0].Estimate, relErr(d.ex.f, qs[0].Estimate), s.Total(), perStep, s.Bytes)
	}
	if d.model != nil {
		fmt.Fprintf(d.out, "net: delivered=%d dropped=%d retransmitted=%d staleness avg=%.1f max=%d\n",
			s.Delivered(), s.Dropped, s.Retransmitted, s.AvgStaleness(), s.StalenessMax)
	}
	if d.killAt > 0 || d.coordAt > 0 {
		fmt.Fprintf(d.out, "faults: heartbeats sent/recv=%d/%d misses=%d takeovers=%d coordinator takeovers=%d epoch drops=%d\n",
			s.HeartbeatsSent, s.HeartbeatsRecv, s.HeartbeatMisses, s.Takeovers, s.CoordTakeovers, s.EpochDrops)
	}
	return miss
}

// exactMonitor tracks the ground truth every query is judged against: the
// net count, and per-item net counts for filtered and frequency queries.
type exactMonitor struct {
	f     int64
	items map[uint64]int64
}

func (e *exactMonitor) apply(u stream.Update) {
	e.f += u.Delta
	if n := e.items[u.Item] + u.Delta; n == 0 {
		delete(e.items, u.Item)
	} else {
		e.items[u.Item] = n
	}
}

// want returns the true value a spec's estimate chases: the net count,
// restricted to the filter when one is set (for frequency queries that is
// the filtered F1).
func (e *exactMonitor) want(spec query.Spec) int64 {
	if spec.Filter == nil {
		return e.f
	}
	var w int64
	for item, v := range e.items {
		if spec.Filter.Match(item) {
			w += v
		}
	}
	return w
}

// discard is the outbox of a registration whose announcement must not go
// out: the spec lands in a registry, the wire stays quiet.
type discard struct{}

func (discard) Send(dist.Msg)        {}
func (discard) SendTo(int, dist.Msg) {}
func (discard) Broadcast(dist.Msg)   {}

func relErr(f, est int64) float64 {
	diff := math.Abs(float64(f - est))
	if f == 0 {
		return diff
	}
	return diff / math.Abs(float64(f))
}
