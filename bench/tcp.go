package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/track"
)

// tcp-loopback runs a deterministic tracker over two NetSites dialed into
// one coordinator on 127.0.0.1. Load comes from at most two goroutines: a
// generator, and in the ladder a prober. It runs two loops.
//
// Closed loop: each chunk deploys afresh, feeds a prefix of the segment as
// fast as NetSite.Update accepts it, and waits for barrier rounds to
// quiesce the deployment. It gives updates_per_s and msgs_per_update.
// Chunks are short and many: a chunk's throughput depends on where the
// scheduler places a fresh deployment's goroutines, and varied by ±12%
// between the chunks of one run, so chunkRate is taken over dozens.
//
// Open loop: at each rate of tcpRates a fresh deployment is fed on a fixed
// schedule, in 250 µs ticks, whatever the system does. Every 2 ms the
// prober issues a Barrier on the site of the latest update sent, then
// scrapes the coordinator's metrics, which contends for the coordinator
// mutex. Freshness runs from the probed update's due time to the barrier's
// acknowledgement. The reads of the reference rate give read_us_p50; the
// faster rates approach saturation, where read latency swings widely from
// run to run.
const (
	tcpK     = 2
	tcpEps   = 0.1
	tcpLevel = 32 // a low level keeps about 1.5 messages per update on the wire
	tcpTick  = 250 * time.Microsecond
	probeGap = 2 * time.Millisecond
	// A rate is sustained when the generator never falls more than maxLag
	// behind its schedule and freshness p90 stays within maxFreshP90.
	maxLag      = 20 * time.Millisecond
	maxFreshP90 = 5000 // µs
)

// tcpLanes are the lanes of a traced deployment: the generator's, which
// also times the sites' updates and their sends; the coordinator's; and
// one per site reader.
type tcpLanes struct {
	gen, coord *lane
	reader     [tcpK]*lane
}

type tcpDep struct {
	coord     *dist.Coordinator
	sites     []*dist.NetSite
	coordAlgo dist.CoordAlgo  // the inner coordinator
	siteAlgos []dist.SiteAlgo // the inner site algorithms
	metrics   *obs.Metrics
	barriers  atomic.Int64
}

func tcpAlgos() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(tcpK, tcpEps) }

func deployTCP(tl *tcpLanes) (*tcpDep, error) {
	coord, sites := tcpAlgos()
	c, s := coord, sites
	if tl != nil {
		c = wrapCoord(coord, tl.coord)
		s = make([]dist.SiteAlgo, tcpK)
		for i := range s {
			s[i] = wrapSite(sites[i], tl.gen, tl.reader[i])
		}
	}
	co, err := dist.ListenCoordinator("127.0.0.1:0", tcpK, c)
	if err != nil {
		return nil, err
	}
	d := &tcpDep{coord: co, coordAlgo: coord, siteAlgos: sites, metrics: &obs.Metrics{Stats: co.Stats}}
	for i := range s {
		ns, err := dist.DialNetSite(co.Addr(), i, s[i])
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.sites = append(d.sites, ns)
	}
	return d, nil
}

// close shuts the deployment down and returns the coordinator's first
// transport error.
func (d *tcpDep) close() error {
	for _, s := range d.sites {
		s.Close()
	}
	return d.coord.Close()
}

// quiesce runs barrier rounds over every site until a round moves no
// message: then nothing is in flight and the estimate is final. With l
// non-nil each Barrier is a span on l.
func (d *tcpDep) quiesce(l *lane) error {
	last := int64(-1)
	for range 32 {
		for _, s := range d.sites {
			if l != nil {
				l.begin(lBarrier)
			}
			err := s.Barrier()
			if l != nil {
				l.end(1)
			}
			if err != nil {
				return err
			}
			d.barriers.Add(1)
		}
		if t := d.coord.Stats().Total(); t != last {
			last = t
			continue
		}
		return d.coord.Err()
	}
	return errors.New("dist: no quiescence after 32 barrier rounds")
}

// finish quiesces the deployment, checks the estimate against f, and closes
// it; it returns the coordinator Stats and the final relative error.
func (d *tcpDep) finish(f int64, res *result) (dist.Stats, float64) {
	if err := d.quiesce(nil); err != nil {
		res.Failed++
		res.problems = append(res.problems, "quiesce: "+err.Error())
	}
	est := d.coord.Estimate()
	for _, p := range finalWithin("det over TCP after barriers", f, est, tcpEps) {
		res.fail("%s", p)
	}
	st := d.coord.Stats()
	res.Attempted += d.barriers.Load()
	if err := d.close(); err != nil {
		res.Failed++
		res.problems = append(res.problems, "transport: "+err.Error())
	}
	return st, math.Abs(float64(f-est)) / math.Max(1, math.Abs(float64(f)))
}

// tcpRun collects one phase's samples.
type tcpRun struct {
	setups, satUps, satMsgs []float64
	steps                   []float64 // ns per sampled NetSite.Update in a traced phase
	snap                    snapSamples
	blocks                  int64
	compactBits, maxRel     float64 // per update, and the final relative error
	// measureHeap asks satChunk for the heap a quiesced deployment holds.
	measureHeap bool
	liveMB      float64
}

// satChunk deploys, feeds ups closed-loop, quiesces and checkpoints; it
// reports whether the deployment came up. With tl non-nil the deployment
// is traced and every NetSite.Update is a span.
func (r *tcpRun) satChunk(ups []stream.Update, tl *tcpLanes, res *result) bool {
	t0 := time.Now()
	d, err := deployTCP(tl)
	if err != nil {
		res.Failed++
		res.problems = append(res.problems, "deploy: "+err.Error())
		return false
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	var f int64
	t0 = time.Now()
	for i, u := range ups {
		if tl != nil {
			tl.gen.begin(lStep)
			d.sites[u.Site].Update(u)
			if dur := tl.gen.end(1); i%stepSample == 0 {
				r.steps = append(r.steps, float64(dur))
			}
		} else {
			d.sites[u.Site].Update(u)
		}
		f += u.Delta
	}
	var gen *lane
	if tl != nil {
		gen = tl.gen
	}
	err = d.quiesce(gen)
	el := time.Since(t0)
	if err != nil {
		res.Failed++
		res.problems = append(res.problems, "quiesce: "+err.Error())
	}
	r.satUps = append(r.satUps, float64(len(ups))/el.Seconds())
	r.blocks = d.coordAlgo.(*track.BlockCoord).Blocks()
	// The deployment is quiescent; the coordinator lock keeps it so while
	// its halves are snapshotted.
	d.coord.Inject(func(dist.Outbox) {
		err = r.snap.checkpoint(func() (dist.CoordAlgo, []dist.SiteAlgo) { return d.coordAlgo, d.siteAlgos }, tcpAlgos)
	})
	if err != nil {
		res.Failed++
		res.problems = append(res.problems, "checkpoint: "+err.Error())
	}
	with := int64(0)
	if r.measureHeap {
		with = liveHeap()
	}
	st, rel := d.finish(f, res)
	if r.measureHeap {
		r.liveMB = float64(with-liveHeap()) / (1 << 20)
	}
	r.satMsgs = append(r.satMsgs, float64(st.Total())/float64(len(ups)))
	r.compactBits = float64(st.CompactBits) / float64(len(ups))
	r.maxRel = max(r.maxRel, rel)
	res.Attempted += int64(len(ups))
	return true
}

// saturate runs closed-loop chunks for dur (at least one).
func (r *tcpRun) saturate(ups []stream.Update, dur time.Duration, tr *tracer, res *result) {
	deadline := time.Now().Add(dur)
	for first := true; first || time.Now().Before(deadline); first = false {
		var tl *tcpLanes
		if tr != nil {
			tl = &tcpLanes{gen: tr.lane(), coord: tr.lane()}
			for i := range tl.reader {
				tl.reader[i] = tr.lane()
			}
		}
		if !r.satChunk(ups, tl, res) {
			return
		}
	}
}

// rung is the outcome of one open-loop rate.
type rung struct {
	rate           int
	fresh, barrier []float64 // µs per probe
	reads, renders []float64 // µs per scrape, and of its Render
	renderBytes    int
	lagMax         time.Duration
	msgs, barriers int64
	updates        int
}

// ladderRung feeds ups on the schedule of rate for dur and probes it.
func (r *tcpRun) ladderRung(ups []stream.Update, rate int, dur time.Duration, res *result) *rung {
	g := &rung{rate: rate}
	t0 := time.Now()
	d, err := deployTCP(nil)
	if err != nil {
		res.Failed++
		res.problems = append(res.problems, "deploy: "+err.Error())
		return g
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	n := min(int(float64(rate)*dur.Seconds()), len(ups))
	due := func(i int) time.Duration { return time.Duration(float64(i) * float64(time.Second) / float64(rate)) }
	var sent atomic.Int64
	var probeErrs atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	var buf bytes.Buffer
	start := time.Now()
	wg.Add(2)
	go func() { // generator
		defer wg.Done()
		defer close(done)
		for i := 0; i < n; {
			now := time.Since(start)
			target := min(int(now.Seconds()*float64(rate))+1, n)
			if i < target {
				g.lagMax = max(g.lagMax, now-due(i))
			}
			for ; i < target; i++ {
				d.sites[ups[i].Site].Update(ups[i])
				sent.Store(int64(i + 1))
			}
			if i < n {
				if w := due(i) - time.Since(start); w > 0 {
					time.Sleep(min(w, tcpTick))
				}
			}
		}
	}()
	go func() { // prober
		defer wg.Done()
		t := time.NewTicker(probeGap)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			i := int(sent.Load()) - 1
			if i < 0 {
				continue
			}
			p0 := time.Since(start)
			err := d.sites[ups[i].Site].Barrier()
			ack := time.Since(start)
			d.barriers.Add(1)
			if err != nil {
				probeErrs.Add(1)
				continue
			}
			g.fresh = append(g.fresh, us(ack-due(i)))
			g.barrier = append(g.barrier, us(ack-p0))
			s0 := time.Now()
			sink += d.coord.Estimate()
			s1 := time.Now()
			buf.Reset()
			_ = d.metrics.Render(&buf) // a bytes.Buffer write cannot fail
			s2 := time.Now()
			g.reads = append(g.reads, us(s2.Sub(s0)))
			g.renders = append(g.renders, us(s2.Sub(s1)))
			g.renderBytes = buf.Len()
		}
	}()
	wg.Wait()
	if e := probeErrs.Load(); e > 0 {
		res.Failed += e
		res.problems = append(res.problems, fmt.Sprintf("rate %d: %d barrier probes failed", rate, e))
	}
	var f int64
	for _, u := range ups[:n] {
		f += u.Delta
	}
	st, _ := d.finish(f, res)
	g.msgs, g.barriers, g.updates = st.Total(), d.barriers.Load(), n
	res.Attempted += int64(n) + int64(len(g.reads))
	return g
}

// ladder runs every rate of tcpRates for dur each, notes each rate's
// freshness, generator lag and message rate, and the highest rate
// sustained, and returns the rungs.
func (r *tcpRun) ladder(ups []stream.Update, dur time.Duration, res *result) []*rung {
	var out []*rung
	sustained := 0
	for _, rate := range tcpRates {
		g := r.ladderRung(ups, rate, dur, res)
		out = append(out, g)
		p90 := pct(g.fresh, 0.9)
		if len(g.fresh) > 0 && g.lagMax <= maxLag && p90 <= maxFreshP90 {
			sustained = rate
		}
		res.notes = append(res.notes, fmt.Sprintf(
			"ladder rate=%d probes=%d fresh_us p50=%.0f p90=%.0f p99=%.0f barrier_us p50=%.0f p99=%.0f gen_lag_ms_max=%.2f msgs_per_update=%.4f",
			rate, len(g.fresh), pct(g.fresh, 0.5), p90, pct(g.fresh, 0.99), pct(g.barrier, 0.5), pct(g.barrier, 0.99),
			float64(g.lagMax)/1e6, ratio(float64(g.msgs), float64(g.updates))))
	}
	res.notes = append(res.notes, fmt.Sprintf("ladder sustained_ups=%d (generator lag <= %v and fresh p90 <= %d us)",
		sustained, maxLag, maxFreshP90))
	return out
}

// tcpInput is the tcp-loopback segment: a walk reverting to tcpLevel,
// assigned round-robin to the two sites.
func tcpInput(n int, seed uint64) stream.Stream {
	return stream.NewAssign(stream.MeanReverting(int64(n), tcpLevel, 0.5, seed), stream.NewRoundRobin(tcpK))
}

func runTCP(cfg config) *result {
	res := &result{Correct: true}
	segN, satN := 1<<20, 1<<15
	if cfg.tiny {
		segN, satN = 1<<14, 1<<11
	}
	ups := make([]stream.Update, segN)
	t0 := time.Now()
	stream.NextBatch(tcpInput(segN, cfg.seed), ups)
	genNs := float64(time.Since(t0).Nanoseconds()) / float64(segN)
	sat := ups[:satN]
	S := time.Duration(cfg.seconds * float64(time.Second))
	rungs := time.Duration(len(tcpRates))

	warm := tcpRun{measureHeap: true}
	warm.satChunk(sat, nil, res) // warms caches and the listener path; not timed

	var r tcpRun
	if !cfg.trace {
		r.saturate(sat, 3*S/10, nil, res)
		r.ladder(ups, 7*S/10/rungs, res)
		res.fill(endToEnd, map[string]float64{
			"updates_per_s":   chunkRate(r.satUps),
			"msgs_per_update": median(r.satMsgs),
			"setup_s":         median(r.setups),
		})
		return res
	}

	// Traced run: a closed-loop phase and the ladder untraced, then a
	// traced closed-loop phase.
	var before, ms runtime.MemStats
	runtime.ReadMemStats(&before)
	r.saturate(sat, S/4, nil, res)
	runtime.ReadMemStats(&ms)
	satUpdates := float64(len(r.satUps) * satN)
	v := core.NewTracker(0)
	for _, u := range sat {
		v.Update(u.Delta)
	}
	vals := map[string]float64{
		"stream.ns_per_update":         genNs,
		"input.n":                      float64(satN),
		"input.k":                      tcpK,
		"input.v":                      v.V(),
		"track.blocks":                 float64(warm.blocks),
		"track.cost_ratio":             ratio(median(r.satMsgs)*float64(satN), bound.DetMessages(tcpK, tcpEps, v.V())),
		"dist.compact_bits_per_update": warm.compactBits,
		"gc.allocs_per_update":         float64(ms.Mallocs-before.Mallocs) / satUpdates,
		"gc.bytes_per_update":          float64(ms.TotalAlloc-before.TotalAlloc) / satUpdates,
		"gc.cycles":                    float64(ms.NumGC - before.NumGC),
		"mem.live_heap_mb":             warm.liveMB,
		"check.max_rel_err":            r.maxRel,
	}
	r.snap.values(vals)

	r0, w0, b0, ioOK := procIO()
	var msgs, frames float64
	ladder := r.ladder(ups, S/2/rungs, res)
	for _, g := range ladder {
		msgs += float64(g.msgs)
		// Each barrier is a request and an acknowledgement frame; each
		// deployment's handshake adds a hello per site.
		frames += float64(g.msgs + 2*g.barriers + tcpK)
	}
	r1, w1, b1, _ := procIO()
	if ioOK {
		vals["dist.tcp.writes_per_msg"] = ratio(float64(w1-w0), msgs)
		vals["dist.tcp.reads_per_msg"] = ratio(float64(r1-r0), msgs)
		vals["dist.tcp.wire_bytes_per_msg"] = ratio(float64(b1-b0), msgs)
	}
	vals["dist.tcp.frames_per_msg"] = ratio(frames, msgs)
	ref := ladder[0]
	vals["read.us_p50"] = pct(ref.reads, 0.5)
	vals["read.us_p90"] = pct(ref.reads, 0.9)
	vals["read.us_p99"] = pct(ref.reads, 0.99)
	vals["obs.render_us_p50"] = pct(ref.renders, 0.5)
	vals["obs.render_bytes"] = float64(ref.renderBytes)

	tr := newTracer()
	var rt tcpRun
	rt.saturate(sat, S/4, tr, res)
	agg, kinds := tr.layers()
	layerVals(vals, agg, kinds, agg[lStep].units)
	vals["dist.step_ns_p50"] = pct(rt.steps, 0.5)
	vals["dist.step_ns_p99"] = pct(rt.steps, 0.99)
	vals["trace.overhead_frac"] = 1 - chunkRate(rt.satUps)/chunkRate(r.satUps)
	n, err := tr.writeSpans(cfg.spans)
	if err != nil {
		res.Failed++
		res.problems = append(res.problems, "writing spans: "+err.Error())
	}
	vals["trace.spans"] = float64(n)
	res.fill(perLayer, vals)
	return res
}
