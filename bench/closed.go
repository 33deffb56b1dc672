package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/track"
)

// The four in-process workloads are closed loops over one seeded segment of
// updates, generated before any timer starts. The segment is fed in chunks:
// each chunk builds a fresh deployment (timed as set-up), feeds it the whole
// segment through StepBatch (timed as the chunk), and checks its output, so
// every chunk does identical work. On the deterministic runtimes every chunk
// must reproduce the first chunk's Stats, per-query Stats, estimates and
// estimate trajectory exactly; in a traced run that is the check that the
// wrappers change nothing.

// segmentLen is the number of updates in a workload's input segment.
func segmentLen(cfg config) int {
	if cfg.tiny {
		return 1 << 12
	}
	return 1 << 20
}

// simRuntime is what the closed loop needs from Sim and AsyncSim.
type simRuntime interface {
	StepBatch(us []stream.Update) (int, bool)
	Estimate() int64
	Stats() dist.Stats
	ClassStats() []dist.Stats
}

// deployment is one freshly built system under test.
type deployment struct {
	rt simRuntime
	// blocks counts the blocks completed by the standalone or query-0
	// partitioner.
	blocks  func() int64
	metrics *obs.Metrics // the scrape a poll renders
	// read answers every query the workload serves; a poll is read plus a
	// scrape of metrics.
	read func()
	// ests returns every query's current estimate, for identity checks.
	ests func() []int64
	// live returns the inner halves now running, for checkpoints.
	live func() (dist.CoordAlgo, []dist.SiteAlgo)
	// engine is set on engine-mixed only.
	engine *query.Coord
	// async and faults are set on async-faults only.
	async  *dist.AsyncSim
	faults *faultPlan
}

// closedSpec describes one closed-loop workload.
type closedSpec struct {
	k   int
	eps float64 // ε of Estimate(), the standalone tracker or query 0
	// maxViol is the largest share of steps allowed outside |f − f̂| ≤ ε|f|:
	// 0 for a deterministic tracker on Sim, the paper's per-step guarantee;
	// 1/3 for the randomized one, which holds each step with probability
	// 2/3; 1 where only the estimate at quiescence is promised.
	maxViol   float64
	pollEvery int
	input     func(n int, seed uint64) stream.Stream
	// algos builds the tracker's coordinator and site halves.
	algos func() (dist.CoordAlgo, []dist.SiteAlgo)
	// build deploys the halves on a runtime; with l non-nil every algorithm
	// is wrapped to time its calls on l.
	build func(seed uint64, coord dist.CoordAlgo, sites []dist.SiteAlgo, l *lane) *deployment
	// check returns the failed end-of-chunk checks beyond the per-step one.
	check func(d *deployment, ups []stream.Update) []string
	// msgBound is the paper's message bound for the checked tracker (query 0
	// on the engine) at variability v, the base of track.cost_ratio.
	msgBound func(v float64) float64
}

// mark records the estimate after a StepBatch call that delivered
// messages, at the number of updates consumed so far: between marks the
// estimate cannot change, so marks give f̂ after every update.
type mark struct {
	i   int
	est int64
}

// chunk is the outcome of feeding the segment to one deployment.
type chunk struct {
	setup, elapsed time.Duration
	stats          dist.Stats
	class          []dist.Stats
	ests           []int64
	blocks         int64
	digest         uint64 // hash of the estimate trajectory
	maxRel         float64
	viol           int64
	failed         int64 // failed snapshot and restore calls
	problems       []string
}

// samples collects the timings of one phase of chunks.
type samples struct {
	marks          []mark
	reads, renders []float64 // µs per poll, and of its Render
	steps          []float64 // ns per sampled StepBatch call of a traced chunk
	stepCalls      int
	renderBytes    int
	pendingSum     float64
	pendingN       int64
	pendingMax     int
	snap           snapSamples
	detect         []float64
	buf            bytes.Buffer
}

// sink keeps reads from being optimized away.
var sink int64

// driveChunk builds a deployment and feeds it the segment, polling every
// pollEvery updates. With l non-nil the deployment is traced on l.
func driveChunk(sp *closedSpec, ups []stream.Update, seed uint64, l *lane, s *samples) (*chunk, *deployment) {
	c := &chunk{}
	t0 := time.Now()
	coord, sites := sp.algos()
	d := sp.build(seed, coord, sites, l)
	c.setup = time.Since(t0)
	if d.faults != nil {
		d.faults.start(len(ups), l)
	}
	s.marks = append(s.marks[:0], mark{0, d.rt.Estimate()})
	nextPoll := sp.pollEvery
	t0 = time.Now()
	for i := 0; i < len(ups); {
		end := min(nextPoll, len(ups))
		if d.faults != nil {
			end = min(end, d.faults.next())
		}
		if l != nil {
			l.begin(lStep)
		}
		n, delivered := d.rt.StepBatch(ups[i:end])
		if l != nil {
			if dur := l.end(int64(n)); s.stepCalls%stepSample == 0 {
				s.steps = append(s.steps, float64(dur))
			}
			s.stepCalls++
			if d.async != nil {
				p := d.async.Pending()
				s.pendingSum += float64(p)
				s.pendingN++
				s.pendingMax = max(s.pendingMax, p)
			}
		}
		i += n
		if delivered {
			s.marks = append(s.marks, mark{i, d.rt.Estimate()})
		}
		if d.faults != nil {
			d.faults.after(i, s)
		}
		if i == nextPoll {
			nextPoll += sp.pollEvery
			s.poll(d, l)
		}
	}
	if d.async != nil {
		d.async.Flush()
	}
	c.elapsed = time.Since(t0)

	c.stats = d.rt.Stats()
	c.class = d.rt.ClassStats()
	c.ests = d.ests()
	c.blocks = d.blocks()
	h := fnv.New64a()
	var b [16]byte
	for _, m := range s.marks {
		putInt(b[:8], int64(m.i))
		putInt(b[8:], m.est)
		h.Write(b[:])
	}
	c.digest = h.Sum64()
	c.maxRel, c.viol = stepErrors(ups, s.marks, sp.eps)
	if frac := float64(c.viol) / float64(len(ups)); frac > sp.maxViol {
		c.problems = append(c.problems, fmt.Sprintf("%d steps outside ε=%g (max rel err %.4g)", c.viol, sp.eps, c.maxRel))
	}
	c.problems = append(c.problems, sp.check(d, ups)...)
	if d.faults != nil {
		c.problems = append(c.problems, d.faults.problems...)
		c.failed = d.faults.failed
	}
	if err := s.snap.checkpoint(d.live, sp.algos); err != nil {
		c.failed++
		c.problems = append(c.problems, "checkpoint: "+err.Error())
	}
	return c, d
}

// stepSample is the stride at which traced runtime entry calls are kept
// for the step latency percentiles.
const stepSample = 8

func putInt(b []byte, x int64) {
	for i := range 8 {
		b[i] = byte(x >> (8 * i))
	}
}

// stepErrors replays the estimate trajectory against the exact prefix sums
// and returns the largest relative error and the number of steps with
// |f − f̂| > ε|f|.
func stepErrors(ups []stream.Update, marks []mark, eps float64) (maxRel float64, viol int64) {
	var f int64
	est := marks[0].est
	mi := 1
	for j, u := range ups {
		f += u.Delta
		for mi < len(marks) && marks[mi].i == j+1 {
			est = marks[mi].est
			mi++
		}
		diff := math.Abs(float64(f - est))
		af := math.Abs(float64(f))
		rel := diff
		if af > 0 {
			rel = diff / af
		}
		maxRel = max(maxRel, rel)
		if diff > eps*af {
			viol++
		}
	}
	return maxRel, viol
}

// poll makes one read: every estimate the workload serves, then a scrape.
func (s *samples) poll(d *deployment, l *lane) {
	if l != nil {
		l.begin(lPoll)
	}
	t0 := time.Now()
	d.read()
	t1 := time.Now()
	s.buf.Reset()
	if l != nil {
		l.begin(lRender)
	}
	_ = d.metrics.Render(&s.buf) // a bytes.Buffer write cannot fail
	if l != nil {
		l.end(1)
		l.end(1)
	}
	t2 := time.Now()
	s.reads = append(s.reads, us(t2.Sub(t0)))
	s.renders = append(s.renders, us(t2.Sub(t1)))
	s.renderBytes = s.buf.Len()
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// same reports how chunk c differs from the reference chunk, if at all.
func (c *chunk) same(ref *chunk) error {
	switch {
	case c.stats != ref.stats:
		return fmt.Errorf("Stats %+v, reference %+v", c.stats, ref.stats)
	case !slices.Equal(c.class, ref.class):
		return fmt.Errorf("per-query Stats differ from the reference")
	case !slices.Equal(c.ests, ref.ests):
		return fmt.Errorf("final estimates %v, reference %v", c.ests, ref.ests)
	case c.digest != ref.digest:
		return fmt.Errorf("estimate trajectory differs from the reference")
	case c.blocks != ref.blocks:
		return fmt.Errorf("%d blocks, reference %d", c.blocks, ref.blocks)
	}
	return nil
}

// phase feeds chunks for at least dur seconds (at least one chunk) and
// checks each against ref. With tr non-nil every chunk is traced.
type phase struct {
	chunks  []*chunk
	s       samples
	updates int64
	last    *deployment
	gc      runtime.MemStats // allocation counters over the phase
}

func runPhase(sp *closedSpec, ups []stream.Update, cfg config, ref *chunk, tr *tracer, dur float64, res *result) *phase {
	p := &phase{}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(time.Duration(dur * float64(time.Second)))
	for len(p.chunks) == 0 || time.Now().Before(deadline) {
		var l *lane
		if tr != nil {
			l = tr.lane()
		}
		c, d := driveChunk(sp, ups, cfg.seed, l, &p.s)
		p.chunks = append(p.chunks, c)
		p.last = d
		p.updates += int64(len(ups))
		res.Attempted += int64(len(ups))
		res.Failed += c.failed
		for _, pr := range c.problems {
			res.fail("%s", pr)
		}
		if err := c.same(ref); err != nil {
			res.fail("chunk %d (traced=%v) is not identical to the reference: %v", len(p.chunks), tr != nil, err)
		}
	}
	runtime.ReadMemStats(&p.gc)
	p.gc.Mallocs -= before.Mallocs
	p.gc.TotalAlloc -= before.TotalAlloc
	p.gc.NumGC -= before.NumGC
	res.Attempted += int64(len(p.s.reads))
	return p
}

func (p *phase) throughputs(n int) []float64 {
	out := make([]float64, len(p.chunks))
	for i, c := range p.chunks {
		out[i] = float64(n) / c.elapsed.Seconds()
	}
	return out
}

func (p *phase) setups() []float64 {
	out := make([]float64, len(p.chunks))
	for i, c := range p.chunks {
		out[i] = c.setup.Seconds()
	}
	return out
}

// runClosed runs one closed-loop workload and reports its metrics.
func runClosed(cfg config, sp *closedSpec) *result {
	res := &result{Correct: true}
	n := segmentLen(cfg)
	ups := make([]stream.Update, n)
	t0 := time.Now()
	if got := stream.NextBatch(sp.input(n, cfg.seed), ups); got != n {
		res.fail("input generator produced %d of %d updates", got, n)
		res.fill(endToEnd, nil)
		return res
	}
	genNs := float64(time.Since(t0).Nanoseconds()) / float64(n)
	v := core.NewTracker(0)
	for _, u := range ups {
		v.Update(u.Delta)
	}
	// The first chunk warms caches and is the reference every later chunk
	// must reproduce; it is not timed.
	var warm samples
	ref, _ := driveChunk(sp, ups, cfg.seed, nil, &warm)
	res.Attempted += int64(n)
	res.Failed += ref.failed
	for _, pr := range ref.problems {
		res.fail("%s", pr)
	}

	if !cfg.trace {
		p := runPhase(sp, ups, cfg, ref, nil, cfg.seconds, res)
		res.fill(endToEnd, map[string]float64{
			"updates_per_s":   chunkRate(p.throughputs(n)),
			"msgs_per_update": float64(ref.stats.Total()) / float64(n),
			"setup_s":         median(p.setups()),
		})
		return res
	}

	pu := runPhase(sp, ups, cfg, ref, nil, cfg.seconds/2, res)
	liveHeap := pu.retainedMB()
	tr := newTracer()
	pt := runPhase(sp, ups, cfg, ref, tr, cfg.seconds/2, res)
	agg, kinds := tr.layers()
	nSpans, err := tr.writeSpans(cfg.spans)
	if err != nil {
		res.Failed++
		res.problems = append(res.problems, "writing spans: "+err.Error())
	}

	fn := float64(n)
	msgs := ref.stats
	if len(ref.class) > 0 {
		msgs = ref.class[0]
	}
	vals := map[string]float64{
		"stream.ns_per_update":         genNs,
		"input.n":                      fn,
		"input.k":                      float64(sp.k),
		"input.v":                      v.V(),
		"track.blocks":                 float64(ref.blocks),
		"track.cost_ratio":             ratio(float64(msgs.Total()), sp.msgBound(v.V())),
		"dist.compact_bits_per_update": float64(ref.stats.CompactBits) / fn,
		"read.us_p50":                  pct(pu.s.reads, 0.5),
		"read.us_p90":                  pct(pu.s.reads, 0.9),
		"read.us_p99":                  pct(pu.s.reads, 0.99),
		"obs.render_us_p50":            pct(pu.s.renders, 0.5),
		"obs.render_bytes":             float64(pu.s.renderBytes),
		"gc.allocs_per_update":         float64(pu.gc.Mallocs) / float64(pu.updates),
		"gc.bytes_per_update":          float64(pu.gc.TotalAlloc) / float64(pu.updates),
		"gc.cycles":                    float64(pu.gc.NumGC),
		"dist.step_ns_p50":             pct(pt.s.steps, 0.5),
		"dist.step_ns_p99":             pct(pt.s.steps, 0.99),
		"mem.live_heap_mb":             liveHeap,
		"check.max_rel_err":            ref.maxRel,
		"check.violation_frac":         float64(ref.viol) / fn,
		"trace.overhead_frac":          1 - chunkRate(pt.throughputs(n))/chunkRate(pu.throughputs(n)),
		"trace.spans":                  float64(nSpans),
	}
	for q, cs := range ref.class {
		if q < 8 {
			vals[fmt.Sprintf("query.q%d.msgs_per_update", q)] = float64(cs.Total()) / fn
		}
	}
	layerVals(vals, agg, kinds, agg[lStep].units)
	// The fault counters stay 0 on Sim, which has no faults.
	st := ref.stats
	vals["dist.async.pending_mean"] = ratio(pt.s.pendingSum, float64(pt.s.pendingN))
	vals["dist.async.pending_max"] = float64(pt.s.pendingMax)
	vals["dist.async.retransmitted_total"] = float64(st.Retransmitted)
	vals["dist.async.dropped_total"] = float64(st.Dropped)
	vals["dist.async.epoch_drops_total"] = float64(st.EpochDrops)
	vals["dist.async.heartbeats_sent_total"] = float64(st.HeartbeatsSent)
	vals["dist.async.heartbeat_misses_total"] = float64(st.HeartbeatMisses)
	vals["dist.async.takeovers_total"] = float64(st.Takeovers)
	vals["dist.async.coord_takeovers_total"] = float64(st.CoordTakeovers)
	vals["dist.async.staleness_mean_ticks"] = st.AvgStaleness()
	vals["dist.async.staleness_max_ticks"] = float64(st.StalenessMax)
	vals["dist.async.detect_ticks_mean"] = mean(warm.detect)
	pu.s.snap.values(vals)
	res.fill(perLayer, vals)
	return res
}

// retainedMB returns the heap the phase's last deployment holds, in MB:
// the post-GC heap with it minus the post-GC heap once it is dropped.
func (p *phase) retainedMB() float64 {
	with := liveHeap()
	p.last = nil
	return float64(with-liveHeap()) / (1 << 20)
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// layerVals derives the span-based per-layer metrics, per update fed
// through the runtime entry (updates) where the unit is per update.
func layerVals(vals map[string]float64, agg [numLayers]layerAgg, kinds [256]int64, updates int64) {
	u := float64(updates)
	per := func(a layerAgg) float64 { return ratio(float64(a.self), float64(a.calls)) }
	vals["dist.ns_per_update"] = ratio(float64(agg[lStep].self), u)
	vals["dist.calls_per_update"] = ratio(float64(agg[lStep].calls), u)
	vals["site.ns_per_update"] = ratio(float64(agg[lSiteUpd].self), float64(agg[lSiteUpd].units))
	vals["site.updates_per_call"] = ratio(float64(agg[lSiteUpd].units), float64(agg[lSiteUpd].calls))
	vals["site.ns_per_msg"] = per(agg[lSiteMsg])
	vals["coord.ns_per_msg"] = per(agg[lCoordMsg])
	vals["outbox.ns_per_send"] = per(agg[lOutbox])
	vals["outbox.sends_per_update"] = ratio(float64(agg[lOutbox].calls), u)
	var drift, collect, block, fr, other int64
	for k, c := range kinds {
		switch dist.Kind(k) {
		case dist.KindDriftReport:
			drift += c
		case dist.KindStateRequest, dist.KindStateReply:
			collect += c
		case dist.KindNewBlock, dist.KindCountReport:
			block += c
		case dist.KindFreqReport, dist.KindFreqEnd:
			fr += c
		default:
			other += c
		}
	}
	vals["track.msgs.drift_per_update"] = ratio(float64(drift), u)
	vals["track.msgs.collect_per_update"] = ratio(float64(collect), u)
	vals["track.msgs.block_per_update"] = ratio(float64(block), u)
	vals["track.msgs.freq_per_update"] = ratio(float64(fr), u)
	vals["track.msgs.control_per_update"] = ratio(float64(other), u)
}

// instrument wraps a tracker's halves to time their calls on l; with l nil
// it returns them unchanged.
func instrument(coord dist.CoordAlgo, sites []dist.SiteAlgo, l *lane) (dist.CoordAlgo, []dist.SiteAlgo) {
	if l == nil {
		return coord, sites
	}
	ws := make([]dist.SiteAlgo, len(sites))
	for i, s := range sites {
		ws[i] = wrapSite(s, l, l)
	}
	return wrapCoord(coord, l), ws
}

// simDeployment deploys a standalone tracker on Sim.
func simDeployment(_ uint64, coord dist.CoordAlgo, sites []dist.SiteAlgo, l *lane) *deployment {
	c, s := instrument(coord, sites, l)
	sim := dist.NewSim(c, s)
	return &deployment{
		rt:      sim,
		blocks:  coord.(*track.BlockCoord).Blocks,
		metrics: &obs.Metrics{Stats: sim.Stats},
		read:    func() { sink += sim.Estimate() },
		ests:    func() []int64 { return []int64{sim.Estimate()} },
		live:    func() (dist.CoordAlgo, []dist.SiteAlgo) { return coord, sites },
	}
}

// finalWithin checks a final estimate against the exact value.
func finalWithin(name string, f, est int64, eps float64) []string {
	if math.Abs(float64(f-est)) > eps*math.Abs(float64(f)) {
		return []string{fmt.Sprintf("%s: final estimate %d, exact %d, outside ε=%g", name, est, f, eps)}
	}
	return nil
}

func finalF(ups []stream.Update) int64 {
	var f int64
	for _, u := range ups {
		f += u.Delta
	}
	return f
}

// simSmooth's input is nearly monotone, a database that grows more than
// it shrinks (deletions are a sixth as frequent as inserts): f climbs away
// from 0 at once, so the few messages it costs vary little from seed to
// seed. A walk with a small drift lingers near 0 for a seed-dependent time,
// and its message count varied by a third across ten seeds.
func simSmooth() *closedSpec {
	const k, eps = 8, 0.1
	return &closedSpec{
		k: k, eps: eps, maxViol: 0, pollEvery: 1 << 14,
		input: func(n int, seed uint64) stream.Stream {
			return stream.NewAssign(stream.NearlyMonotone(int64(n), 0.2, seed), stream.NewSkewed(k, 1.2, seed+1))
		},
		algos: func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(k, eps) },
		build: simDeployment,
		check: func(d *deployment, ups []stream.Update) []string {
			return finalWithin("det", finalF(ups), d.rt.Estimate(), eps)
		},
		msgBound: func(v float64) float64 { return bound.DetMessages(k, eps, v) },
	}
}

// volatileLevel is the level the volatile streams revert to: f hovers near
// it, so every update moves f by about 1/level and the message rate stays
// the same along the stream and across seeds. A random walk would drift
// away from 0 by a seed-dependent amount and make the work seed-dependent.
const volatileLevel = 1024

// volatileSeed seeds the randomized tracker; it is part of the program, not
// of its input.
const volatileSeed = 7

func simVolatile() *closedSpec {
	const k, eps = 8, 0.1
	return &closedSpec{
		k: k, eps: eps, maxViol: 1.0 / 3, pollEvery: 1 << 14,
		input: func(n int, seed uint64) stream.Stream {
			return stream.NewAssign(stream.MeanReverting(int64(n), volatileLevel, 0.5, seed), stream.NewRoundRobin(k))
		},
		algos:    func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewRandomized(k, eps, volatileSeed) },
		build:    simDeployment,
		check:    func(*deployment, []stream.Update) []string { return nil },
		msgBound: func(v float64) float64 { return bound.RandMessagesExpected(k, eps, v) },
	}
}
