package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// layer names one boundary the traced run times. Spans are recorded from
// the benchmark's own files only: around the calls it makes into a runtime
// (StepBatch, NetSite.Update and Barrier, Render, the snapshot calls) and,
// through the wrappers in wrap.go, around the calls a runtime makes into an
// algorithm or an outbox.
type layer uint8

const (
	lStep      layer = iota // runtime entry: Sim/AsyncSim.StepBatch, NetSite.Update
	lSiteUpd                // SiteAlgo.OnUpdate and OnUpdateBatch
	lSiteMsg                // SiteAlgo.OnMessage
	lSiteCtl                // SiteAlgo control hooks: OnRejoin, OnTakeover
	lCoordMsg               // CoordAlgo.OnMessage
	lCoordCtl               // CoordAlgo control hooks: site dead/alive/takeover/rejoin, coordinator takeover
	lOutbox                 // Outbox.Send, SendTo, Broadcast
	lBarrier                // NetSite.Barrier
	lPoll                   // one read: every estimate plus a metrics scrape
	lRender                 // obs.Metrics.Render
	lSnapSite               // track.SnapshotSite
	lSnapCoord              // track.SnapshotCoord
	lRestore                // track.RestoreSite and RestoreCoord
	numLayers
)

var layerNames = [numLayers]string{
	"dist.step", "site.update", "site.msg", "site.ctl", "coord.msg", "coord.ctl",
	"outbox.send", "dist.tcp.barrier", "read.poll", "obs.render",
	"track.snapshot.site", "track.snapshot.coord", "track.restore",
}

// spanCap bounds the spans one lane keeps for the JSONL file, and
// sampleEvery picks which traces keep theirs: a volatile run begins tens of
// millions of spans, so only every sampleEvery-th trace is written out.
// Self-time accounting covers every span regardless.
const (
	spanCap     = 1 << 16
	sampleEvery = 64
)

// span is one timed call, as written to the JSONL file. Trace is the id of
// the root span of its call tree: one per StepBatch call, NetSite.Update,
// probe or poll on the driving goroutine, one per delivered message on a
// TCP node's own goroutine.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerAgg accumulates one layer's spans: calls, work units (updates fed,
// messages sent), and self time, the busy time outside child spans.
type layerAgg struct {
	calls, units, self int64
}

type frame struct {
	layer     layer
	id        uint64
	start     int64
	childTime int64
}

// tracer owns the lanes of one traced phase and their common clock.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	lanes []*lane
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// lane records the spans of calls that never overlap: one goroutine, or
// several serialized by one lock (a TCP node's mutex). Nesting on a lane is
// what makes a span the parent of another.
type lane struct {
	base  time.Time
	id    uint64
	seq   uint64
	roots uint64
	trace uint64
	keep  bool
	stack []frame
	agg   [numLayers]layerAgg
	// kinds counts delivered messages by dist.Kind.
	kinds [256]int64
	spans []span
}

func (t *tracer) lane() *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{base: t.base, id: uint64(len(t.lanes) + 1), stack: make([]frame, 0, 16)}
	t.lanes = append(t.lanes, l)
	return l
}

func (l *lane) now() int64 { return int64(time.Since(l.base)) }

// begin opens a span on layer ly, nested in the lane's innermost open span.
func (l *lane) begin(ly layer) {
	l.seq++
	id := l.id<<40 | l.seq
	if len(l.stack) == 0 {
		l.roots++
		l.trace = id
		l.keep = l.roots%sampleEvery == 1 && len(l.spans) < spanCap
	}
	l.stack = append(l.stack, frame{layer: ly, id: id, start: l.now()})
}

// end closes the innermost span, crediting units of work to its layer, and
// returns the span's duration in nanoseconds.
func (l *lane) end(units int64) int64 {
	t := l.now()
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	d := t - f.start
	a := &l.agg[f.layer]
	a.calls++
	a.units += units
	a.self += d - f.childTime
	var parent uint64
	if n > 0 {
		l.stack[n-1].childTime += d
		parent = l.stack[n-1].id
	}
	if l.keep && len(l.spans) < spanCap {
		l.spans = append(l.spans, span{Trace: l.trace, ID: f.id, Parent: parent,
			Name: layerNames[f.layer], Start: f.start, End: t})
	}
	return d
}

// layers sums every lane's per-layer accumulators. Call it only after every
// goroutine that used a lane has stopped.
func (t *tracer) layers() (agg [numLayers]layerAgg, kinds [256]int64) {
	for _, l := range t.lanes {
		for i := range agg {
			agg[i].calls += l.agg[i].calls
			agg[i].units += l.agg[i].units
			agg[i].self += l.agg[i].self
		}
		for k := range kinds {
			kinds[k] += l.kinds[k]
		}
	}
	return agg, kinds
}

// writeSpans writes every kept span as one JSON object per line and returns
// how many it wrote.
func (t *tracer) writeSpans(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, l := range t.lanes {
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	if err := f.Close(); err != nil {
		return n, fmt.Errorf("write spans: %w", err)
	}
	return n, nil
}
