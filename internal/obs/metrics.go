package obs

import (
	"io"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/dist"
)

// Health is a runtime liveness verdict for /healthz and the
// varmon_healthy gauge.
type Health struct {
	// OK means the runtime is fully live: no site currently presumed
	// dead, no takeover in progress.
	OK bool
	// Detail is a short human-readable explanation when degraded
	// ("site 2 dead", "coordinator takeover in progress"); empty when OK.
	Detail string
}

// Metrics renders a runtime's counters in the Prometheus text exposition
// format (version 0.0.4). All state is pulled through callbacks at render
// time, so installing a Metrics costs the runtime nothing between
// scrapes. Rendering order is fixed — no map iteration anywhere — so two
// renders of identical state are byte-identical (the golden test pins
// this).
//
// Naming scheme (see DESIGN.md "Observability"): every metric is
// varmon_-prefixed; aggregate counters are unlabeled families
// (varmon_messages_total); per-class counters are separate families
// carrying the class label (varmon_query_messages_total{query="0"}), so
// sum() over a per-class family equals the aggregate family exactly —
// except varmon_query_staleness_max_ticks, which aggregates as a max.
type Metrics struct {
	// Stats returns the aggregate counters. Required.
	Stats func() dist.Stats
	// Classes returns the per-class counter tables (nil when the runtime
	// has no classifier). Optional.
	Classes func() []dist.Stats
	// ClassLabel is the per-class label key and family-name infix
	// ("query" renders varmon_query_messages_total{query="0"}).
	// Defaults to "class".
	ClassLabel string
	// ClassValue returns the label value for class i. Defaults to the
	// decimal index.
	ClassValue func(i int) string
	// Gauges, when set, contributes runtime-specific instantaneous values
	// (virtual clock, pending events, ring occupancy). Call emit once per
	// gauge in a fixed order.
	Gauges func(emit func(name, help string, value float64))
	// Health, when set, is the /healthz verdict and renders the
	// varmon_healthy gauge.
	Health func() Health
	// Ring, when set, contributes the event tracer's occupancy counters.
	Ring *Ring
	// Runtime enables Go runtime gauges (heap bytes, GC cycles,
	// goroutines). Off by default: their values are nondeterministic, and
	// leaving them out keeps rendered output reproducible for tests.
	Runtime bool
}

// statField describes one dist.Stats counter's rendering.
type statField struct {
	name, help, typ string
	get             func(*dist.Stats) int64
}

// statFields renders in this order, always. StalenessMax is the one
// gauge: it aggregates as a max, not a sum.
var statFields = []statField{
	{"messages_site_to_coord_total", "Messages delivered to the coordinator.", "counter",
		func(s *dist.Stats) int64 { return s.SiteToCoord }},
	{"messages_coord_to_site_total", "Messages delivered to sites.", "counter",
		func(s *dist.Stats) int64 { return s.CoordToSite }},
	{"bytes_total", "Wire volume in bytes (MsgSize per message).", "counter",
		func(s *dist.Stats) int64 { return s.Bytes }},
	{"compact_bits_total", "Message volume in the paper's compact varint bit model.", "counter",
		func(s *dist.Stats) int64 { return s.CompactBits }},
	{"dropped_total", "Messages lost for good (network loss or dead slot).", "counter",
		func(s *dist.Stats) int64 { return s.Dropped }},
	{"retransmitted_total", "Retransmission attempts.", "counter",
		func(s *dist.Stats) int64 { return s.Retransmitted }},
	{"staleness_ticks_total", "Summed send-to-delivery staleness in virtual ticks.", "counter",
		func(s *dist.Stats) int64 { return s.StalenessSum }},
	{"staleness_max_ticks", "Largest single-message send-to-delivery staleness.", "gauge",
		func(s *dist.Stats) int64 { return s.StalenessMax }},
	{"heartbeats_sent_total", "Heartbeat beacons emitted by sites.", "counter",
		func(s *dist.Stats) int64 { return s.HeartbeatsSent }},
	{"heartbeats_recv_total", "Heartbeat beacons received by the coordinator.", "counter",
		func(s *dist.Stats) int64 { return s.HeartbeatsRecv }},
	{"heartbeat_misses_total", "Detector intervals with an overdue heartbeat.", "counter",
		func(s *dist.Stats) int64 { return s.HeartbeatMisses }},
	{"takeovers_total", "Replacement sites spliced into dead slots.", "counter",
		func(s *dist.Stats) int64 { return s.Takeovers }},
	{"coord_takeovers_total", "Standby coordinators spliced in.", "counter",
		func(s *dist.Stats) int64 { return s.CoordTakeovers }},
	{"epoch_drops_total", "Drops due to incarnation gating (subset of dropped).", "counter",
		func(s *dist.Stats) int64 { return s.EpochDrops }},
}

// renderBuf is one Render call's pooled scratch (handlers may render
// concurrently): the exposition, and the Stats the getters read, whose
// address would otherwise cost a heap object per call.
type renderBuf struct {
	b     []byte
	stats dist.Stats
}

var renderBufs = sync.Pool{New: func() any { return new(renderBuf) }}

// Render writes the full exposition to w in one Write, appended piece by
// piece into a pooled buffer.
func (m *Metrics) Render(w io.Writer) error {
	rb := renderBufs.Get().(*renderBuf)
	b := rb.b[:0]
	if m.Health != nil {
		v := int64(0)
		if m.Health().OK {
			v = 1
		}
		b = appendFamily(b, "healthy", "Whether the runtime is fully live (no dead site, no takeover in progress).", "gauge", v)
	}
	rb.stats = m.Stats()
	for i := range statFields {
		f := &statFields[i]
		b = appendFamily(b, f.name, f.help, f.typ, f.get(&rb.stats))
	}
	if m.Ring != nil {
		b = appendFamily(b, "events_total", "Protocol events ever traced.", "counter", int64(m.Ring.Total()))
		b = appendFamily(b, "events_retained", "Protocol events currently retained in the trace ring.", "gauge", int64(m.Ring.Len()))
		b = appendFamily(b, "events_evicted_total", "Protocol events evicted from the trace ring.", "counter", int64(m.Ring.Evicted()))
	}
	if m.Gauges != nil {
		rb.b = b // the callback appends through rb, so b stays off the heap
		m.Gauges(func(name, help string, value float64) {
			b := appendHeader(rb.b, "", name, help, "gauge")
			b = strconv.AppendFloat(append(appendName(b, "", name), ' '), value, 'g', -1, 64)
			rb.b = append(b, '\n')
		})
		b = rb.b
	}
	if m.Runtime {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b = appendFamily(b, "go_heap_alloc_bytes", "Live heap bytes (runtime.MemStats.HeapAlloc).", "gauge", int64(ms.HeapAlloc))
		b = appendFamily(b, "go_total_alloc_bytes", "Cumulative heap bytes allocated.", "counter", int64(ms.TotalAlloc))
		b = appendFamily(b, "go_gc_cycles_total", "Completed GC cycles.", "counter", int64(ms.NumGC))
		b = appendFamily(b, "go_goroutines", "Live goroutines.", "gauge", int64(runtime.NumGoroutine()))
	}
	if m.Classes != nil {
		if classes := m.Classes(); len(classes) > 0 {
			label := m.ClassLabel
			if label == "" {
				label = "class"
			}
			for i := range statFields {
				f := &statFields[i]
				b = appendHeader(b, label, f.name, "", f.typ)
				for ci := range classes {
					b = append(append(appendName(b, label, f.name), '{'), label...)
					b = append(b, "=\""...)
					if m.ClassValue != nil {
						b = appendLabelValue(b, m.ClassValue(ci))
					} else {
						b = strconv.AppendInt(b, int64(ci), 10)
					}
					b = append(strconv.AppendInt(append(b, "\"} "...), f.get(&classes[ci]), 10), '\n')
				}
			}
		}
	}
	_, err := w.Write(b)
	rb.b = b
	renderBufs.Put(rb)
	return err
}

// appendName appends the name of a family: varmon_<name>, or with label
// set the per-label family varmon_<label>_<name>.
func appendName(b []byte, label, name string) []byte {
	b = append(b, "varmon_"...)
	if label != "" {
		b = append(append(b, label...), '_')
	}
	return append(b, name...)
}

// appendHeader appends a family's HELP and TYPE lines. A per-label
// family's help is "Per-<label> split of varmon_<name>.".
func appendHeader(b []byte, label, name, help, typ string) []byte {
	b = append(appendName(append(b, "# HELP "...), label, name), ' ')
	if label != "" {
		b = append(append(append(append(b, "Per-"...), label...), " split of varmon_"...), name...)
		b = append(b, '.')
	} else {
		b = append(b, help...)
	}
	b = append(appendName(append(b, "\n# TYPE "...), label, name), ' ')
	return append(append(b, typ...), '\n')
}

// appendFamily appends the unlabeled family varmon_<name> and its one
// sample, v.
func appendFamily(b []byte, name, help, typ string, v int64) []byte {
	b = append(appendName(appendHeader(b, "", name, help, typ), "", name), ' ')
	return append(strconv.AppendInt(b, v, 10), '\n')
}

// appendLabelValue appends s escaped per the text exposition format.
func appendLabelValue(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}
