package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// metricDef is one metric the benchmark reports, with its unit. The lists
// below must match BENCHMARK.json, which adds the direction and the bound;
// the smoke test checks that they do.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"updates_per_s", "updates/s"},
	{"msgs_per_update", "msgs/update"},
	{"setup_s", "s"},
}

// tcpRates is the open-loop ladder of the tcp-loopback workload, in
// updates per second; the first is the reference rate.
var tcpRates = []int{100_000, 141_000, 200_000, 283_000, 400_000}

// perLayer are the metrics a traced run reports, on every workload; a
// layer a workload never calls reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"stream.ns_per_update", "ns/update"},
		{"input.n", "updates"},
		{"input.k", "sites"},
		{"input.v", "ratio"},
		{"dist.ns_per_update", "ns/update"},
		{"dist.calls_per_update", "calls/update"},
		{"dist.step_ns_p50", "ns"},
		{"dist.step_ns_p99", "ns"},
		{"site.ns_per_update", "ns/update"},
		{"site.updates_per_call", "updates/call"},
		{"site.ns_per_msg", "ns/msg"},
		{"coord.ns_per_msg", "ns/msg"},
		{"outbox.ns_per_send", "ns/send"},
		{"outbox.sends_per_update", "sends/update"},
		{"track.msgs.drift_per_update", "msgs/update"},
		{"track.msgs.collect_per_update", "msgs/update"},
		{"track.msgs.block_per_update", "msgs/update"},
		{"track.msgs.freq_per_update", "msgs/update"},
		{"track.msgs.control_per_update", "msgs/update"},
		{"track.blocks", "count"},
		{"track.cost_ratio", "ratio"},
		{"track.snapshot.site_bytes", "bytes"},
		{"track.snapshot.site_us", "us"},
		{"track.snapshot.coord_bytes", "bytes"},
		{"track.snapshot.coord_us", "us"},
		{"track.restore_us", "us"},
		{"dist.compact_bits_per_update", "bits/update"},
	}
	for q := 0; q < 8; q++ {
		defs = append(defs, metricDef{"query.q" + strconv.Itoa(q) + ".msgs_per_update", "msgs/update"})
	}
	defs = append(defs,
		metricDef{"read.us_p50", "us"},
		metricDef{"read.us_p90", "us"},
		metricDef{"read.us_p99", "us"},
		metricDef{"obs.render_us_p50", "us"},
		metricDef{"obs.render_bytes", "bytes"},
		metricDef{"dist.async.pending_mean", "events"},
		metricDef{"dist.async.pending_max", "events"},
	)
	for _, c := range []string{"retransmitted", "dropped", "epoch_drops", "heartbeats_sent",
		"heartbeat_misses", "takeovers", "coord_takeovers"} {
		defs = append(defs, metricDef{"dist.async." + c + "_total", "count"})
	}
	defs = append(defs,
		metricDef{"dist.async.staleness_mean_ticks", "ticks"},
		metricDef{"dist.async.staleness_max_ticks", "ticks"},
		metricDef{"dist.async.detect_ticks_mean", "ticks"},
		metricDef{"dist.tcp.writes_per_msg", "syscalls/msg"},
		metricDef{"dist.tcp.reads_per_msg", "syscalls/msg"},
		metricDef{"dist.tcp.wire_bytes_per_msg", "bytes/msg"},
		metricDef{"dist.tcp.frames_per_msg", "frames/msg"},
	)
	return append(defs,
		metricDef{"gc.allocs_per_update", "allocs/update"},
		metricDef{"gc.bytes_per_update", "bytes/update"},
		metricDef{"gc.cycles", "count"},
		metricDef{"mem.live_heap_mb", "MB"},
		metricDef{"check.max_rel_err", "ratio"},
		metricDef{"check.violation_frac", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"trace.spans", "count"},
	)
}()

// chunkRate is the throughput a run reports from its chunks' throughputs:
// their 90th percentile. Other tenants of a shared host slow a changing
// share of the chunks by up to a third, so over six runs the median's
// quartile spread was 5–14% where the 90th percentile's was 4–5% (on
// engine-mixed, whose few long chunks no statistic steadies, both 21%). A
// slower program slows every chunk, so it still shows; what drops out is
// the time the host took away.
func chunkRate(xs []float64) float64 { return pct(xs, 0.9) }

// median returns the middle of xs (the mean of the two middles for an even
// count), as Python's statistics.median does; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pct returns the nearest-rank p-quantile of xs (p in [0, 1]); 0 for none.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method), which is how the spread of repeated runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// ratio is a/b, or 0 when b is 0: a layer a workload never reaches reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procIO reads this process's syscall and byte counters from /proc/self/io
// (syscr, syscw, wchar). ok is false where the file is unavailable.
func procIO() (syscr, syscw, wchar int64, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, found := strings.Cut(line, ":")
		if !found {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		case "wchar":
			wchar = n
		}
	}
	return syscr, syscw, wchar, true
}
