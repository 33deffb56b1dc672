package dist

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// NetModel configures the network behaviour of an AsyncSim. All durations
// are in virtual ticks (see AsyncSim: one stream update arrives per
// UpdateGap ticks, so "Latency: 4" with the default gap means a message is
// in flight while four updates land).
//
// The zero value is the perfect network: zero latency, no jitter, strict
// per-link FIFO, no loss — the synchronous model. Under it AsyncSim
// delivers on its lane, and its event queue reproduces the lane's
// transcripts, stats, and per-step estimates byte for byte — the property
// test anchoring the subsystem.
//
// Every duration is capped at 2^32 ticks (maxTicks), so the clock arithmetic
// now + RTO + Latency + Jitter cannot wrap, and neither can an arrival tick
// T·Gap() for streams of fewer than 2^31 updates.
type NetModel struct {
	// Latency is the base one-way delay of every link.
	Latency int64
	// Jitter adds a uniform extra delay in [0, Jitter] per transmission.
	Jitter int64
	// Reorder relaxes per-link FIFO: a message may be delivered up to
	// Reorder ticks before a message sent earlier on the same link. With
	// Reorder == 0 every link is order-preserving (TCP-like) and jitter
	// only stretches gaps; with Reorder > 0 jittered messages can overtake
	// (UDP-like) within the window.
	Reorder int64
	// Drop is the iid loss probability of each transmission attempt.
	Drop float64
	// RTO is the retransmission timeout: a lost attempt is retried RTO
	// ticks after the loss is (virtually) detected. 0 means the default
	// 2·Latency + Jitter + 1.
	RTO int64
	// Retrans bounds retransmission: a message is attempted at most
	// 1+Retrans times before it is counted as Dropped. 0 disables
	// retransmission entirely.
	Retrans int
	// UpdateGap is the virtual time between consecutive stream updates;
	// update T arrives at tick T·UpdateGap. 0 means 1.
	UpdateGap int64

	// HeartbeatEvery enables failure detection: every site emits a
	// liveness beacon each HeartbeatEvery ticks and the coordinator-side
	// detector checks on the same cadence. Heartbeats are transport-
	// internal — they bypass the fault model (no jitter/reorder/drop RNG
	// draws, no link-FIFO floors, no message Stats), so enabling them does
	// not perturb a crash-free run; they only fail to arrive when the slot
	// is partitioned or crashed. 0 disables detection.
	HeartbeatEvery int64
	// HeartbeatMiss is the miss threshold: a site is declared dead after
	// this many consecutive check intervals without a heartbeat. 0 means
	// the default 3.
	HeartbeatMiss int
}

// Gap returns the effective update spacing (UpdateGap with its default
// applied): update T arrives at tick T·Gap().
func (m NetModel) Gap() int64 {
	if m.UpdateGap <= 0 {
		return 1
	}
	return m.UpdateGap
}

// maxTicks caps every NetModel duration; see NetModel.
const maxTicks = 1 << 32

// rto returns the effective retransmission timeout.
func (m NetModel) rto() int64 {
	if m.RTO > 0 {
		return m.RTO
	}
	return 2*m.Latency + m.Jitter + 1
}

// check reports nonsensical parameters; ParseNetModel returns it and
// NewAsyncSim panics on it, so the CLI and the programmatic constructor
// enforce one rule set and misconfigurations fail loudly.
func (m NetModel) check() error {
	if m.Latency < 0 || m.Jitter < 0 || m.Reorder < 0 || m.RTO < 0 ||
		m.Retrans < 0 || m.UpdateGap < 0 || m.HeartbeatEvery < 0 ||
		m.HeartbeatMiss < 0 {
		return fmt.Errorf("dist: NetModel durations and counts must be non-negative")
	}
	if m.Latency > maxTicks || m.Jitter > maxTicks || m.Reorder > maxTicks || m.RTO > maxTicks ||
		m.UpdateGap > maxTicks || m.HeartbeatEvery > maxTicks {
		return fmt.Errorf("dist: NetModel durations must be at most %d ticks", int64(maxTicks))
	}
	if !(m.Drop >= 0 && m.Drop <= 1) { // NaN included
		return fmt.Errorf("dist: NetModel.Drop must be in [0, 1]")
	}
	return nil
}

// String renders the model compactly in ParseNetModel's key=value syntax.
func (m NetModel) String() string {
	parts := []string{fmt.Sprintf("latency=%d", m.Latency)}
	if m.Jitter > 0 {
		parts = append(parts, fmt.Sprintf("jitter=%d", m.Jitter))
	}
	if m.Reorder > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%d", m.Reorder))
	}
	if m.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", m.Drop))
	}
	if m.RTO > 0 {
		parts = append(parts, fmt.Sprintf("rto=%d", m.RTO))
	}
	if m.Retrans > 0 {
		parts = append(parts, fmt.Sprintf("retrans=%d", m.Retrans))
	}
	if m.UpdateGap > 1 {
		parts = append(parts, fmt.Sprintf("gap=%d", m.UpdateGap))
	}
	if m.HeartbeatEvery > 0 {
		parts = append(parts, fmt.Sprintf("hb=%d", m.HeartbeatEvery))
	}
	if m.HeartbeatMiss > 0 {
		parts = append(parts, fmt.Sprintf("hbmiss=%d", m.HeartbeatMiss))
	}
	return strings.Join(parts, ",")
}

// netModelKeys is the accepted ParseNetModel vocabulary, for error messages.
var netModelKeys = map[string]bool{
	"latency": true, "jitter": true, "reorder": true, "drop": true,
	"rto": true, "retrans": true, "gap": true,
	"hb": true, "hbmiss": true,
}

// ParseNetModel parses the comma-separated key=value syntax shared by the
// CLI -net flags, e.g. "latency=8,jitter=2,drop=0.01,retrans=3". Unknown
// keys and out-of-range values are errors.
func ParseNetModel(s string) (NetModel, error) {
	var m NetModel
	if strings.TrimSpace(s) == "" {
		return m, nil
	}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok || !netModelKeys[k] {
			return m, fmt.Errorf("dist: bad -net field %q (want %s)", field, knownNetModelKeys())
		}
		var err error
		switch k {
		case "drop":
			m.Drop, err = strconv.ParseFloat(v, 64)
		case "retrans":
			m.Retrans, err = strconv.Atoi(v)
		case "hbmiss":
			m.HeartbeatMiss, err = strconv.Atoi(v)
		default:
			var n int64
			n, err = strconv.ParseInt(v, 10, 64)
			switch k {
			case "latency":
				m.Latency = n
			case "jitter":
				m.Jitter = n
			case "reorder":
				m.Reorder = n
			case "rto":
				m.RTO = n
			case "gap":
				m.UpdateGap = n
			case "hb":
				m.HeartbeatEvery = n
			}
		}
		if err != nil {
			return m, fmt.Errorf("dist: bad -net value %q: %v", field, err)
		}
	}
	return m, m.check()
}

// knownNetModelKeys lists the vocabulary deterministically.
func knownNetModelKeys() string {
	keys := make([]string, 0, len(netModelKeys))
	for k := range netModelKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}
