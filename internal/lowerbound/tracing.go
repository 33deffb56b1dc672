package lowerbound

import (
	"sort"

	"repro/internal/dist"
)

// This file implements the tracing problem of section 4 and the
// transcript-replay construction of appendix D: if a distributed tracking
// algorithm uses C bits of communication and S bits of space, then
// recording its communication transcript yields a summary of C + S bits
// that answers historical queries f̂(t) for any t ≤ n — so space lower
// bounds for tracing imply space+communication lower bounds for tracking.
//
// TranscriptSummary is that construction made concrete: hook it to a
// dist.NewSim runtime, and it records every coordinator-bound message; Query(t)
// replays the prefix through a fresh coordinator state machine and returns
// its estimate. It doubles as a useful artifact — an auditable history of
// the tracked function, the "historical queries" use case of section 1.

// TranscriptSummary records coordinator-bound traffic and answers
// historical point queries by replay.
type TranscriptSummary struct {
	factory func() dist.CoordAlgo
	entries []dist.TranscriptEntry
}

// NewTranscriptSummary builds a summary whose replays run on coordinators
// produced by factory. The factory must produce a coordinator in its
// initial state, identical to the one used in the live run.
func NewTranscriptSummary(factory func() dist.CoordAlgo) *TranscriptSummary {
	return &TranscriptSummary{factory: factory}
}

// Recorder returns the hook to install as the runtime's Recorder. Only messages
// delivered to the coordinator are retained: the coordinator's estimate is
// a function of exactly that prefix.
func (ts *TranscriptSummary) Recorder() func(dist.TranscriptEntry) {
	return func(e dist.TranscriptEntry) {
		if e.To == dist.CoordID {
			ts.entries = append(ts.entries, e)
		}
	}
}

// Len returns the number of recorded messages.
func (ts *TranscriptSummary) Len() int { return len(ts.entries) }

// SizeBits returns the summary size in bits: each entry stores a message
// frame plus its timestep (8 bytes).
func (ts *TranscriptSummary) SizeBits() int64 {
	return int64(len(ts.entries)) * (dist.MsgSize + 8) * 8
}

// Query replays the transcript prefix with timestep ≤ t through a fresh
// coordinator and returns its estimate f̂(t).
func (ts *TranscriptSummary) Query(t int64) int64 {
	coord := ts.factory()
	// Entries are in delivery order; timesteps are nondecreasing, so the
	// prefix is found by binary search.
	idx := sort.Search(len(ts.entries), func(i int) bool { return ts.entries[i].T > t })
	out := nullOutbox{}
	for _, e := range ts.entries[:idx] {
		coord.OnMessage(e.Msg, out)
	}
	return coord.Estimate()
}

// QueryAll returns f̂(t) for t = 1..n in one forward replay, avoiding the
// O(n) per-query cost of Query for dense historical scans.
func (ts *TranscriptSummary) QueryAll(n int64) []int64 {
	coord := ts.factory()
	out := nullOutbox{}
	ests := make([]int64, n)
	i := 0
	for t := int64(1); t <= n; t++ {
		for i < len(ts.entries) && ts.entries[i].T <= t {
			coord.OnMessage(ts.entries[i].Msg, out)
			i++
		}
		ests[t-1] = coord.Estimate()
	}
	return ests
}

// nullOutbox swallows messages the coordinator emits during replay: the
// sites' responses those messages elicited are already in the transcript.
type nullOutbox struct{}

// Send implements dist.Outbox.
func (nullOutbox) Send(m dist.Msg) {}

// SendTo implements dist.Outbox.
func (nullOutbox) SendTo(site int, m dist.Msg) {}

// Broadcast implements dist.Outbox.
func (nullOutbox) Broadcast(m dist.Msg) {}
