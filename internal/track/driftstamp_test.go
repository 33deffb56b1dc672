package track

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
)

// muteOutbox satisfies dist.Outbox for direct calls whose sends the test
// does not inspect (drift-report folds, fuzzed update runs).
type muteOutbox struct{}

func (muteOutbox) Send(dist.Msg)        {}
func (muteOutbox) SendTo(int, dist.Msg) {}
func (muteOutbox) Broadcast(dist.Msg)   {}

// TestBlockCoordDropsStaleDriftReport pins the block-sequence stamp on
// drift reports — the fix for the standby-takeover double count varmon's
// -kill-coord smoke used to flake on. A drift report carries the site's
// ABSOLUTE in-block drift; one sent against the old block base that lands
// after finishBlock has folded that base into f(n_j) is counted twice:
// once inside f(n_j) and again through the mirror, inflating the estimate
// until the site happens to report afresh (at stream end: forever).
// BlockSite therefore stamps every drift report with its block sequence
// (stampOutbox) and BlockCoord must drop any report whose stamp is not
// the current block — while folding current-block reports exactly as
// before.
func TestBlockCoordDropsStaleDriftReport(t *testing.T) {
	const k = 4
	coordAlgo, siteAlgos := NewDeterministic(k, 0.05)
	sim := dist.NewSim(coordAlgo, siteAlgos)
	for _, u := range stream.Collect(assign(stream.BiasedWalk(5_000, 0.3, 7), k)) {
		sim.Step(u)
	}
	coord := coordAlgo.(*BlockCoord)
	if coord.blocks == 0 {
		t.Fatal("stream too short: no completed block, the stale/fresh stamp distinction is vacuous")
	}
	base := coord.Estimate()

	// A stale stamp (one block behind) must be ignored outright: before
	// the fix this folded 1<<20 into the drift mirror.
	coord.OnMessage(dist.Msg{
		Kind: dist.KindDriftReport, Site: 0, A: 1 << 20,
		Item: uint64(coord.blocks) - 1,
	}, muteOutbox{})
	if got := coord.Estimate(); got != base {
		t.Fatalf("stale drift report folded into the estimate: %d -> %d", base, got)
	}

	// Current-block stamps still fold idempotently: two absolute reports
	// from the same site move the estimate by exactly their difference.
	coord.OnMessage(dist.Msg{
		Kind: dist.KindDriftReport, Site: 0, A: 1_000,
		Item: uint64(coord.blocks),
	}, muteOutbox{})
	e1 := coord.Estimate()
	coord.OnMessage(dist.Msg{
		Kind: dist.KindDriftReport, Site: 0, A: 1_007,
		Item: uint64(coord.blocks),
	}, muteOutbox{})
	if e2 := coord.Estimate(); e2-e1 != 7 {
		t.Fatalf("fresh drift reports must overwrite the mirror: estimates %d then %d, want a +7 move", e1, e2)
	}
}

// TestBlockSiteStampsDriftReports pins the sender half: every drift
// report leaving a BlockSite carries the site's completed-block sequence
// in Msg.Item, on both the scalar and the batch update path.
func TestBlockSiteStampsDriftReports(t *testing.T) {
	const k = 2
	coordAlgo, siteAlgos := NewDeterministic(k, 0.05)
	sim := dist.NewSim(coordAlgo, siteAlgos)
	coord := coordAlgo.(*BlockCoord)
	bs := siteAlgos[0].(*BlockSite)

	checked := 0
	sim.Recorder = func(e dist.TranscriptEntry) {
		m := e.Msg
		if m.Kind != dist.KindDriftReport || m.Site != 0 {
			return
		}
		// The site's book can already be one block ahead of the
		// coordinator's when the report was queued before the boundary
		// cascade, but never behind it and never more than one ahead.
		if m.Item != uint64(coord.blocks) && m.Item != uint64(coord.blocks)+1 {
			t.Fatalf("drift report stamped %d with coordinator at block %d", m.Item, coord.blocks)
		}
		if m.Item != uint64(bs.seenBlocks) {
			t.Fatalf("drift report stamped %d, site book at %d", m.Item, bs.seenBlocks)
		}
		checked++
	}
	for _, u := range stream.Collect(assign(stream.BiasedWalk(4_000, 0.3, 11), k)) {
		sim.Step(u)
	}
	if checked == 0 {
		t.Fatal("stream produced no drift reports; the stamp went unchecked")
	}
}
