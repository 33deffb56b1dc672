package dist_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// quietRef is the per-update run StepBatch must reproduce: the transcript,
// the estimate and the number of deliveries after every update, and the
// final Stats.
type quietRef struct {
	transcript []dist.TranscriptEntry
	ests       []int64
	sent       []int // deliveries caused by each update
	stats      dist.Stats
}

// spliceSite snapshots site target and swaps a restored copy into sim, as
// a snapshot property test does mid-stream.
func spliceSite(t *testing.T, sim *dist.Sim, build func() (dist.CoordAlgo, []dist.SiteAlgo),
	sites []dist.SiteAlgo, target int) {
	t.Helper()
	snap, err := track.SnapshotSite(sites[target])
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := build()
	if err := track.RestoreSite(fresh[target], snap); err != nil {
		t.Fatal(err)
	}
	sim.ReplaceSite(target, fresh[target])
	sites[target] = fresh[target]
}

// TestQuietStepBatchMatchesStep pins the quiet path: StepBatch over the
// deterministic tracker, whose message-free stretches are absorbed in bulk,
// must match per-update Step byte for byte — transcript, Stats, the
// estimate after every update — and must consume exactly the prefix up to
// the first update that sends, reporting delivered for that update alone.
// The inputs cover skewed, round-robin and single-site assignment, a
// nearly monotone stream, walks that cross 0 (δ changes sign), bulk
// updates with |Δ| > 1 and Δ = 0, a stream kept at block exponent r = 0
// (budget 0 throughout), thresholds that are exact integers (ε = 0.25),
// a ReplaceSite splice mid-stream, and Step calls between StepBatch calls
// (a Step changes its site's state outside the quiet pass).
func TestQuietStepBatchMatchesStep(t *testing.T) {
	// Every run splices site 2 at the midpoint, so the first half of each
	// is also the splice-free case.
	const k, n, cut = 5, 10_000, 5_000
	zeroEvery := func(ups []stream.Update, m int) []stream.Update {
		for i := m - 1; i < len(ups); i += m {
			ups[i].Delta = 0
		}
		return ups
	}
	inputs := map[string][]stream.Update{
		"nearly-monotone/skewed": stream.Collect(stream.NewAssign(stream.NearlyMonotone(n, 0.2, 5), stream.NewSkewed(k, 1.2, 6))),
		"walk/round-robin":       stream.Collect(stream.NewAssign(stream.RandomWalk(n, 7), stream.NewRoundRobin(k))),
		"zero-crossing/skewed":   stream.Collect(stream.NewAssign(stream.ZeroCrossing(n, 300), stream.NewSkewed(k, 1.5, 8))),
		"bulk-and-zero/single":   zeroEvery(stream.Collect(stream.NewAssign(stream.BulkWalk(n, 9, 9), stream.NewSingle(k))), 5),
		"bulk-and-zero/skewed":   zeroEvery(stream.Collect(stream.NewAssign(stream.BulkWalk(n, 4, 10), stream.NewSkewed(k, 1.2, 11))), 3),
		"r0/round-robin":         stream.Collect(stream.NewAssign(stream.ZeroCrossing(n, 2*k), stream.NewRoundRobin(k))),
	}
	for _, eps := range []float64{0.1, 0.25} {
		build := func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(k, eps) }
		for name, ups := range inputs {
			want := quietReference(t, build, ups, cut)
			for _, v := range []struct{ batch, stepEvery int }{{1, 0}, {7, 0}, {4096, 0}, {64, 10}} {
				t.Run(fmt.Sprintf("eps=%g/%s/batch=%d/step=%d", eps, name, v.batch, v.stepEvery), func(t *testing.T) {
					checkQuietBatched(t, build, ups, cut, v.batch, v.stepEvery, want)
				})
			}
		}
	}
}

// quietReference drives ups one Step at a time, splicing site 2 in at
// index cut.
func quietReference(t *testing.T, build func() (dist.CoordAlgo, []dist.SiteAlgo),
	ups []stream.Update, cut int) quietRef {
	coord, sites := build()
	sim := dist.NewSim(coord, sites)
	var ref quietRef
	sim.Recorder = func(e dist.TranscriptEntry) { ref.transcript = append(ref.transcript, e) }
	for i, u := range ups {
		if i == cut {
			spliceSite(t, sim, build, sites, 2)
		}
		before := len(ref.transcript)
		sim.Step(u)
		ref.ests = append(ref.ests, sim.Estimate())
		ref.sent = append(ref.sent, len(ref.transcript)-before)
	}
	ref.stats = sim.Stats()
	return ref
}

// checkQuietBatched drives ups through StepBatch in chunks of batch
// updates (the splice index ends a chunk too), feeding every chunk that
// starts at a multiple of stepEvery chunks to Step instead, one update,
// when stepEvery > 0. It compares every call and the whole run against
// want.
func checkQuietBatched(t *testing.T, build func() (dist.CoordAlgo, []dist.SiteAlgo),
	ups []stream.Update, cut, batch, stepEvery int, want quietRef) {
	coord, sites := build()
	sim := dist.NewSim(coord, sites)
	var transcript []dist.TranscriptEntry
	sim.Recorder = func(e dist.TranscriptEntry) { transcript = append(transcript, e) }
	ests := make([]int64, 0, len(ups))
	est := sim.Estimate()
	for i, calls := 0, 0; i < len(ups); calls++ {
		if i == cut {
			spliceSite(t, sim, build, sites, 2)
		}
		end := min(len(ups), i+batch)
		if i < cut && cut < end {
			end = cut
		}
		var c int
		var delivered bool
		if stepEvery > 0 && calls%stepEvery == 0 {
			before := len(transcript)
			sim.Step(ups[i])
			c, delivered, end = 1, len(transcript) > before, i+1
		} else {
			c, delivered = sim.StepBatch(ups[i:end])
			if !sim.QuietMode() {
				t.Fatal("StepBatch over the deterministic tracker did not take the quiet path")
			}
		}
		// The reference's first sending update in [i, end) ends the call.
		wantC, wantDelivered := end-i, false
		for j := i; j < end; j++ {
			if want.sent[j] > 0 {
				wantC, wantDelivered = j-i+1, true
				break
			}
		}
		if c != wantC || delivered != wantDelivered {
			t.Fatalf("StepBatch(ups[%d:%d]) = (%d, %v), want (%d, %v)", i, end, c, delivered, wantC, wantDelivered)
		}
		for j := 0; j < c-1; j++ {
			ests = append(ests, est)
		}
		if delivered {
			est = sim.Estimate()
		}
		ests = append(ests, est)
		i += c
	}
	if got := sim.Stats(); got != want.stats {
		t.Fatalf("stats %+v, want %+v", got, want.stats)
	}
	if !reflect.DeepEqual(ests, want.ests) {
		for i := range ests {
			if ests[i] != want.ests[i] {
				t.Fatalf("estimate after update %d is %d, want %d", i, ests[i], want.ests[i])
			}
		}
	}
	if !reflect.DeepEqual(transcript, want.transcript) {
		t.Fatalf("transcripts diverge (%d vs %d entries)", len(transcript), len(want.transcript))
	}
}
