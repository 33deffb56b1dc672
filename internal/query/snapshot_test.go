package query_test

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/track"
)

// snapEngRuntime is what the round-trip driver needs from either runtime.
type snapEngRuntime interface {
	Step(u stream.Update)
	Stats() dist.Stats
	ClassStats() []dist.Stats
	ReplaceSite(site int, algo dist.SiteAlgo)
}

type engRun struct {
	transcript []dist.TranscriptEntry
	ests       [][]int64 // per query, per step
	stats      dist.Stats
	classStats []dist.Stats
}

// driveEngineSnap runs ups through a fresh engine, optionally snapshotting
// the target site at index cut and splicing a restored rebuild in before
// continuing. cut < 0 is the reference run. With pending set, the snapshot
// waits from cut for the first index at which some child of the target
// holds a pending run, and the run fails if none ever does.
func driveEngineSnap(t *testing.T, k int, specs []query.Spec, async bool,
	ups []stream.Update, cut, target int, pending bool) engRun {
	t.Helper()
	eng, esites, err := query.New(k, specs)
	if err != nil {
		t.Fatal(err)
	}
	var rt snapEngRuntime
	var rec *func(dist.TranscriptEntry)
	flush := func() {}
	if async {
		sim := dist.NewAsyncSim(eng, esites, dist.NetModel{Latency: 3, Jitter: 2}, 7)
		sim.SetClassifier(eng)
		rec = &sim.Recorder
		flush = sim.Flush
		rt = sim
	} else {
		sim := dist.NewSim(eng, esites)
		sim.SetClassifier(eng)
		rec = &sim.Recorder
		rt = sim
	}
	out := engRun{ests: make([][]int64, len(specs))}
	*rec = func(e dist.TranscriptEntry) { out.transcript = append(out.transcript, e) }
	for i, u := range ups {
		if i == cut && pending && esites[target].(*query.Site).PendingRuns() == 0 {
			cut++
		}
		if i == cut {
			snap, err := track.SnapshotSite(esites[target])
			if err != nil {
				t.Fatalf("snapshot at %d: %v", cut, err)
			}
			fresh := eng.RebuildSite(target)
			if err := track.RestoreSite(fresh, snap); err != nil {
				t.Fatalf("restore at %d: %v", cut, err)
			}
			rt.ReplaceSite(target, fresh)
		}
		rt.Step(u)
		for qid := range specs {
			est, ok := eng.EstimateQuery(qid)
			if !ok {
				t.Fatalf("query %d vanished", qid)
			}
			out.ests[qid] = append(out.ests[qid], est)
		}
	}
	if cut >= len(ups) {
		t.Fatalf("site %d never held a pending run after update %d", target, cut)
	}
	flush()
	out.stats = rt.Stats()
	out.classStats = rt.ClassStats()
	return out
}

// TestEngineSnapshotRoundTrip extends the snapshot round-trip property to
// the multi-query site: at Q ∈ {1, 3, 8}, snapshotting a site mid-run and
// splicing in a rebuilt+restored replacement is unobservable — transcripts,
// every query's per-step estimates, aggregate Stats, and the per-query
// Stats split all stay byte-identical, on Sim and on AsyncSim under
// latency.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	const k, n, target = 4, 16_000, 1
	ups := itemStream(n, k, 19)
	qsets := map[string][]query.Spec{
		"q1": {{Algo: "det", Eps: 0.1}},
		"q3": {
			{Algo: "det", Eps: 0.1},
			{Algo: "rand", Eps: 0.1, Seed: 21},
			{Algo: "freq", Eps: 0.2},
		},
		"q8": {
			{Algo: "det", Eps: 0.1},
			{Algo: "rand", Eps: 0.1, Seed: 21},
			{Algo: "freq", Eps: 0.2},
			{Algo: "threshold", Eps: 0.3, Tau: 2_000},
			{Algo: "det", Eps: 0.05},
			{Algo: "rand", Eps: 0.2, Seed: 33},
			{Algo: "freq", Eps: 0.1},
			{Algo: "det", Eps: 0.2},
		},
	}
	// Four frequency queries: the third and fourth keep their cells in the
	// rows' arena blocks, past the inline cells.
	freq4, err := query.ParseSpecs(manyFreqSpecs)
	if err != nil {
		t.Fatal(err)
	}
	qsets["freq4"] = freq4
	for qname, specs := range qsets {
		for _, async := range []bool{false, true} {
			rname := map[bool]string{false: "sim", true: "async"}[async]
			want := driveEngineSnap(t, k, specs, async, ups, -1, target, false)
			got := driveEngineSnap(t, k, specs, async, ups, n/2, target, false)
			if got.stats != want.stats {
				t.Fatalf("%s/%s: stats %+v, want %+v", qname, rname, got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.classStats, want.classStats) {
				t.Fatalf("%s/%s: per-query stats diverge", qname, rname)
			}
			if !reflect.DeepEqual(got.ests, want.ests) {
				t.Fatalf("%s/%s: per-query per-step estimates diverge", qname, rname)
			}
			if !reflect.DeepEqual(got.transcript, want.transcript) {
				t.Fatalf("%s/%s: transcripts diverge (%d vs %d entries)",
					qname, rname, len(got.transcript), len(want.transcript))
			}
		}
	}
}

// TestEngineSnapshotPendingRun snapshots an engine site over the
// engine-mixed query set while one of its quiet children holds a pending
// run, restores the blob into a rebuilt site and drives on: the snapshot
// must carry the run (Snap absorbs it first), so transcripts,
// every query's per-step estimates and both Stats views equal the
// uninterrupted run, on Sim and on AsyncSim under latency.
func TestEngineSnapshotPendingRun(t *testing.T) {
	const k, n, target = 4, 16_000, 2
	specs, err := query.ParseSpecs(mixedSpecs)
	if err != nil {
		t.Fatal(err)
	}
	ups := itemStream(n, k, 37)
	for _, async := range []bool{false, true} {
		rname := map[bool]string{false: "sim", true: "async"}[async]
		want := driveEngineSnap(t, k, specs, async, ups, -1, target, false)
		got := driveEngineSnap(t, k, specs, async, ups, n/2, target, true)
		if got.stats != want.stats {
			t.Fatalf("%s: stats %+v, want %+v", rname, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.classStats, want.classStats) {
			t.Fatalf("%s: per-query stats diverge", rname)
		}
		if !reflect.DeepEqual(got.ests, want.ests) {
			t.Fatalf("%s: per-query per-step estimates diverge", rname)
		}
		if !reflect.DeepEqual(got.transcript, want.transcript) {
			t.Fatalf("%s: transcripts diverge (%d vs %d entries)",
				rname, len(got.transcript), len(want.transcript))
		}
	}
}

// TestEngineCrashTakeover is the full engine-level crash story: crash a
// site under a Q = 2 engine, attach a new query while the slot is dead
// (born degraded, must not wedge), then splice in a warm replacement
// restored from a pre-crash snapshot. Afterwards every deterministic query
// — including the one attached during the outage, which the replacement
// only learns about from the takeover re-announcement — must track within
// its ε bound, and the degradation flags must have cleared.
func TestEngineCrashTakeover(t *testing.T) {
	const k, n, target = 4, 40_000, 2
	const eps = 0.1
	const hb = 32
	specs := []query.Spec{
		{Algo: "det", Eps: eps},
		{Algo: "rand", Eps: eps, Seed: 9},
	}
	eng, esites, err := query.New(k, specs)
	if err != nil {
		t.Fatal(err)
	}
	model := dist.NetModel{Latency: 2, HeartbeatEvery: hb, HeartbeatMiss: 3}
	sim := dist.NewAsyncSim(eng, esites, model, 13)
	sim.SetClassifier(eng)
	ups := itemStream(n, k, 23)
	var f int64
	attached := -1
	sawDegraded := false
	for i, u := range ups {
		f += u.Delta
		sim.Step(u)
		switch {
		case i == n/2:
			snap, err := track.SnapshotSite(esites[target])
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			fresh := eng.RebuildSite(target)
			if err := track.RestoreSite(fresh, snap); err != nil {
				t.Fatalf("restore: %v", err)
			}
			crash := sim.Now() + 1
			sim.ScheduleCrash(target, crash)
			sim.ScheduleTakeover(target, crash+4_000, fresh)
		case i == n/2+2_000:
			if !eng.SiteDead(target) {
				t.Fatalf("slot %d not declared dead %d ticks after crash", target, 2_000)
			}
			for _, st := range eng.Status() {
				if !st.Degraded {
					t.Fatalf("query %d not degraded while slot %d is dead", st.ID, target)
				}
			}
			sawDegraded = true
			sim.Inject(func(out dist.Outbox) {
				attached, err = eng.Attach(query.Spec{Algo: "det", Eps: eps}, out)
			})
			if err != nil {
				t.Fatalf("attach while degraded: %v", err)
			}
		}
	}
	sim.Flush()
	if !sawDegraded {
		t.Fatalf("degraded window was never observed")
	}
	if got := sim.Stats().Takeovers; got != 1 {
		t.Fatalf("takeovers = %d, want 1", got)
	}
	if eng.SiteDead(target) {
		t.Fatalf("slot %d still dead after takeover", target)
	}
	for _, st := range eng.Status() {
		if st.Degraded {
			t.Fatalf("query %d still degraded after takeover", st.ID)
		}
	}
	for _, qid := range []int{0, attached} {
		est, ok := eng.EstimateQuery(qid)
		if !ok {
			t.Fatalf("query %d missing", qid)
		}
		diff := est - f
		if diff < 0 {
			diff = -diff
		}
		bound := eps * float64(f)
		if bound < 0 {
			bound = -bound
		}
		if float64(diff) > bound {
			t.Fatalf("query %d: estimate %d vs exact %d: |err|=%d exceeds ε·f=%.1f",
				qid, est, f, diff, bound)
		}
	}
}
