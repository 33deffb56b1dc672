package query_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/freq"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/track"
)

// itemStream returns an assigned insert/delete item workload, which every
// tracker family in the engine can consume (frequency queries need items;
// det/rand see the ±1 deltas).
func itemStream(n int64, k int, seed uint64) []stream.Update {
	return stream.Collect(stream.NewAssign(
		stream.NewItemGen(n, 512, 1.2, 0.2, seed), stream.NewRoundRobin(k)))
}

// runSim drives ups through (coord, sites) on a Sim one Step at a time,
// recording the transcript, the per-step estimate, and the final stats.
func runSim(coord dist.CoordAlgo, sites []dist.SiteAlgo, cl dist.Classifier,
	ups []stream.Update) ([]dist.TranscriptEntry, []int64, dist.Stats, []dist.Stats) {
	sim := dist.NewSim(coord, sites)
	if cl != nil {
		sim.SetClassifier(cl)
	}
	var tr []dist.TranscriptEntry
	sim.Recorder = func(e dist.TranscriptEntry) { tr = append(tr, e) }
	ests := make([]int64, len(ups))
	for i, u := range ups {
		sim.Step(u)
		ests[i] = sim.Estimate()
	}
	return tr, ests, sim.Stats(), sim.ClassStats()
}

// onQueue takes sim off its lane with a schedule that changes nothing (a
// standby for a coordinator that never crashes), so it delivers through
// its event queue even under the zero model.
func onQueue(sim *dist.AsyncSim, coord dist.CoordAlgo) {
	sim.ScheduleCoordTakeover(0, coord)
}

// runAsyncZero is runSim on a zero-fault AsyncSim's event queue.
func runAsyncZero(coord dist.CoordAlgo, sites []dist.SiteAlgo, cl dist.Classifier,
	ups []stream.Update) ([]dist.TranscriptEntry, []int64, dist.Stats, []dist.Stats) {
	sim := dist.NewAsyncSim(coord, sites, dist.NetModel{}, 1)
	onQueue(sim, coord)
	if cl != nil {
		sim.SetClassifier(cl)
	}
	var tr []dist.TranscriptEntry
	sim.Recorder = func(e dist.TranscriptEntry) { tr = append(tr, e) }
	ests := make([]int64, len(ups))
	for i, u := range ups {
		sim.Step(u)
		ests[i] = sim.Estimate()
	}
	sim.Flush()
	return tr, ests, sim.Stats(), sim.ClassStats()
}

// standalone builds the bare tracker a spec describes.
func standalone(k int, spec query.Spec) (dist.CoordAlgo, []dist.SiteAlgo) {
	switch spec.Algo {
	case "det":
		return track.NewDeterministic(k, spec.Eps)
	case "rand":
		return track.NewRandomized(k, spec.Eps, spec.Seed)
	case "freq":
		tr, sites := freq.New(k, spec.Eps, freq.ExactMapper{})
		return tr, sites
	case "threshold":
		return track.NewThresholdMonitor(k, spec.Eps, spec.Tau)
	}
	panic("unknown spec algo " + spec.Algo)
}

// TestEngineQ1ByteIdentical is the anchor property of the multi-query
// engine: with a single query the engine's transcript, per-step estimates,
// aggregate stats, AND the per-query stats view must be byte-identical to
// running the child tracker standalone — on Sim and on zero-fault
// AsyncSim, across det, rand, and freq. The two runtimes take different
// paths, Sim its lane and the AsyncSim its event queue, so every run must
// also match the standalone tracker on the lane.
func TestEngineQ1ByteIdentical(t *testing.T) {
	const k, n = 5, 20_000
	ups := itemStream(n, k, 7)
	specs := []query.Spec{
		{Algo: "det", Eps: 0.1},
		{Algo: "rand", Eps: 0.1, Seed: 9},
		{Algo: "freq", Eps: 0.1},
	}
	runtimes := map[string]func(dist.CoordAlgo, []dist.SiteAlgo, dist.Classifier,
		[]stream.Update) ([]dist.TranscriptEntry, []int64, dist.Stats, []dist.Stats){
		"sim":   runSim,
		"async": runAsyncZero,
	}
	for _, spec := range specs {
		coord, sites := standalone(k, spec)
		wantTr, wantEst, wantStats, _ := runSim(coord, sites, nil, ups)
		for rname, run := range runtimes {
			for _, engine := range []bool{false, true} {
				if rname == "sim" && !engine {
					continue // the reference run itself
				}
				var gotTr []dist.TranscriptEntry
				var gotEst []int64
				var gotStats dist.Stats
				if engine {
					eng, esites, err := query.New(k, []query.Spec{spec})
					if err != nil {
						t.Fatal(err)
					}
					var classStats []dist.Stats
					gotTr, gotEst, gotStats, classStats = run(eng, esites, eng, ups)
					if len(classStats) != 1 || classStats[0] != wantStats {
						t.Fatalf("%s/%s: per-query stats %+v, want [%+v]", spec.Algo, rname, classStats, wantStats)
					}
				} else {
					coord, sites := standalone(k, spec)
					gotTr, gotEst, gotStats, _ = run(coord, sites, nil, ups)
				}
				if gotStats != wantStats {
					t.Fatalf("%s/%s engine=%v: aggregate stats %+v, want %+v", spec.Algo, rname, engine, gotStats, wantStats)
				}
				if !reflect.DeepEqual(gotEst, wantEst) {
					t.Fatalf("%s/%s engine=%v: per-step estimates diverge", spec.Algo, rname, engine)
				}
				if !reflect.DeepEqual(gotTr, wantTr) {
					t.Fatalf("%s/%s engine=%v: transcripts diverge (%d vs %d entries)",
						spec.Algo, rname, engine, len(gotTr), len(wantTr))
				}
			}
		}
	}
}

// TestEngineMuxProjection checks isolation at Q = 8 over the engine-mixed
// query set: the engine's transcript, demultiplexed per query, must equal
// each query's standalone transcript entry for entry, and the per-query
// estimates must match the standalone runs — multiplexing changes
// interleaving, never any query's behaviour. The det-family queries
// (threshold, and det under two filters) and the frequency queries are
// quiet children in the engine, so this is also their reference against a
// tracker that is called on every update; the filtered frequency query
// pins a column whose filter rejects items the other one counts. A
// filtered query's standalone tracker is fed that query's sub-stream,
// renumbered from 1, and the engine's times are mapped back to sub-stream
// indices. The engine is driven one Step at a time over a round-robin
// stream, and through StepBatch at chunk sizes 1, 7 and whole over a
// skewed one, whose same-site runs reach the batch path; estimates are
// checked after every Step, and at every consumed-prefix boundary of a
// batched drive.
func TestEngineMuxProjection(t *testing.T) {
	const k, n = 4, 15_000
	specs, err := query.ParseSpecs("det,eps=0.1;rand,eps=0.05,seed=21;freq,eps=0.2;" +
		"threshold,eps=0.1,tau=500;det,eps=0.05,filter=even;det,eps=0.2,filter=le:100;" +
		"freq,eps=0.1,filter=mod:4:1;rand,eps=0.2,filter=odd")
	if err != nil {
		t.Fatal(err)
	}
	drives := []struct {
		name  string
		ups   []stream.Update
		chunk int // 0 drives Step per update
	}{
		{"step", itemStream(n, k, 11), 0},
		{"batch-1", skewedItemStream(n, k, 11), 1},
		{"batch-7", skewedItemStream(n, k, 11), 7},
		{"batch-whole", skewedItemStream(n, k, 11), n},
	}
	for _, d := range drives {
		checkProjection(t, d.name, k, specs, d.ups, d.chunk)
	}
}

// TestEngineFilterBits is TestEngineMuxProjection over seventeen filtered
// queries beside an unfiltered one: a row's match mask has fifteen filter
// bits, so the last two filtered children have none and call their
// filters on every update.
func TestEngineFilterBits(t *testing.T) {
	const k, n = 3, 6_000
	plan := "det,eps=0.1"
	for i := range 17 {
		if i%2 == 0 {
			plan += fmt.Sprintf(";det,eps=0.1,filter=item:%d", i)
		} else {
			plan += fmt.Sprintf(";det,eps=0.2,filter=le:%d", 10*i)
		}
	}
	specs, err := query.ParseSpecs(plan)
	if err != nil {
		t.Fatal(err)
	}
	checkProjection(t, "step", k, specs, itemStream(n, k, 31), 0)
	checkProjection(t, "batch-7", k, specs, skewedItemStream(n, k, 31), 7)
}

// TestEngineFilterBitReuse attaches a filtered query once every row of
// every site has been classified, detaches it, and attaches another whose
// filter disagrees with the first into the freed bit: each must see
// exactly its own items, so its det estimate stays within ε of its
// filtered count at every step.
func TestEngineFilterBitReuse(t *testing.T) {
	const k, n = 3, 9_000
	ups := itemStream(n, k, 17)
	specs, err := query.ParseSpecs("det,eps=0.1;det,eps=0.1,filter=even;" +
		"det,eps=0.1,filter=mod:3:1;det,eps=0.1,filter=le:20")
	if err != nil {
		t.Fatal(err)
	}
	eng, esites, err := query.New(k, specs[:2])
	if err != nil {
		t.Fatal(err)
	}
	sim := dist.NewSim(eng, esites)
	ctrl := map[int]func(dist.Outbox) error{
		n / 3:     func(out dist.Outbox) error { _, err := eng.Attach(specs[2], out); return err },
		n / 2:     func(out dist.Outbox) error { return eng.Detach(2, out) },
		2 * n / 3: func(out dist.Outbox) error { _, err := eng.Attach(specs[3], out); return err },
	}
	f := make([]int64, len(specs))
	for i, u := range ups {
		sim.Step(u)
		for q, sp := range specs {
			if sp.Filter == nil || sp.Filter.Match(u.Item) {
				f[q] += u.Delta
			}
		}
		if fn := ctrl[i+1]; fn != nil {
			sim.Inject(func(out dist.Outbox) { err = fn(out) })
			if err != nil {
				t.Fatal(err)
			}
		}
		for q := range eng.NumQueries() {
			if q == 2 && i+1 > n/2 {
				continue // detached: its estimate is frozen
			}
			est, _ := eng.EstimateQuery(q)
			if d := absI64(est - f[q]); float64(d) > specs[q].Eps*float64(absI64(f[q])) {
				t.Fatalf("update %d: query %d estimate %d, filtered count %d", i+1, q, est, f[q])
			}
		}
	}
	if eng.NumQueries() != 4 {
		t.Fatalf("%d queries registered, want 4", eng.NumQueries())
	}
}

// manyFreqSpecs hold four frequency queries, so a site's rows keep the
// cells of two of them in arena blocks past the inline ones.
const manyFreqSpecs = "freq,eps=0.2;freq,eps=0.1,filter=mod:4:1;det,eps=0.1;" +
	"freq,eps=0.15,filter=odd;freq,eps=0.05,filter=le:200"

// TestEngineManyFreqColumns is TestEngineMuxProjection over four frequency
// queries, whose columns outnumber the cells a row holds inline.
func TestEngineManyFreqColumns(t *testing.T) {
	const k, n = 3, 12_000
	specs, err := query.ParseSpecs(manyFreqSpecs)
	if err != nil {
		t.Fatal(err)
	}
	checkProjection(t, "step", k, specs, itemStream(n, k, 5), 0)
	checkProjection(t, "batch-7", k, specs, skewedItemStream(n, k, 5), 7)
}

// TestEngineFreqColumnChurn attaches and detaches frequency queries across
// the cells a row holds inline: two initial columns, two attached
// mid-stream (the first gives every existing row a block, the second
// widens them), a detach, and an attach that reuses the freed column. After
// every update each live frequency query answers every item within ε·F1
// of its filtered count, and at the end every site's blob restores and
// re-encodes byte for byte.
func TestEngineFreqColumnChurn(t *testing.T) {
	const k, n = 3, 9_000
	ups := itemStream(n, k, 23)
	specs, err := query.ParseSpecs("freq,eps=0.2;freq,eps=0.1,filter=odd;" +
		"freq,eps=0.1,filter=mod:3:0;freq,eps=0.2,filter=le:40;freq,eps=0.1,filter=even")
	if err != nil {
		t.Fatal(err)
	}
	eng, esites, err := query.New(k, specs[:2])
	if err != nil {
		t.Fatal(err)
	}
	sim := dist.NewSim(eng, esites)
	ctrl := map[int]func(dist.Outbox) error{
		n / 4:     func(out dist.Outbox) error { _, err := eng.Attach(specs[2], out); return err },
		n / 3:     func(out dist.Outbox) error { _, err := eng.Attach(specs[3], out); return err },
		n / 2:     func(out dist.Outbox) error { return eng.Detach(1, out) },
		2 * n / 3: func(out dist.Outbox) error { _, err := eng.Attach(specs[4], out); return err },
	}
	live := []int{0, 1}
	qspec := append([]query.Spec(nil), specs[:2]...)
	exact := map[uint64]int64{}
	for i, u := range ups {
		sim.Step(u)
		exact[u.Item] += u.Delta
		if fn := ctrl[i+1]; fn != nil {
			sim.Inject(func(out dist.Outbox) { err = fn(out) })
			if err != nil {
				t.Fatal(err)
			}
			live = live[:0]
			qspec = qspec[:0]
			for _, st := range eng.Status() {
				if !st.Detached {
					live = append(live, st.ID)
					qspec = append(qspec, specs[st.ID])
				}
			}
		}
		for qi, q := range live {
			match := func(uint64) bool { return true }
			if f := qspec[qi].Filter; f != nil {
				match = f.Match
			}
			var f1 int64
			for item, c := range exact {
				if match(item) {
					f1 += c
				}
			}
			for item, c := range exact {
				if !match(item) {
					continue
				}
				got, _ := eng.Frequency(q, item)
				if d := absI64(got - c); float64(d) > qspec[qi].Eps*float64(f1)+1e-9 {
					t.Fatalf("after update %d: query %d item %d estimate %d, exact %d (F1 %d)", i+1, q, item, got, c, f1)
				}
			}
		}
	}
	for j, s := range esites {
		blob, err := track.SnapshotSite(s)
		if err != nil {
			t.Fatal(err)
		}
		back := eng.RebuildSite(j)
		if err := track.RestoreSite(back, blob); err != nil {
			t.Fatalf("site %d: restore: %v", j, err)
		}
		again, err := track.SnapshotSite(back)
		if err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("site %d: restored blob re-encodes differently (%v)", j, err)
		}
	}
}

// checkProjection drives ups through an engine over specs, by Step when
// chunk is 0 and by StepBatch over chunks of that size otherwise, and
// checks every query's projected transcript and estimates against its
// standalone tracker on its sub-stream.
func checkProjection(t *testing.T, name string, k int, specs []query.Spec, ups []stream.Update, chunk int) {
	t.Helper()
	eng, esites, err := query.New(k, specs)
	if err != nil {
		t.Fatal(err)
	}
	sim := dist.NewSim(eng, esites)
	perQ := make([][]dist.TranscriptEntry, len(specs))
	sim.Recorder = func(e dist.TranscriptEntry) {
		qid, inner := query.Demux(e.Msg, k)
		to := e.To
		if to >= 0 {
			to = to % int32(k)
		} else {
			to = dist.CoordID
		}
		perQ[qid] = append(perQ[qid], dist.TranscriptEntry{T: e.T, To: to, Msg: inner})
	}
	// engEsts[qid][i] is query qid's estimate after update i+1, recorded
	// where checked[i] is set.
	engEsts := make([][]int64, len(specs))
	for i := range engEsts {
		engEsts[i] = make([]int64, len(ups))
	}
	checked := make([]bool, len(ups))
	observe := func(i int) {
		checked[i] = true
		for qid := range specs {
			est, ok := eng.EstimateQuery(qid)
			if !ok {
				t.Fatalf("%s: query %d missing", name, qid)
			}
			engEsts[qid][i] = est
		}
	}
	for i := 0; i < len(ups); {
		if chunk == 0 {
			sim.Step(ups[i])
			i++
		} else {
			c, _ := sim.StepBatch(ups[i:min(i+chunk, len(ups))])
			i += c
		}
		observe(i - 1)
	}

	for qid, spec := range specs {
		// sub[i] is how many of ups[:i+1] the query sees.
		var subUps []stream.Update
		sub := make([]int64, len(ups))
		for i, u := range ups {
			if spec.Filter == nil || spec.Filter.Match(u.Item) {
				u.T = int64(len(subUps) + 1)
				subUps = append(subUps, u)
			}
			sub[i] = int64(len(subUps))
		}
		coord, sites := standalone(k, spec)
		initial := coord.Estimate()
		wantTr, subEst, _, _ := runSim(coord, sites, nil, subUps)
		for i, c := range sub {
			if !checked[i] {
				continue
			}
			want := initial
			if c > 0 {
				want = subEst[c-1]
			}
			if engEsts[qid][i] != want {
				t.Fatalf("%s: query %d (%s): estimate after update %d = %d, standalone %d",
					name, qid, spec.Label(qid), i+1, engEsts[qid][i], want)
			}
		}
		got := perQ[qid]
		for i := range got {
			got[i].T = sub[got[i].T-1]
		}
		if !reflect.DeepEqual(got, wantTr) {
			t.Fatalf("%s: query %d (%s): projected transcript diverges (%d vs %d entries)",
				name, qid, spec.Label(qid), len(got), len(wantTr))
		}
	}
}

// engineTo is the engine's transcript To for a per-query comparison: note
// that the engine's messages are delivered to physical nodes, so To needs
// no demux — the helper in TestEngineMuxProjection only normalizes types.

// sumStats folds a per-class table into one aggregate (StalenessMax as a
// maximum, everything else as a sum).
func sumStats(cs []dist.Stats) dist.Stats {
	var out dist.Stats
	for _, s := range cs {
		out.SiteToCoord += s.SiteToCoord
		out.CoordToSite += s.CoordToSite
		out.Bytes += s.Bytes
		out.CompactBits += s.CompactBits
		out.Dropped += s.Dropped
		out.Retransmitted += s.Retransmitted
		out.StalenessSum += s.StalenessSum
		if s.StalenessMax > out.StalenessMax {
			out.StalenessMax = s.StalenessMax
		}
	}
	return out
}

// TestPerQueryStatsSumProperty is the satellite property: per-query Stats
// sum exactly to the aggregate — messages, bytes, compact bits, dropped,
// retransmitted, staleness — under random seeds, batch sizes, fault
// models, and mid-stream attach/detach control traffic.
func TestPerQueryStatsSumProperty(t *testing.T) {
	const k = 3
	src := rng.New(99)
	models := []dist.NetModel{
		{},
		{Latency: 3, Jitter: 2},
		{Latency: 2, Jitter: 3, Reorder: 2, Drop: 0.05},
		{Latency: 4, Drop: 0.1, Retrans: 3},
	}
	for trial := 0; trial < 6; trial++ {
		seed := src.Uint64()
		n := int64(4000 + src.Intn(4000))
		ups := itemStream(n, k, seed)
		specs := []query.Spec{
			{Algo: "det", Eps: 0.1},
			{Algo: "rand", Eps: 0.05, Seed: seed ^ 0xABCD},
			{Algo: "freq", Eps: 0.2},
		}

		// Sim through the batched ingest path, various buffer sizes.
		for _, bs := range []int{1, 7, 64, 256} {
			eng, esites, err := query.New(k, specs)
			if err != nil {
				t.Fatal(err)
			}
			sim := dist.NewSim(eng, esites)
			sim.SetClassifier(eng)
			sim.RunBatch(stream.NewSlice(ups), make([]stream.Update, bs), 0, nil)
			if got := sumStats(sim.ClassStats()); got != sim.Stats() {
				t.Fatalf("trial %d batch %d: class sum %+v != aggregate %+v",
					trial, bs, got, sim.Stats())
			}
		}

		// AsyncSim under each fault model, with a mid-stream attach and a
		// detach so control traffic is part of the accounting.
		for mi, model := range models {
			eng, esites, err := query.New(k, specs)
			if err != nil {
				t.Fatal(err)
			}
			sim := dist.NewAsyncSim(eng, esites, model, seed^uint64(mi))
			sim.SetClassifier(eng)
			for i, u := range ups {
				sim.Step(u)
				if int64(i) == n/3 {
					sim.Inject(func(out dist.Outbox) {
						if _, err := eng.Attach(query.Spec{Algo: "det", Eps: 0.2}, out); err != nil {
							t.Fatal(err)
						}
					})
				}
				if int64(i) == 2*n/3 {
					sim.Inject(func(out dist.Outbox) {
						if err := eng.Detach(1, out); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
			sim.Flush()
			agg := sim.Stats()
			got := sumStats(sim.ClassStats())
			if got != agg {
				t.Fatalf("trial %d model %d: class sum %+v != aggregate %+v", trial, mi, got, agg)
			}
			if agg.Total() == 0 {
				t.Fatalf("trial %d model %d: no traffic at all", trial, mi)
			}
		}
	}
}

// exactState replays updates into per-item counts, net f, and a filtered
// net for checking filtered queries.
type exactState struct {
	f      int64
	items  map[uint64]int64
	filter func(uint64) bool
	ff     int64 // filtered net
}

func (e *exactState) apply(u stream.Update) {
	e.f += u.Delta
	e.items[u.Item] += u.Delta
	if e.filter != nil && e.filter(u.Item) {
		e.ff += u.Delta
	}
}

// TestAttachMidStream pins the bootstrap semantics on the synchronous
// runtime: the instant the attach cascade quiesces, an unfiltered det
// query's estimate equals the exact f (the bootstrap count report drives a
// full state collection), a frequency query answers item queries within
// ε·F1, a filtered det query matches the filtered net count, and all of
// them hold their ε guarantee for the rest of the stream.
func TestAttachMidStream(t *testing.T) {
	const k, n = 4, 12_000
	ups := itemStream(n, k, 5)
	filter, err := query.ParseFilter("even")
	if err != nil {
		t.Fatal(err)
	}

	eng, esites, err := query.New(k, []query.Spec{{Algo: "det", Eps: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	sim := dist.NewSim(eng, esites)
	sim.SetClassifier(eng)

	ex := &exactState{items: make(map[uint64]int64), filter: filter.Match}
	var detQ, freqQ, filtQ int
	attachAt := n / 2
	for i, u := range ups {
		sim.Step(u)
		ex.apply(u)
		if i+1 == attachAt {
			sim.Inject(func(out dist.Outbox) {
				detQ, err = eng.Attach(query.Spec{Algo: "det", Eps: 0.1}, out)
				if err != nil {
					t.Fatal(err)
				}
				freqQ, err = eng.Attach(query.Spec{Algo: "freq", Eps: 0.1}, out)
				if err != nil {
					t.Fatal(err)
				}
				filtQ, err = eng.Attach(query.Spec{Algo: "det", Eps: 0.1, Filter: filter}, out)
				if err != nil {
					t.Fatal(err)
				}
			})
			// The attach cascade has quiesced: the det bootstrap must
			// have produced the exact value, not an approximation.
			if est, _ := eng.EstimateQuery(detQ); est != ex.f {
				t.Fatalf("det attach bootstrap: estimate %d, want exact %d", est, ex.f)
			}
			if est, _ := eng.EstimateQuery(filtQ); est != ex.ff {
				t.Fatalf("filtered attach bootstrap: estimate %d, want exact %d", est, ex.ff)
			}
			// Frequency bootstrap: every item within ε·F1 immediately.
			for item, want := range ex.items {
				got, ok := eng.Frequency(freqQ, item)
				if !ok {
					t.Fatal("freq query missing")
				}
				if d := absI64(got - want); float64(d) > 0.1*float64(ex.f)+1e-9 {
					t.Fatalf("freq attach bootstrap: item %d est %d want %d (F1=%d)", item, got, want, ex.f)
				}
			}
		}
		if i+1 > attachAt {
			est, _ := eng.EstimateQuery(detQ)
			if d := absI64(est - ex.f); float64(d) > 0.1*float64(absI64(ex.f))+1e-9 {
				t.Fatalf("step %d: attached det out of eps: est %d f %d", i+1, est, ex.f)
			}
			fest, _ := eng.EstimateQuery(filtQ)
			if d := absI64(fest - ex.ff); float64(d) > 0.1*float64(absI64(ex.ff))+1e-9 {
				t.Fatalf("step %d: attached filtered det out of eps: est %d ff %d", i+1, fest, ex.ff)
			}
		}
	}
	// The attach cost is attributable: the late queries have nonzero
	// per-query traffic, and the pre-attach traffic all belongs to query 0.
	cs := sim.ClassStats()
	if len(cs) != 4 {
		t.Fatalf("expected 4 per-query stat rows, got %d", len(cs))
	}
	for q := 1; q < 4; q++ {
		if cs[q].Total() == 0 {
			t.Fatalf("query %d: no attributed traffic", q)
		}
	}
}

// TestDetachStopsTraffic pins detach: after the broadcast lands, the
// query's per-class counters freeze (beyond the detach broadcast itself)
// and its estimate stays frozen while other queries keep tracking.
func TestDetachStopsTraffic(t *testing.T) {
	const k, n = 3, 8_000
	ups := itemStream(n, k, 13)
	eng, esites, err := query.New(k, []query.Spec{
		{Algo: "det", Eps: 0.1},
		{Algo: "det", Eps: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := dist.NewSim(eng, esites)
	sim.SetClassifier(eng)
	var frozen dist.Stats
	var frozenEst int64
	for i, u := range ups {
		sim.Step(u)
		if i == len(ups)/2 {
			sim.Inject(func(out dist.Outbox) {
				if err := eng.Detach(1, out); err != nil {
					t.Fatal(err)
				}
			})
			frozen = sim.ClassStats()[1]
			frozenEst, _ = eng.EstimateQuery(1)
		}
	}
	if got := sim.ClassStats()[1]; got != frozen {
		t.Fatalf("detached query kept accruing stats: %+v then %+v", frozen, got)
	}
	if est, _ := eng.EstimateQuery(1); est != frozenEst {
		t.Fatalf("detached query estimate moved: %d then %d", frozenEst, est)
	}
	if st := eng.Status(); !st[1].Detached || st[0].Detached {
		t.Fatalf("status detached flags wrong: %+v", st)
	}
	// Query 0 still within eps at the end.
	var f int64
	for _, u := range ups {
		f += u.Delta
	}
	est, _ := eng.EstimateQuery(0)
	if d := absI64(est - f); float64(d) > 0.1*float64(absI64(f))+1e-9 {
		t.Fatalf("live query drifted out of eps after detach of sibling: est %d f %d", est, f)
	}
}

// TestAttachUnderFaults drives an attach through a lossy, laggy network:
// the announcement and bootstrap messages are subject to loss and
// retransmission, and the query must still converge into its ε band.
func TestAttachUnderFaults(t *testing.T) {
	const k, n = 3, 20_000
	ups := itemStream(n, k, 17)
	eng, esites, err := query.New(k, []query.Spec{{Algo: "det", Eps: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	model := dist.NetModel{Latency: 4, Jitter: 3, Drop: 0.05, Retrans: 4}
	sim := dist.NewAsyncSim(eng, esites, model, 23)
	sim.SetClassifier(eng)
	var qid int
	var f int64
	attachAt := n / 2
	inBand := 0
	for i, u := range ups {
		sim.Step(u)
		f += u.Delta
		if i+1 == attachAt {
			sim.Inject(func(out dist.Outbox) {
				qid, err = eng.Attach(query.Spec{Algo: "det", Eps: 0.1}, out)
				if err != nil {
					t.Fatal(err)
				}
			})
		}
		if i+1 > attachAt+2000 { // past the convergence window
			est, _ := eng.EstimateQuery(qid)
			if d := absI64(est - f); float64(d) <= 0.15*float64(absI64(f))+1e-9 {
				inBand++
			}
		}
	}
	total := n - attachAt - 2000
	if float64(inBand) < 0.95*float64(total) {
		t.Fatalf("attached query under faults in band only %d/%d steps", inBand, total)
	}
}

// TestEngineTCP runs four mixed queries over the real loopback transport
// in lockstep (NetCluster.Settle after every update, the TCP analogue of
// Sim.Step's drain): the deterministic queries must hold their per-step ε
// guarantee over real sockets, the randomized one its probabilistic
// guarantee, and the coordinator's per-class stats must sum to its
// aggregate counters.
func TestEngineTCP(t *testing.T) {
	const k, n = 4, 2_000
	ups := itemStream(n, k, 29)
	filter, _ := query.ParseFilter("odd")
	eng, esites, err := query.New(k, []query.Spec{
		{Algo: "det", Eps: 0.1},
		{Algo: "rand", Eps: 0.1, Seed: 31},
		{Algo: "freq", Eps: 0.1},
		{Algo: "det", Eps: 0.1, Filter: filter},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dist.NewNetCluster(eng, esites, dist.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetClassifier(eng)

	inBand := func(est, want int64, eps float64) bool {
		return float64(absI64(est-want)) <= eps*float64(absI64(want))+1e-9
	}
	ex := &exactState{items: make(map[uint64]int64), filter: filter.Match}
	var randViol int64
	for i, u := range ups {
		cl.Step(u)
		ex.apply(u)
		if err := cl.Settle(); err != nil {
			t.Fatal(err)
		}
		var status []query.Status
		cl.Inject(func(dist.Outbox) { status = eng.Status() })
		if !inBand(status[0].Estimate, ex.f, 0.1) {
			t.Fatalf("step %d: det query out of eps over TCP: est %d f %d", i+1, status[0].Estimate, ex.f)
		}
		if !inBand(status[2].Estimate, ex.f, 0.1) {
			t.Fatalf("step %d: freq F1 query out of eps over TCP: est %d f %d", i+1, status[2].Estimate, ex.f)
		}
		if !inBand(status[3].Estimate, ex.ff, 0.1) {
			t.Fatalf("step %d: filtered det query out of eps over TCP: est %d ff %d", i+1, status[3].Estimate, ex.ff)
		}
		if !inBand(status[1].Estimate, ex.f, 0.1) {
			randViol++
		}
	}
	// The randomized guarantee is per-step probabilistic (≥ 2/3); in
	// practice the violation fraction is far lower — allow a wide margin.
	if float64(randViol) > 0.25*float64(n) {
		t.Fatalf("rand query violated %d/%d steps over TCP", randViol, n)
	}
	if got := sumStats(cl.ClassStats()); got != cl.Stats() {
		t.Fatalf("TCP class sum %+v != aggregate %+v", got, cl.Stats())
	}
}

// TestTagDemuxRoundTrip exercises the mux tag over both directions and
// query ids beyond one varint byte.
func TestTagDemuxRoundTrip(t *testing.T) {
	const k = 7
	msgs := []dist.Msg{
		{Kind: dist.KindDriftReport, Site: 3, A: -42, B: 1},
		{Kind: dist.KindNewBlock, Site: dist.CoordID, A: 5, B: 1000},
		{Kind: dist.KindFreqReport, Site: 6, Item: 1 << 40, A: 9},
	}
	for _, qid := range []int{0, 1, 5, 40, 1000} {
		for _, m := range msgs {
			tagged := query.Tag(m, qid, k)
			gotQ, inner := query.Demux(tagged, k)
			if gotQ != qid || inner != m {
				t.Fatalf("roundtrip qid %d: got (%d, %+v), want (%d, %+v)", qid, gotQ, inner, qid, m)
			}
			if qid == 0 && tagged != m {
				t.Fatalf("qid 0 must tag identically: %+v vs %+v", tagged, m)
			}
		}
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := query.ParseSpecs("det,eps=0.1;rand,eps=0.05,seed=7;freq,eps=0.2,filter=even;threshold,eps=0.1,tau=500,name=alarm;det,eps=0.1,at=5000")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 5 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[1].Seed != 7 || specs[1].Algo != "rand" {
		t.Fatalf("spec 1 wrong: %+v", specs[1])
	}
	if specs[2].Filter == nil || !specs[2].Filter.Match(4) || specs[2].Filter.Match(3) {
		t.Fatalf("spec 2 filter wrong: %+v", specs[2])
	}
	if specs[3].Tau != 500 || specs[3].Name != "alarm" {
		t.Fatalf("spec 3 wrong: %+v", specs[3])
	}
	if specs[4].AttachAt != 5000 {
		t.Fatalf("spec 4 wrong: %+v", specs[4])
	}
	for _, bad := range []string{
		"", "bogus,eps=0.1", "det,eps=2", "det,eps", "det,zzz=1",
		"threshold,eps=0.1", "det,eps=0.1,filter=nope", "det,eps=0.1;rand,eps=0",
	} {
		if _, err := query.ParseSpecs(bad); err == nil {
			t.Fatalf("ParseSpecs(%q) accepted", bad)
		}
	}
}

// TestThresholdQuery runs a threshold query next to a det query and checks
// the verdict flips as f crosses τ.
func TestThresholdQuery(t *testing.T) {
	const k, tau = 3, 400
	ups := stream.Collect(stream.NewAssign(stream.Monotone(1000), stream.NewRoundRobin(k)))
	eng, esites, err := query.New(k, []query.Spec{
		{Algo: "det", Eps: 0.1},
		{Algo: "threshold", Eps: 0.3, Tau: tau},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := dist.NewSim(eng, esites)
	sawBelow, sawAbove := false, false
	var f int64
	for _, u := range ups {
		sim.Step(u)
		f += u.Delta
		st, ok := eng.ThresholdState(1)
		if !ok {
			t.Fatal("threshold query missing")
		}
		switch {
		case f <= int64(float64(tau)*0.7)-1 && st == track.Below:
			sawBelow = true
		case f >= tau && st != track.Above:
			t.Fatalf("f=%d >= tau=%d but state %v", f, tau, st)
		case f >= tau:
			sawAbove = true
		}
	}
	if !sawBelow || !sawAbove {
		t.Fatalf("threshold never exercised both sides: below=%v above=%v", sawBelow, sawAbove)
	}
}

func absI64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
