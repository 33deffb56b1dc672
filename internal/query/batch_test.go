package query_test

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/stream"
)

// This file pins the engine's batch fast path (Site.OnUpdateBatch) against
// the per-update reference: same transcript, same per-step estimates at
// every batch boundary, same aggregate and per-query Stats — on Sim, on
// zero-fault AsyncSim's event queue, and under three fault models, with
// mid-stream attach/detach landing inside a batch boundary. The skewed site
// assignment matters: round-robin interleaves sites into runs of length
// one, which bypasses the batch machinery entirely, so without it these
// tests would pass vacuously.

// skewedItemStream is itemStream with a zipf-skewed site assignment, so
// the stream contains long same-site runs for OnUpdateBatch to chew on.
func skewedItemStream(n int64, k int, seed uint64) []stream.Update {
	return stream.Collect(stream.NewAssign(
		stream.NewItemGen(n, 512, 1.2, 0.2, seed), stream.NewSkewed(k, 2.0, seed^0x5f)))
}

// specsForQ returns a Q-query mix covering every family plus filters.
func specsForQ(q int, seed uint64) []query.Spec {
	filter, err := query.ParseFilter("even")
	if err != nil {
		panic(err)
	}
	all := []query.Spec{
		{Algo: "det", Eps: 0.1},
		{Algo: "rand", Eps: 0.05, Seed: seed ^ 0xABCD},
		{Algo: "freq", Eps: 0.2},
		{Algo: "det", Eps: 0.1, Filter: filter},
		{Algo: "threshold", Eps: 0.3, Tau: 300},
		{Algo: "det", Eps: 0.02},
		{Algo: "rand", Eps: 0.1, Seed: seed ^ 0x77},
		{Algo: "freq", Eps: 0.1, Filter: filter},
	}
	return all[:q]
}

// control is a coordinator action injected after a given update count.
type control struct {
	after int64
	fn    func(*query.Coord, dist.Outbox)
}

// driveRef drives ups one Step at a time, firing controls at their exact
// positions and recording the per-step estimate of query 0.
func driveRef(sim *dist.AsyncSim, eng *query.Coord, ups []stream.Update, ctrls []control) []int64 {
	ests := make([]int64, len(ups))
	for i, u := range ups {
		sim.Step(u)
		ests[i] = sim.Estimate()
		for _, c := range ctrls {
			if c.after == int64(i+1) {
				c := c
				sim.Inject(func(out dist.Outbox) { c.fn(eng, out) })
			}
		}
	}
	return ests
}

// driveBatched drives ups through StepBatch with the given buffer size,
// firing controls at the same exact update positions (capping a buffer so
// an attach or detach lands inside what would otherwise be one batch), and
// checks the estimate at every consumed-prefix boundary against the
// reference per-step estimates.
func driveBatched(t *testing.T, sim *dist.AsyncSim, eng *query.Coord, ups []stream.Update,
	ctrls []control, bs int, refEst []int64, label string) {
	t.Helper()
	i := 0
	for i < len(ups) {
		end := len(ups)
		for _, c := range ctrls {
			if c.after > int64(i) && c.after < int64(end) {
				end = int(c.after)
			}
		}
		for i < end {
			lim := i + bs
			if lim > end {
				lim = end
			}
			c, _ := sim.StepBatch(ups[i:lim])
			i += c
			if refEst != nil && sim.Estimate() != refEst[i-1] {
				t.Fatalf("%s: estimate after update %d = %d, want %d",
					label, i, sim.Estimate(), refEst[i-1])
			}
		}
		for _, c := range ctrls {
			if c.after == int64(i) {
				c := c
				sim.Inject(func(out dist.Outbox) { c.fn(eng, out) })
			}
		}
	}
}

// TestEngineBatchByteIdentical is the batch↔per-update property for the
// engine: for Q ∈ {1, 3, 8}, batch sizes 1/7/64/256, on Sim (the lane),
// on the event queue under the zero model, and under three fault models,
// with an attach landing at n/3 and a detach at 2n/3 (both inside a batch
// boundary for the larger sizes), the batched drive must produce the
// identical transcript, Stats, per-query Stats, and per-boundary estimates
// as the per-update drive. Under the zero model the per-update drive on
// the event queue must also match the lane's byte for byte.
func TestEngineBatchByteIdentical(t *testing.T) {
	const k, n = 4, 12_000
	models := []dist.NetModel{
		{},
		{Latency: 3, Jitter: 2},
		{Latency: 2, Jitter: 3, Reorder: 2, Drop: 0.05},
		{Latency: 4, Drop: 0.1, Retrans: 3},
	}
	ups := skewedItemStream(n, k, 41)
	ctrls := []control{
		{after: n / 3, fn: func(eng *query.Coord, out dist.Outbox) {
			if _, err := eng.Attach(query.Spec{Algo: "det", Eps: 0.2}, out); err != nil {
				t.Fatal(err)
			}
		}},
		{after: 2 * n / 3, fn: func(eng *query.Coord, out dist.Outbox) {
			if err := eng.Detach(0, out); err != nil {
				t.Fatal(err)
			}
		}},
	}

	type build struct {
		name string
		mk   func(coord dist.CoordAlgo, sites []dist.SiteAlgo, cl dist.Classifier) *dist.AsyncSim
	}
	builds := []build{
		{"sim", func(coord dist.CoordAlgo, sites []dist.SiteAlgo, cl dist.Classifier) *dist.AsyncSim {
			s := dist.NewSim(coord, sites)
			s.SetClassifier(cl)
			return s
		}},
	}
	for mi, model := range models {
		model := model
		name := "async" + string(rune('0'+mi))
		builds = append(builds, build{name, func(coord dist.CoordAlgo, sites []dist.SiteAlgo, cl dist.Classifier) *dist.AsyncSim {
			s := dist.NewAsyncSim(coord, sites, model, 91)
			s.SetClassifier(cl)
			if mi == 0 {
				onQueue(s, coord)
			}
			return s
		}})
	}

	// run is one drive's observable outcome.
	type run struct {
		tr    []dist.TranscriptEntry
		ests  []int64
		stats dist.Stats
		class []dist.Stats
	}
	for _, q := range []int{1, 3, 8} {
		specs := specsForQ(q, 7)
		var lane run
		for _, b := range builds {
			// Per-update reference.
			eng, esites, err := query.New(k, specs)
			if err != nil {
				t.Fatal(err)
			}
			var want run
			ref := b.mk(eng, esites, eng)
			ref.Recorder = func(e dist.TranscriptEntry) { want.tr = append(want.tr, e) }
			want.ests = driveRef(ref, eng, ups, ctrls)
			want.stats, want.class = ref.Stats(), ref.ClassStats()
			// The zero model's event queue against the lane.
			switch b.name {
			case "sim":
				lane = want
			case "async0":
				if !reflect.DeepEqual(want, lane) {
					t.Fatalf("Q=%d: the event queue under the zero model diverges from the lane", q)
				}
			}

			for _, bs := range []int{1, 7, 64, 256} {
				eng2, esites2, err := query.New(k, specs)
				if err != nil {
					t.Fatal(err)
				}
				var gotTr []dist.TranscriptEntry
				sim := b.mk(eng2, esites2, eng2)
				sim.Recorder = func(e dist.TranscriptEntry) { gotTr = append(gotTr, e) }
				driveBatched(t, sim, eng2, ups, ctrls, bs, want.ests, b.name)
				if got := sim.Stats(); got != want.stats {
					t.Fatalf("Q=%d %s bs=%d: stats %+v, want %+v", q, b.name, bs, got, want.stats)
				}
				if got := sim.ClassStats(); !reflect.DeepEqual(got, want.class) {
					t.Fatalf("Q=%d %s bs=%d: per-query stats %+v, want %+v", q, b.name, bs, got, want.class)
				}
				if !reflect.DeepEqual(gotTr, want.tr) {
					t.Fatalf("Q=%d %s bs=%d: transcripts diverge (%d vs %d entries)",
						q, b.name, bs, len(gotTr), len(want.tr))
				}
			}
		}
	}
}

// TestEngineBatchMatchesStandalone closes the triangle at Q = 1: the
// engine driven through RunBatch must match a standalone tracker driven
// through RunBatch message for message on the skewed stream, so the engine
// batch path adds nothing over the bare tracker's.
func TestEngineBatchMatchesStandalone(t *testing.T) {
	const k, n = 5, 20_000
	ups := skewedItemStream(n, k, 19)
	for _, spec := range []query.Spec{
		{Algo: "det", Eps: 0.1},
		{Algo: "rand", Eps: 0.1, Seed: 3},
		{Algo: "freq", Eps: 0.1},
	} {
		coord, sites := standalone(k, spec)
		sim := dist.NewSim(coord, sites)
		var wantTr []dist.TranscriptEntry
		sim.Recorder = func(e dist.TranscriptEntry) { wantTr = append(wantTr, e) }
		sim.RunBatch(stream.NewSlice(ups), nil, 0, nil)
		wantStats := sim.Stats()

		eng, esites, err := query.New(k, []query.Spec{spec})
		if err != nil {
			t.Fatal(err)
		}
		esim := dist.NewSim(eng, esites)
		var gotTr []dist.TranscriptEntry
		esim.Recorder = func(e dist.TranscriptEntry) { gotTr = append(gotTr, e) }
		esim.RunBatch(stream.NewSlice(ups), nil, 0, nil)
		if got := esim.Stats(); got != wantStats {
			t.Fatalf("%s: stats %+v, want %+v", spec.Algo, got, wantStats)
		}
		if !reflect.DeepEqual(gotTr, wantTr) {
			t.Fatalf("%s: transcripts diverge (%d vs %d entries)", spec.Algo, len(gotTr), len(wantTr))
		}
	}
}

// TestEngineSiteConsumedPrefix pins the consumed-prefix contract on the
// Site directly: feeding one long single-site run must consume prefixes
// that stop exactly at child sends, and repeated calls must drain the run
// without ever double-ingesting (the spine update count equals the run
// length at the end).
func TestEngineSiteConsumedPrefix(t *testing.T) {
	const k, n = 3, 6_000
	ups := stream.Collect(stream.NewAssign(
		stream.NewItemGen(n, 128, 1.2, 0.3, 23), stream.NewSingle(k)))
	specs := specsForQ(8, 23)
	eng, esites, err := query.New(k, specs)
	if err != nil {
		t.Fatal(err)
	}
	sim := dist.NewSim(eng, esites)
	sim.RunBatch(stream.NewSlice(ups), nil, 0, nil)
	site0 := esites[0].(*query.Site)
	updates, net := site0.Spine()
	if updates != n {
		t.Fatalf("site 0 spine saw %d updates, want %d", updates, n)
	}
	var want int64
	for _, u := range ups {
		want += u.Delta
	}
	if net != want {
		t.Fatalf("site 0 spine net %d, want %d", net, want)
	}
}
