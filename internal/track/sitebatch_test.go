package track_test

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/freq"
	"repro/internal/stream"
	"repro/internal/track"
)

// runPath hides a batch-capable site's quiet path, so every same-site run
// a feed scans reaches OnUpdateBatch instead of being absorbed.
type runPath struct{ dist.BatchSiteAlgo }

// TestBlockSiteBatchEquivalence drives every in-block estimator through
// StepBatch at several chunk sizes over a skewed assignment whose same-site
// runs reach BlockSite.OnUpdateBatch: once with the quiet path hidden, so
// every run takes the batch path, and once with the sites as built, so
// the estimators that are quiet absorb runs their budget covers.
// Transcripts, stats, the estimate and, for the frequency trackers, every
// per-item frequency must match the per-update Step path exactly: the
// batch path must stop on the update a count report or an estimator send
// happens on, and only an estimator whose sends its budget bounds may be
// quiet (a standalone frequency site reports per item, so it is not).
func TestBlockSiteBatchEquivalence(t *testing.T) {
	const k, n, universe = 3, 20_000, 400
	ups := stream.Collect(stream.NewAssign(
		stream.NewItemGen(n, universe, 1.1, 0.3, 17), stream.NewSkewed(k, 2.0, 6)))
	freqs := func(coord dist.CoordAlgo) []int64 {
		tr, ok := coord.(*freq.Tracker)
		if !ok {
			return nil
		}
		out := make([]int64, universe)
		for item := range out {
			out[item] = tr.Frequency(uint64(item))
		}
		return out
	}

	for _, b := range []struct {
		name  string
		build func() (dist.CoordAlgo, []dist.SiteAlgo)
	}{
		{"det", func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(k, 0.05) }},
		{"rand", func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewRandomized(k, 0.1, 9) }},
		{"threshold", func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewThresholdMonitor(k, 0.1, 3_000) }},
		{"freq-exact", func() (dist.CoordAlgo, []dist.SiteAlgo) { return freq.New(k, 0.1, freq.ExactMapper{}) }},
		{"freq-cm", func() (dist.CoordAlgo, []dist.SiteAlgo) { return freq.New(k, 0.1, freq.NewCMMapper(0.1, 2, 7)) }},
		{"freq-cr", func() (dist.CoordAlgo, []dist.SiteAlgo) { return freq.New(k, 0.2, freq.NewCRMapper(0.2, 10)) }},
		{"freq-sampled", func() (dist.CoordAlgo, []dist.SiteAlgo) { return freq.NewSampled(k, 0.1, freq.ExactMapper{}, 9) }},
		{"freq-nosync", func() (dist.CoordAlgo, []dist.SiteAlgo) {
			return freq.NewSampledNoSync(k, 0.1, freq.ExactMapper{}, 9)
		}},
	} {
		t.Run(b.name, func(t *testing.T) {
			coord, sites := b.build()
			ref := dist.NewSim(coord, sites)
			var refTr []dist.TranscriptEntry
			ref.Recorder = func(e dist.TranscriptEntry) { refTr = append(refTr, e) }
			for _, u := range ups {
				ref.Step(u)
			}
			wantFreqs := freqs(coord)

			for pass := range 8 {
				quiet, chunk := pass >= 4, []int{1, 7, 64, len(ups)}[pass%4]
				coord, sites := b.build()
				if !quiet {
					for i, s := range sites {
						sites[i] = runPath{s.(dist.BatchSiteAlgo)}
					}
				}
				sim := dist.NewSim(coord, sites)
				var tr []dist.TranscriptEntry
				sim.Recorder = func(e dist.TranscriptEntry) { tr = append(tr, e) }
				for i := 0; i < len(ups); {
					end := min(i+chunk, len(ups))
					for i < end {
						c, _ := sim.StepBatch(ups[i:end])
						i += c
					}
				}
				if sim.Estimate() != ref.Estimate() || sim.Stats() != ref.Stats() {
					t.Fatalf("quiet=%t chunk=%d: end state diverges: estimate %d stats %+v, want %d %+v",
						quiet, chunk, sim.Estimate(), sim.Stats(), ref.Estimate(), ref.Stats())
				}
				if !reflect.DeepEqual(freqs(coord), wantFreqs) {
					t.Fatalf("quiet=%t chunk=%d: per-item frequencies diverge", quiet, chunk)
				}
				if !reflect.DeepEqual(tr, refTr) {
					t.Fatalf("quiet=%t chunk=%d: transcripts diverge (%d vs %d entries)", quiet, chunk, len(tr), len(refTr))
				}
			}
		})
	}
}
