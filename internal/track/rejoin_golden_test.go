package track_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/dist"
	"repro/internal/freq"
	"repro/internal/stream"
	"repro/internal/track"
)

// TestRejoinTranscriptsGolden pins the whole delivered transcript and the
// final estimate of the trackers that run the §3.3 drift condition (det,
// exact frequency, sampled frequency with block-end sync) on AsyncSim
// under loss, with one site partitioned for a window mid-stream. The
// rejoin resync is what differs between them: det re-sends its absolute
// drift when the link comes back, the frequency sites send nothing. A
// change to a drift estimator's updates, sends or rejoin traffic moves a
// digest. Regenerate the constants only for an intended protocol change.
func TestRejoinTranscriptsGolden(t *testing.T) {
	const k, n, universe = 4, 12_000, 300
	ups := stream.Collect(stream.NewAssign(
		stream.NewItemGen(n, universe, 1.1, 0.3, 23), stream.NewSkewed(k, 1.5, 4)))
	model := dist.NetModel{Latency: 2, Jitter: 2, Drop: 0.05, Retrans: 2}

	for _, c := range []struct {
		name     string
		build    func() (dist.CoordAlgo, []dist.SiteAlgo)
		digest   string
		estimate int64
	}{
		{"det", func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(k, 0.05) },
			"7250399c51f70b9710435f08e4fc8330b79bec8f779af1322a74bb1996eabb5b", 4897},
		{"freq-exact", func() (dist.CoordAlgo, []dist.SiteAlgo) { return freq.New(k, 0.1, freq.ExactMapper{}) },
			"5af471869ca25637736112d20cb767103c2062cef8e8163371505858b6eaadfe", 4846},
		{"freq-sampled", func() (dist.CoordAlgo, []dist.SiteAlgo) { return freq.NewSampled(k, 0.1, freq.ExactMapper{}, 9) },
			"1b697cbe2f2cc3b8eb5090ccf79ef22b5bb12f83f8e31f216eae17ea6f46c890", 4844},
	} {
		t.Run(c.name, func(t *testing.T) {
			coord, sites := c.build()
			sim := dist.NewAsyncSim(coord, sites, model, 31)
			sim.ScheduleDown(2, n/3)
			sim.ScheduleUp(2, n/2)
			h := sha256.New()
			var b []byte
			var entries int
			sim.Recorder = func(e dist.TranscriptEntry) {
				b = binary.AppendVarint(b[:0], e.T)
				b = binary.AppendVarint(b, int64(e.To))
				m := dist.EncodeMsg(e.Msg)
				h.Write(append(b, m[:]...))
				entries++
			}
			for _, u := range ups {
				sim.Step(u)
			}
			sim.Flush()
			if sim.Stats().Dropped == 0 {
				t.Fatalf("no message was lost: %+v", sim.Stats())
			}
			got := hex.EncodeToString(h.Sum(nil))
			if got != c.digest || sim.Estimate() != c.estimate {
				t.Errorf("transcript of %d entries: digest %s estimate %d, want %s %d",
					entries, got, sim.Estimate(), c.digest, c.estimate)
			}
		})
	}
}
