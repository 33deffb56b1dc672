package dist_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestHeartbeatTimelineGolden pins the whole heartbeat and failure-detector
// timeline, not just its takeover counts: the full Stats, a hash of the
// Event trace, a hash of the delivery transcript and a hash of the
// per-update estimate trajectory, for five latency/cadence relations at
// k = 3 (one beacon round) and k = 70 (two rounds) under a fault schedule
// that crosses every beacon edge case. A beacon chain restarted at the
// wrong phase, an arrival gated on the wrong incarnation, or a beacon
// reordered against a delivery at the same tick all move at least one
// column. Regenerate with -update only for an intended change of the
// timeline, and say why in the commit.
func TestHeartbeatTimelineGolden(t *testing.T) {
	const hb = 16
	models := []struct {
		name  string
		model dist.NetModel
	}{
		{"lat<hb", dist.NetModel{Latency: 5, Jitter: 2, Drop: 0.02, Retrans: 3, HeartbeatEvery: hb}},
		{"lat=hb", dist.NetModel{Latency: hb, HeartbeatEvery: hb}},
		{"lat=2hb", dist.NetModel{Latency: 2 * hb, HeartbeatEvery: hb}},
		{"lat>hb", dist.NetModel{Latency: 23, Reorder: 2, Jitter: 3, HeartbeatEvery: hb}},
		{"lat=0", dist.NetModel{HeartbeatEvery: hb}},
	}
	var got strings.Builder
	for _, k := range []int{3, 70} {
		for _, m := range models {
			name := fmt.Sprintf("k=%d/%s", k, m.name)
			batched := runTimeline(t, k, m.model, true)
			stepped := runTimeline(t, k, m.model, false)
			if batched != stepped {
				t.Errorf("%s: StepBatch and Step timelines differ:\n%s\n%s", name, batched, stepped)
			}
			fmt.Fprintf(&got, "%s %s\n", name, batched)
		}
	}

	path := filepath.Join("testdata", "heartbeat_timeline.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/dist -run TestHeartbeatTimelineGolden -update` to create it)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("heartbeat timeline drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
	}
}

// runTimeline drives one k-site deterministic tracker under model through
// the golden fault schedule, fed through StepBatch or per-update Step, and
// returns its summary line.
func runTimeline(t *testing.T, k int, model dist.NetModel, batched bool) string {
	t.Helper()
	const n, eps = 10_000, 0.1
	h := model.HeartbeatEvery
	coord, sites := track.NewDeterministic(k, eps)
	sim := dist.NewAsyncSim(coord, sites, model, 19)
	evHash, trHash := fnv.New64a(), fnv.New64a()
	sim.Events = func(e dist.Event) {
		hashInts(evHash, int64(e.Kind), e.T, e.Now, int64(e.Site), int64(e.To), int64(e.Item), e.A, e.B)
	}
	sim.Recorder = func(e dist.TranscriptEntry) {
		hashInts(trHash, e.T, int64(e.To), int64(e.Msg.Kind), int64(e.Msg.Site), int64(e.Msg.Item), e.Msg.A, e.Msg.B)
	}

	// Victims: k = 3 has one round, so every victim is a non-base member or
	// the base; k = 70 spreads them over both rounds, with the second
	// round's base (site 64) taken over inside a beacon period.
	quick, late, brief, long := 1, 2, 0, []int{1, 2}
	early, later, laterUp := 0, 1, 338*h+6 // after site 1's own round sends
	if k > 64 {
		quick, late, brief, long = 64, 3, 69, []int{2, 65}
		early, later, laterUp = 5, 10, 338*h+1
	}
	lat := model.Latency
	fresh := func(site int) dist.SiteAlgo {
		_, s := track.NewDeterministic(k, eps)
		return s[site]
	}
	// A crash and its takeover two ticks later, both inside one beacon
	// period: the old chain runs on beside the new one.
	sim.ScheduleCrash(quick, 100*h+3)
	sim.ScheduleTakeover(quick, 100*h+5, fresh(quick))
	// A crash taken over only after the detector's verdict.
	sim.ScheduleCrash(late, 150*h+7)
	sim.ScheduleTakeover(late, 158*h+7, fresh(late))
	// A partition covering a beacon's send tick but not its arrival, then
	// one covering an arrival but not its send.
	sim.ScheduleDown(brief, 200*h-1)
	sim.ScheduleUp(brief, 200*h+1)
	sim.ScheduleDown(brief, 220*h+1)
	sim.ScheduleUp(brief, 220*h+lat+1)
	// Partitions long enough for a verdict, rescinded by the next beacon
	// that lands once they heal.
	for _, s := range long {
		sim.ScheduleDown(s, 300*h+1)
		sim.ScheduleUp(s, 308*h+1)
	}
	// Staggered heals: a later member of a round rescinded first, then an
	// earlier one a period later, while the resync the first rescind sent
	// is landing (with latency = hb, on the same tick).
	sim.ScheduleDown(early, 330*h+1)
	sim.ScheduleUp(early, 339*h+1)
	sim.ScheduleDown(later, 330*h+1)
	sim.ScheduleUp(later, laterUp)
	// A coordinator crash and a (cold) standby takeover.
	sim.ScheduleCoordCrash(400*h + 4)
	standby, _ := track.NewDeterministic(k, eps)
	sim.ScheduleCoordTakeover(405*h+4, standby)

	st := stream.NewAssign(stream.MeanReverting(n, 1024, 0.5, 23), stream.NewSkewed(k, 1.5, 29))
	trajHash := fnv.New64a()
	if batched {
		// Between StepBatch calls that ran an event the estimate cannot
		// change, so the marks give f̂ after every update.
		buf := make([]stream.Update, 64)
		est := sim.Estimate()
		for {
			m := stream.NextBatch(st, buf)
			if m == 0 {
				break
			}
			for i := 0; i < m; {
				c, active := sim.StepBatch(buf[i:m])
				for j := 0; j < c-1; j++ {
					hashInts(trajHash, est)
				}
				if active {
					est = sim.Estimate()
				}
				hashInts(trajHash, est)
				i += c
			}
		}
	} else {
		for {
			u, ok := st.Next()
			if !ok {
				break
			}
			sim.Step(u)
			hashInts(trajHash, sim.Estimate())
		}
	}
	sim.Flush()
	hashInts(trajHash, sim.Estimate())
	return fmt.Sprintf("%+v events=%016x transcript=%016x estimates=%016x",
		sim.Stats(), evHash.Sum64(), trHash.Sum64(), trajHash.Sum64())
}

// hashInts writes each value's 8 little-endian bytes to h.
func hashInts(h hash.Hash64, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}
