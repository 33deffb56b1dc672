package dist_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// TestAsyncSimFaultCountersGolden pins the work counters of the
// async-faults shape with exact equality: k = 8 deterministic sites under
// faultModel, 2^16 MeanReverting updates over uniformly random sites, and
// the benchmark's fault plan (sites 0–3 crash at 20, 40, 60 and 80% of the
// input, the coordinator at 50%, each replaced warm from a snapshot taken
// one tick before its crash and spliced in eight heartbeats later). The
// input is driven through StepBatch with a poll every 2^12 updates, then
// flushed. Each line holds the events scheduled and popped, every Stats
// field, the final estimate and an FNV-64a digest of (consumed, estimate)
// after each StepBatch call that delivered. The queue's slab size is left
// out: it is a high-water mark, not work. Regenerate with -update only for
// an intended change of the protocol or the fault model, and say why in
// the commit.
func TestAsyncSimFaultCountersGolden(t *testing.T) {
	var got strings.Builder
	for _, seed := range []uint64{5, 11} {
		fmt.Fprintf(&got, "seed=%d %s\n", seed, runFaultCounters(t, seed))
	}

	path := filepath.Join("testdata", "fault_counters.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/dist -run TestAsyncSimFaultCountersGolden -update` to create it)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("fault counters drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
	}
}

// runFaultCounters drives one seeded async-faults run and returns its
// summary line.
func runFaultCounters(t *testing.T, seed uint64) string {
	t.Helper()
	const k, eps, n, poll, hb = 8, 0.1, 1 << 16, 1 << 12, 64
	model, err := dist.ParseNetModel(faultModel)
	if err != nil {
		t.Fatal(err)
	}
	coord, sites := track.NewDeterministic(k, eps)
	sim := dist.NewAsyncSim(coord, sites, model, seed)
	ups := stream.Collect(stream.NewAssign(stream.MeanReverting(n, 1024, 0.5, seed), stream.NewUniformRandom(k, seed+1)))

	// fire snapshots the victim (-1: the coordinator) now, then crashes it
	// on the next tick and splices its warm replacement in eight heartbeats
	// later.
	fire := func(victim int) {
		crash := sim.Now() + 1
		takeover := crash + 8*hb
		if victim < 0 {
			blob, err := track.SnapshotCoord(coord)
			if err != nil {
				t.Fatal(err)
			}
			standby, _ := track.NewDeterministic(k, eps)
			if err := track.RestoreCoord(standby, blob); err != nil {
				t.Fatal(err)
			}
			coord = standby
			sim.ScheduleCoordCrash(crash)
			sim.ScheduleCoordTakeover(takeover, standby)
			return
		}
		blob, err := track.SnapshotSite(sites[victim])
		if err != nil {
			t.Fatal(err)
		}
		_, fresh := track.NewDeterministic(k, eps)
		if err := track.RestoreSite(fresh[victim], blob); err != nil {
			t.Fatal(err)
		}
		sites[victim] = fresh[victim]
		sim.ScheduleCrash(victim, crash)
		sim.ScheduleTakeover(victim, takeover, fresh[victim])
	}
	faultAt := []int{n / 5, 2 * n / 5, n / 2, 3 * n / 5, 4 * n / 5}
	victims := []int{0, 1, -1, 2, 3}

	digest := fnv.New64a()
	nextPoll := poll
	for i := 0; i < n; {
		end := min(nextPoll, n)
		if len(faultAt) > 0 {
			end = min(end, faultAt[0])
		}
		c, delivered := sim.StepBatch(ups[i:end])
		i += c
		if delivered {
			hashInts(digest, int64(i), sim.Estimate())
		}
		for len(faultAt) > 0 && faultAt[0] == i {
			fire(victims[0])
			faultAt, victims = faultAt[1:], victims[1:]
		}
		if i == nextPoll {
			nextPoll += poll
		}
	}
	sim.Flush()
	st := sim.Stats()
	if st.Takeovers != 4 || st.CoordTakeovers != 1 {
		t.Fatalf("seed %d: %d site and %d coordinator takeovers, want 4 and 1", seed, st.Takeovers, st.CoordTakeovers)
	}
	return fmt.Sprintf("scheduled=%d popped=%d %+v estimate=%d marks=%016x",
		sim.EventsScheduled(), sim.EventsPopped(), st, sim.Estimate(), digest.Sum64())
}
