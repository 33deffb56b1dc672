package repro

import (
	"hash/fnv"
	"testing"

	"repro/internal/dist"
	"repro/internal/freq"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/track"
)

// Known answer for every snapshot blob format: the FNV-1a digest and count
// of the site and coordinator blobs TestSnapshotBlobsGolden takes. A change
// to any snapshot encoder moves the digest. Regenerate the constants only
// for an intended format change, and say so where the change is recorded.
const (
	goldenBlobCount  = 4050
	goldenBlobDigest = 0xc3f7bf99b4780412
)

// TestSnapshotBlobsGolden snapshots every site and the coordinator of the
// det, rand, threshold and exact-freq trackers and of a mixed five-query
// engine every 37th update of one item stream, on AsyncSim with latency so
// that some coordinator blobs hold an open collection, and pins the digest
// of all blobs. Taking a snapshot changes nothing a run observes, so the
// run itself is the same as one that takes none.
func TestSnapshotBlobsGolden(t *testing.T) {
	const k, n, every = 4, 6_000, 37
	specs, err := query.ParseSpecs("det;freq,filter=even;rand;threshold,tau=300;freq")
	if err != nil {
		t.Fatal(err)
	}
	deployments := []struct {
		name  string
		build func() (dist.CoordAlgo, []dist.SiteAlgo)
	}{
		{"det", func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(k, 0.1) }},
		{"rand", func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewRandomized(k, 0.1, 9) }},
		{"threshold", func() (dist.CoordAlgo, []dist.SiteAlgo) {
			m, sites := track.NewThresholdMonitor(k, 0.2, 300)
			return m, sites
		}},
		{"freq", func() (dist.CoordAlgo, []dist.SiteAlgo) {
			tr, sites := freq.New(k, 0.1, freq.ExactMapper{})
			return tr, sites
		}},
		{"engine", func() (dist.CoordAlgo, []dist.SiteAlgo) {
			eng, sites, err := query.New(k, specs)
			if err != nil {
				t.Fatal(err)
			}
			return eng, sites
		}},
	}
	ups := stream.Collect(stream.NewAssign(
		stream.NewItemGen(n, 256, 1.2, 0.3, 8), stream.NewSkewed(k, 1.3, 5)))
	h := fnv.New64a()
	count := 0
	for _, d := range deployments {
		coord, sites := d.build()
		sim := dist.NewAsyncSim(coord, sites, dist.NetModel{Latency: 3, Jitter: 2}, 7)
		for i, u := range ups {
			sim.Step(u)
			if i%every != every-1 {
				continue
			}
			blob, err := track.SnapshotCoord(coord)
			if err != nil {
				t.Fatalf("%s: coordinator snapshot after update %d: %v", d.name, i, err)
			}
			h.Write(blob)
			count++
			for j, s := range sites {
				blob, err := track.SnapshotSite(s)
				if err != nil {
					t.Fatalf("%s: site %d snapshot after update %d: %v", d.name, j, i, err)
				}
				h.Write(blob)
				count++
			}
		}
	}
	if got := h.Sum64(); count != goldenBlobCount || got != goldenBlobDigest {
		t.Fatalf("%d blobs with digest %#x, want %d with %#x", count, got, goldenBlobCount, uint64(goldenBlobDigest))
	}
}
