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
// The engine attach/detach deployment is hashed on its own.
const (
	goldenBlobCount  = 4050
	goldenBlobDigest = 0x23d6cc4248a6fcb9

	goldenAttachBlobCount  = 810
	goldenAttachBlobDigest = 0x42c3d45edd2cbe84
)

// deployment is one tracker under test and its constructor.
type deployment struct {
	name  string
	build func() (dist.CoordAlgo, []dist.SiteAlgo)
}

// control is a query engine action (an attach, a detach) injected after a
// given number of updates.
type control map[int]func(*query.Coord, dist.Outbox) error

// TestSnapshotBlobsGolden snapshots every site and the coordinator of the
// det, rand, threshold and exact-freq trackers and of a mixed five-query
// engine every 37th update of one item stream, on AsyncSim with latency so
// that some coordinator blobs hold an open collection, and pins the digest
// of all blobs. Taking a snapshot changes nothing a run observes, so the
// run itself is the same as one that takes none.
//
// A second digest pins an engine whose frequency queries come and go: a
// filtered frequency query attaches mid-stream, the unfiltered one
// detaches, and a third attaches after it. Its blobs hold frequency
// sections built from the spine's history, zero-count cells, and the
// sections of a site that outlived a detached query.
func TestSnapshotBlobsGolden(t *testing.T) {
	const k, n = 4, 6_000
	specs, err := query.ParseSpecs("det;freq,filter=even;rand;threshold,tau=300;freq")
	if err != nil {
		t.Fatal(err)
	}
	deployments := []deployment{
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
	count, got := digestBlobs(t, deployments, nil, ups)
	if count != goldenBlobCount || got != goldenBlobDigest {
		t.Fatalf("%d blobs with digest %#x, want %d with %#x", count, got, goldenBlobCount, uint64(goldenBlobDigest))
	}

	later, err := query.ParseSpecs("freq,eps=0.1,filter=mod:4:1;freq,eps=0.2,filter=odd")
	if err != nil {
		t.Fatal(err)
	}
	attach := func(spec query.Spec) func(*query.Coord, dist.Outbox) error {
		return func(eng *query.Coord, out dist.Outbox) error { _, err := eng.Attach(spec, out); return err }
	}
	churn := deployment{"engine-attach", func() (dist.CoordAlgo, []dist.SiteAlgo) {
		eng, sites, err := query.New(k, []query.Spec{specs[0], specs[4]})
		if err != nil {
			t.Fatal(err)
		}
		return eng, sites
	}}
	count, got = digestBlobs(t, []deployment{churn}, control{
		1_500: attach(later[0]),
		3_000: func(eng *query.Coord, out dist.Outbox) error { return eng.Detach(1, out) },
		4_500: attach(later[1]),
	}, ups)
	if count != goldenAttachBlobCount || got != goldenAttachBlobDigest {
		t.Fatalf("attach/detach: %d blobs with digest %#x, want %d with %#x",
			count, got, goldenAttachBlobCount, uint64(goldenAttachBlobDigest))
	}
}

// digestBlobs drives ups through each deployment on AsyncSim, injecting
// ctrl's actions, and returns the count and FNV-1a digest of the
// coordinator and site blobs taken every 37th update.
func digestBlobs(t *testing.T, deployments []deployment, ctrl control, ups []stream.Update) (int, uint64) {
	t.Helper()
	const every = 37
	h := fnv.New64a()
	count := 0
	for _, d := range deployments {
		coord, sites := d.build()
		sim := dist.NewAsyncSim(coord, sites, dist.NetModel{Latency: 3, Jitter: 2}, 7)
		for i, u := range ups {
			sim.Step(u)
			if fn := ctrl[i+1]; fn != nil {
				var err error
				sim.Inject(func(out dist.Outbox) { err = fn(coord.(*query.Coord), out) })
				if err != nil {
					t.Fatalf("%s: control after update %d: %v", d.name, i+1, err)
				}
			}
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
	return count, h.Sum64()
}
