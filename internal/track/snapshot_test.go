package track_test

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/freq"
	"repro/internal/stream"
	"repro/internal/track"
)

// The snapshot contract's property: restoring a blob into a freshly
// constructed algorithm and silently swapping it in mid-run is
// unobservable — transcripts, per-step estimates, and Stats of the suffix
// are byte-identical to never having swapped. Pinned for every tracker
// family, on the synchronous runtime and on AsyncSim under three fault
// models, at three cut points each.

// snapRuntime is what the round-trip driver needs from either runtime.
type snapRuntime interface {
	Step(u stream.Update)
	Estimate() int64
	Stats() dist.Stats
	ReplaceSite(site int, algo dist.SiteAlgo)
}

type snapRun struct {
	transcript []dist.TranscriptEntry
	ests       []int64
	stats      dist.Stats
}

// driveSnap runs ups through a fresh tracker, optionally snapshotting the
// target site at index cut, restoring the blob into a freshly built
// algorithm, and splicing that in before continuing. cut < 0 is the
// reference run.
func driveSnap(t *testing.T, build func() (dist.CoordAlgo, []dist.SiteAlgo),
	model *dist.NetModel, ups []stream.Update, cut, target int) snapRun {
	t.Helper()
	coord, sites := build()
	var rt snapRuntime
	var rec *func(dist.TranscriptEntry)
	var flush func()
	if model == nil {
		sim := dist.NewSim(coord, sites)
		rec = &sim.Recorder
		flush = func() {}
		rt = sim
	} else {
		sim := dist.NewAsyncSim(coord, sites, *model, 7)
		rec = &sim.Recorder
		flush = sim.Flush
		rt = sim
	}
	var out snapRun
	*rec = func(e dist.TranscriptEntry) { out.transcript = append(out.transcript, e) }
	for i, u := range ups {
		if i == cut {
			snap, err := track.SnapshotSite(sites[target])
			if err != nil {
				t.Fatalf("snapshot at %d: %v", cut, err)
			}
			_, fresh := build()
			if err := track.RestoreSite(fresh[target], snap); err != nil {
				t.Fatalf("restore at %d: %v", cut, err)
			}
			rt.ReplaceSite(target, fresh[target])
		}
		rt.Step(u)
		out.ests = append(out.ests, rt.Estimate())
	}
	flush()
	out.stats = rt.Stats()
	return out
}

func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	const k, n, target = 4, 24_000, 2
	builders := map[string]func() (dist.CoordAlgo, []dist.SiteAlgo){
		"det":  func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewDeterministic(k, 0.1) },
		"rand": func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewRandomized(k, 0.1, 9) },
		"freq": func() (dist.CoordAlgo, []dist.SiteAlgo) {
			tr, sites := freq.New(k, 0.1, freq.ExactMapper{})
			return tr, sites
		},
		"threshold": func() (dist.CoordAlgo, []dist.SiteAlgo) {
			m, sites := track.NewThresholdMonitor(k, 0.3, 2_000)
			return m, sites
		},
	}
	models := map[string]*dist.NetModel{
		"sim":     nil,
		"zero":    {},
		"latency": {Latency: 5, Jitter: 3},
		"faulty":  {Latency: 3, Jitter: 5, Reorder: 4, Drop: 0.1, Retrans: 2},
	}
	ups := stream.Collect(stream.NewAssign(
		stream.NewItemGen(n, 512, 1.2, 0.2, 8), stream.NewSkewed(k, 1.3, 5)))
	cuts := []int{n / 3, n / 2, 3 * n / 4}
	for bname, build := range builders {
		for mname, model := range models {
			want := driveSnap(t, build, model, ups, -1, target)
			for _, cut := range cuts {
				got := driveSnap(t, build, model, ups, cut, target)
				if got.stats != want.stats {
					t.Fatalf("%s/%s cut=%d: stats %+v, want %+v",
						bname, mname, cut, got.stats, want.stats)
				}
				if !reflect.DeepEqual(got.ests, want.ests) {
					t.Fatalf("%s/%s cut=%d: per-step estimates diverge", bname, mname, cut)
				}
				if !reflect.DeepEqual(got.transcript, want.transcript) {
					t.Fatalf("%s/%s cut=%d: transcripts diverge (%d vs %d entries)",
						bname, mname, cut, len(got.transcript), len(want.transcript))
				}
			}
		}
	}
}

// TestSnapshotIntegrity pins the blob's self-verification: bit flips and
// truncation are caught, a blob restored into the wrong algorithm shape is
// rejected, and SnapshotHash matches what RestoreSite verifies.
func TestSnapshotIntegrity(t *testing.T) {
	const k = 3
	coord, sites := track.NewDeterministic(k, 0.1)
	sim := dist.NewSim(coord, sites)
	st := stream.NewAssign(stream.RandomWalk(5_000, 3), stream.NewRoundRobin(k))
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
	}
	snap, err := track.SnapshotSite(sites[1])
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if track.SnapshotHash(snap) == 0 {
		t.Fatalf("snapshot hash is zero")
	}

	_, fresh := track.NewDeterministic(k, 0.1)
	if err := track.RestoreSite(fresh[1], snap); err != nil {
		t.Fatalf("clean restore failed: %v", err)
	}

	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x40
	_, fresh = track.NewDeterministic(k, 0.1)
	if err := track.RestoreSite(fresh[1], flipped); err == nil {
		t.Fatalf("bit flip went undetected")
	}

	_, fresh = track.NewDeterministic(k, 0.1)
	if err := track.RestoreSite(fresh[1], snap[:len(snap)-3]); err == nil {
		t.Fatalf("truncation went undetected")
	}

	_, wrong := freq.New(k, 0.1, freq.ExactMapper{})
	if err := track.RestoreSite(wrong[1], snap); err == nil {
		t.Fatalf("deterministic blob restored into a frequency site")
	}
}

// discard is an Outbox that drops every message.
type discard struct{}

func (discard) Send(dist.Msg)        {}
func (discard) SendTo(int, dist.Msg) {}
func (discard) Broadcast(dist.Msg)   {}

// TestBlockSiteRestoreAfterNewBlockExponent: every state a message can
// leave a site in must be one its own snapshot restores from, or a warm
// takeover of that site fails. A KindNewBlock broadcast carries the block
// exponent A; restore accepts r in [0, 61] (blockExponent(MaxInt64, 1)),
// so a site handed an exponent outside that range must refuse the message
// and keep its state, while one inside it is adopted and restores.
func TestBlockSiteRestoreAfterNewBlockExponent(t *testing.T) {
	const k = 3
	builds := map[string]func() []dist.SiteAlgo{
		"det":  func() []dist.SiteAlgo { _, s := track.NewDeterministic(k, 0.1); return s },
		"rand": func() []dist.SiteAlgo { _, s := track.NewRandomized(k, 0.1, 5); return s },
		"freq": func() []dist.SiteAlgo { _, s := freq.New(k, 0.1, freq.ExactMapper{}); return s },
		"threshold": func() []dist.SiteAlgo {
			_, s := track.NewThresholdMonitor(k, 0.1, 100)
			return s
		},
	}
	for name, build := range builds {
		for _, a := range []int64{-1, 0, 3, 61, 62, 5000} {
			site := build()[1]
			before, err := track.SnapshotSite(site)
			if err != nil {
				t.Fatalf("%s A=%d: snapshot: %v", name, a, err)
			}
			site.OnMessage(dist.Msg{Kind: dist.KindNewBlock, Site: dist.CoordID, Item: 2, A: a}, discard{})
			blob, err := track.SnapshotSite(site)
			if err != nil {
				t.Fatalf("%s A=%d: snapshot after the broadcast: %v", name, a, err)
			}
			if err := track.RestoreSite(build()[1], blob); err != nil {
				t.Errorf("%s A=%d: the site's own snapshot does not restore: %v", name, a, err)
			}
			if refused := a < 0 || a > 61; refused != reflect.DeepEqual(blob, before) {
				t.Errorf("%s A=%d: state changed %v, want %v", name, a, !reflect.DeepEqual(blob, before), !refused)
			}
		}
	}
}
