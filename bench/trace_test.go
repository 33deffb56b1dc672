package main

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/freq"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/track"
)

// TestTracedMatchesUntraced feeds each in-process workload's tiny segment
// to an untraced and a traced deployment: Stats, per-query Stats, final
// estimates, block counts and the whole estimate trajectory must be
// identical, so the wrappers time the same program they stand in for.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		if w.closed == nil {
			continue // TCP delivery order depends on timing
		}
		sp := w.closed()
		ups := make([]stream.Update, 1<<12)
		stream.NextBatch(sp.input(len(ups), 3), ups)
		var s samples
		ref, _ := driveChunk(sp, ups, 3, nil, &s)
		traced, _ := driveChunk(sp, ups, 3, newTracer().lane(), &s)
		if len(ref.problems) > 0 || len(traced.problems) > 0 {
			t.Errorf("%s: failed checks: untraced %v, traced %v", w.name, ref.problems, traced.problems)
		}
		if err := traced.same(ref); err != nil {
			t.Errorf("%s: traced run differs: %v", w.name, err)
		}
		if ref.stats.Total() == 0 {
			t.Errorf("%s: no messages; the comparison checks nothing", w.name)
		}
	}
}

// optional lists every optional dist interface an algorithm half can
// implement, so a wrapper's set can be compared with its inner value's.
func optional(v any) []bool {
	_, a := v.(dist.BatchSiteAlgo)
	_, b := v.(dist.SiteRejoiner)
	_, c := v.(dist.SiteTakeover)
	_, d := v.(dist.CoordRejoiner)
	_, e := v.(dist.CoordFailureHandler)
	_, f := v.(dist.CoordRecoverHandler)
	_, g := v.(dist.CoordTakeoverHandler)
	_, h := v.(dist.CoordTakeover)
	return []bool{a, b, c, d, e, f, g, h}
}

// TestWrapperShapes wraps both halves of every algorithm family in the
// repository and checks that each wrapper implements exactly the optional
// interfaces of its inner value, and never a snapshot interface: snapshots
// are taken of the inner value.
func TestWrapperShapes(t *testing.T) {
	const k = 4
	type build func() (dist.CoordAlgo, []dist.SiteAlgo)
	families := map[string]build{
		"single":    func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewSingleSite(0.1) },
		"threshold": func() (dist.CoordAlgo, []dist.SiteAlgo) { return track.NewThresholdMonitor(k, 0.1, 100) },
		"freq": func() (dist.CoordAlgo, []dist.SiteAlgo) {
			return freq.New(k, 0.1, freq.ExactMapper{})
		},
		"freq-sampled": func() (dist.CoordAlgo, []dist.SiteAlgo) {
			return freq.NewSampled(k, 0.1, freq.ExactMapper{}, 1)
		},
		"rank": func() (dist.CoordAlgo, []dist.SiteAlgo) { return freq.NewDyadicRank(k, 0.1, 8) },
		"query": func() (dist.CoordAlgo, []dist.SiteAlgo) {
			specs, err := query.ParseSpecs(engineSpecs)
			if err != nil {
				t.Fatal(err)
			}
			c, s, err := query.New(k, specs)
			if err != nil {
				t.Fatal(err)
			}
			return c, s
		},
	}
	for name, b := range track.Builders() {
		families[name] = func() (dist.CoordAlgo, []dist.SiteAlgo) { return b(k, 0.1, 1) }
	}
	l := newTracer().lane()
	for name, b := range families {
		coord, sites := b()
		wc, ws := wrapCoord(coord, l), wrapSite(sites[0], l, l)
		for _, pair := range [][2]any{{coord, wc}, {sites[0], ws}} {
			inner, wrapped := pair[0], pair[1]
			want, got := optional(inner), optional(wrapped)
			for i := range want {
				if want[i] != got[i] {
					t.Errorf("%s: %T wrapped as %T: optional interfaces %v, inner %v", name, inner, wrapped, got, want)
					break
				}
			}
			if _, err := track.SnapshotSite(wrapped); err == nil {
				t.Errorf("%s: the wrapper of %T can be snapshotted", name, inner)
			}
			if _, err := track.SnapshotCoord(wrapped); err == nil {
				t.Errorf("%s: the wrapper of %T can be snapshotted as a coordinator", name, inner)
			}
		}
	}
}

// partialSite implements one optional interface of three, a shape no
// family in the repository has.
type partialSite struct{ dist.SiteAlgo }

func (partialSite) OnRejoin(dist.Outbox) {}

func TestWrapperRefusesUnknownShape(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "no timing wrapper") {
			t.Fatalf("wrapping a partial shape: recovered %v, want a refusal", r)
		}
	}()
	_, sites := track.NewNaive(2)
	wrapSite(partialSite{sites[0]}, newTracer().lane(), nil)
}
