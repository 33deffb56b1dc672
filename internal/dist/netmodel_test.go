package dist_test

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/track"
)

// TestNetModelRejectsNaNDrop: a NaN loss probability used to pass both the
// parser and NewAsyncSim, and the run was silently lossless (no draw is
// ever below NaN) while String dropped the key.
func TestNetModelRejectsNaNDrop(t *testing.T) {
	for _, s := range []string{"latency=2,drop=NaN,retrans=3", "drop=nan", "drop=-NaN", "drop=+Inf"} {
		if m, err := dist.ParseNetModel(s); err == nil {
			t.Errorf("ParseNetModel(%q) = %+v, want an out-of-range error", s, m)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewAsyncSim accepted Drop = NaN")
		}
	}()
	coord, sites := track.NewDeterministic(2, 0.1)
	dist.NewAsyncSim(coord, sites, dist.NetModel{Drop: math.NaN(), Retrans: 3}, 1)
}

// TestNetModelRejectsClockOverflow: durations large enough to wrap the
// virtual clock used to be accepted. A huge latency wrapped now+Latency
// negative, the clamp pulled every delivery to the send tick, and the run
// was a silently perfect network; a huge jitter panicked in the RNG on the
// first send; a huge gap wrapped the arrival tick T·Gap().
func TestNetModelRejectsClockOverflow(t *testing.T) {
	const max = "9223372036854775807"
	for _, s := range []string{
		"latency=" + max, "jitter=" + max, "gap=" + max, "reorder=" + max,
		"rto=" + max, "hb=" + max, "latency=4294967297", "jitter=4294967297,retrans=3",
	} {
		if m, err := dist.ParseNetModel(s); err == nil {
			t.Errorf("ParseNetModel(%q) = %+v, want an out-of-range error", s, m)
		}
	}
	at := "latency=4294967296,jitter=4294967296,reorder=4294967296,rto=4294967296,gap=4294967296,hb=4294967296"
	if _, err := dist.ParseNetModel(at); err != nil {
		t.Errorf("ParseNetModel(%q) = %v, want the limit itself accepted", at, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewAsyncSim accepted Jitter = MaxInt64")
		}
	}()
	coord, sites := track.NewDeterministic(2, 0.1)
	dist.NewAsyncSim(coord, sites, dist.NetModel{Jitter: math.MaxInt64}, 1)
}

// FuzzParseNetModel: the -net parser never panics, and every model it
// accepts re-parses from its String to an equal model (UpdateGap 0 and 1
// both mean the default spacing, so String folds them).
func FuzzParseNetModel(f *testing.F) {
	for _, s := range []string{
		"", "latency=8,jitter=2,drop=0.01,retrans=3,hb=4",
		"latency=2,drop=0.01,retrans=3,hb=8", "latency=2,drop=NaN,retrans=3",
		"latency=3,jitter=5,reorder=4,drop=0.1,rto=9,retrans=2,gap=4,hb=64,hbmiss=3",
		"crashat=10,crashsite=9,hb=4", "gap=1", "drop=1", "drop=-0",
		"latency=9223372036854775807", "jitter=9223372036854775807",
		"gap=9223372036854775807", "latency=4294967296,rto=4294967297",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := dist.ParseNetModel(s)
		if err != nil {
			return
		}
		if !(m.Drop >= 0 && m.Drop <= 1) {
			t.Fatalf("ParseNetModel(%q) accepted Drop = %v", s, m.Drop)
		}
		again, err := dist.ParseNetModel(m.String())
		if err != nil {
			t.Fatalf("ParseNetModel(%q).String() = %q does not re-parse: %v", s, m.String(), err)
		}
		if m.Gap() == 1 {
			m.UpdateGap, again.UpdateGap = 0, 0
		}
		if again != m {
			t.Fatalf("ParseNetModel(%q) = %+v, but its String %q re-parses to %+v", s, m, m.String(), again)
		}
	})
}
