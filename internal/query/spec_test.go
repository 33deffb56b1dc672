package query_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/query"
)

// TestSpecRejectsNonFiniteEps: NaN fails both halves of an "eps <= 0 ||
// eps >= 1" guard, so only a positive test for 0 < eps < 1 rejects it.
// Every entry point that builds a query must refuse it.
func TestSpecRejectsNonFiniteEps(t *testing.T) {
	for _, s := range []string{"det,eps=NaN", "rand,eps=nan", "freq,eps=+Inf", "det,eps=-Inf",
		"threshold,eps=NaN,tau=5", "det,eps=0.1;det,eps=NaN"} {
		if _, err := query.ParseSpecs(s); err == nil {
			t.Errorf("ParseSpecs(%q) accepted", s)
		}
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1} {
		if _, _, err := query.New(3, []query.Spec{{Algo: "det", Eps: eps}}); err == nil {
			t.Errorf("New accepted eps=%g", eps)
		}
	}
}

// FuzzParseSpecs: the query-plan parser reads operator input, so on any
// string it must not panic, and whatever it accepts must build — a valid
// spec with a finite ε in (0, 1) and a callable filter.
func FuzzParseSpecs(f *testing.F) {
	for _, s := range []string{
		mixedSpecs,
		"det,eps=0.1;freq,eps=0.2,filter=even;rand,eps=0.1,at=2500",
		"det,eps=0.1;rand,eps=0.1;det,eps=0.05,at=5000",
		"det,eps=NaN",
		"threshold,eps=0.1,tau=500,name=alarm;det,eps=0.1,filter=item:7",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := query.ParseSpecs(s)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatalf("ParseSpecs(%q) accepted an empty plan", s)
		}
		for _, sp := range specs {
			if err := sp.Validate(); err != nil {
				t.Fatalf("ParseSpecs(%q) accepted an invalid spec: %v", s, err)
			}
			if !(sp.Eps > 0 && sp.Eps < 1) {
				t.Fatalf("ParseSpecs(%q) accepted eps=%g", s, sp.Eps)
			}
			if sp.Filter != nil {
				if sp.Filter.Match == nil || !strings.Contains(s, sp.Filter.Name) {
					t.Fatalf("ParseSpecs(%q) built a broken filter %+v", s, sp.Filter)
				}
				for _, item := range []uint64{0, 1, 2, 1 << 32, math.MaxUint64} {
					sp.Filter.Match(item)
				}
			}
		}
	})
}
