package repro

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/freq"
	"repro/internal/quantile"
	"repro/internal/sketch"
	"repro/internal/track"
)

// TestConstructorsRejectNaNEps calls every constructor that takes an error
// parameter ε with NaN and expects its usual "0 < eps < 1" panic. A guard
// written as eps <= 0 || eps >= 1 is false for NaN on both sides, so it
// used to let NaN through.
func TestConstructorsRejectNaNEps(t *testing.T) {
	nan := math.NaN()
	for name, build := range map[string]func(){
		"track.NewDeterministic":     func() { track.NewDeterministic(4, nan) },
		"track.NewRandomized":        func() { track.NewRandomized(4, nan, 1) },
		"track.NewSingleSite":        func() { track.NewSingleSite(nan) },
		"track.NewThresholdMonitor":  func() { track.NewThresholdMonitor(4, nan, 100) },
		"track.NewCMY":               func() { track.NewCMY(4, nan) },
		"track.NewHYZ":               func() { track.NewHYZ(4, nan, 1) },
		"track.NewLRV":               func() { track.NewLRV(4, nan, 1) },
		"freq.New":                   func() { freq.New(4, nan, freq.NewDyadicMapper(8)) },
		"freq.NewDyadicRank":         func() { freq.NewDyadicRank(4, nan, 8) },
		"freq.NewSampled":            func() { freq.NewSampled(4, nan, freq.NewDyadicMapper(8), 1) },
		"sketch.NewCountMinForError": func() { sketch.NewCountMinForError(nan, 4, 1) },
		"sketch.NewCRPrecisForError": func() { sketch.NewCRPrecisForError(nan, 16) },
		"quantile.NewGK":             func() { quantile.NewGK(nan) },
		"quantile.NewHistory":        func() { quantile.NewHistory(nan, 64) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "0 < eps < 1") {
					t.Fatalf("%s(ε = NaN): got panic %q, want the 0 < eps < 1 rejection", name, msg)
				}
			}()
			build()
		})
	}
}
