package track

import (
	"repro/internal/dist"
)

// This file implements the original thresholded monitoring problem
// (k, f, τ, ε) that section 2 of the paper recalls from Cormode et al.: at
// any time, the coordinator must be able to decide "f(D) ≥ τ" versus
// "f(D) ≤ (1−ε)τ" (inputs between the two thresholds may be answered either
// way). Continuous ε-relative tracking is strictly stronger, so the monitor
// is a thin wrapper: run any tracker with ε' = ε/3 and compare the estimate
// against τ·(1−ε').
//
// Correctness: if f ≥ τ then f̂ ≥ f(1−ε') ≥ τ(1−ε') and the monitor says
// Above; if f ≤ (1−ε)τ then f̂ ≤ (1−ε)(1+ε')τ < τ(1−ε') for ε' = ε/3, and
// it says Below.

// ThresholdState is the monitor's answer.
type ThresholdState int

const (
	// Below means the monitor asserts f(D) ≤ (1−ε)·τ is consistent.
	Below ThresholdState = iota
	// Above means the monitor asserts f(D) ≥ τ is consistent.
	Above
)

// String renders the state.
func (s ThresholdState) String() string {
	if s == Above {
		return "above"
	}
	return "below"
}

// ThresholdMonitor is the deterministic tracker plus the τ comparison: it
// embeds the tracker's block partitioner, so the protocol, the fault hooks
// and the snapshot hash are the tracker's own.
type ThresholdMonitor struct {
	*BlockCoord
	tau     int64   //varlint:volatile construction constant; the τ comparison is not tracker state
	trigger float64 //varlint:volatile construction constant, τ·(1−ε')
}

// NewThresholdMonitor builds a deterministic (k, f, τ, ε) monitor. It
// returns the monitor plus the site algorithms to deploy. It panics unless
// τ ≥ 1 and 0 < eps < 1.
func NewThresholdMonitor(k int, eps float64, tau int64) (*ThresholdMonitor, []dist.SiteAlgo) {
	if tau < 1 {
		panic("track: NewThresholdMonitor needs tau >= 1")
	}
	if !(eps > 0 && eps < 1) {
		panic("track: NewThresholdMonitor needs 0 < eps < 1")
	}
	epsTrack := eps / 3
	coord, sites := newDeterministic(k, epsTrack)
	return &ThresholdMonitor{BlockCoord: coord, tau: tau, trigger: float64(tau) * (1 - epsTrack)}, sites
}

// State answers the thresholded query.
func (m *ThresholdMonitor) State() ThresholdState {
	if float64(m.Estimate()) >= m.trigger {
		return Above
	}
	return Below
}

// Tau returns the threshold.
func (m *ThresholdMonitor) Tau() int64 { return m.tau }
