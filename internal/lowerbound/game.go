package lowerbound

import (
	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// singleTrackerGame bundles the k = 1 deterministic tracker, its simulator,
// and a transcript summary — the Alice side of the Index reductions.
type singleTrackerGame struct {
	sim     *dist.AsyncSim
	summary *TranscriptSummary
	now     int64
}

func newSingleTrackerGame(eps float64) *singleTrackerGame {
	coord, sites := track.NewDeterministic(1, eps)
	g := &singleTrackerGame{
		sim: dist.NewSim(coord, sites),
		summary: NewTranscriptSummary(func() dist.CoordAlgo {
			c, _ := track.NewDeterministic(1, eps)
			return c
		}),
	}
	g.sim.Recorder = g.summary.Recorder()
	return g
}

// step feeds one ±1 update.
func (g *singleTrackerGame) step(delta int64) {
	g.now++
	g.sim.Step(stream.Update{T: g.now, Site: 0, Delta: delta})
}
