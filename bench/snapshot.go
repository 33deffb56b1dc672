package main

import (
	"time"

	"repro/internal/dist"
	"repro/internal/track"
)

// snapSamples collects checkpoint sizes and times. Every workload
// checkpoints a quiescent deployment after each chunk, outside the timed
// part: the coordinator and every site are snapshotted, and each blob is
// restored into a freshly built tracker.
type snapSamples struct {
	siteBytes, coordBytes      []float64
	siteUs, coordUs, restoreUs []float64
}

// checkpoint snapshots the halves live returns (the inner algorithms,
// never timing wrappers) and restores the blobs into the halves fresh
// builds.
func (s *snapSamples) checkpoint(live, fresh func() (dist.CoordAlgo, []dist.SiteAlgo)) error {
	coord, sites := live()
	fc, fs := fresh()
	t0 := time.Now()
	blob, err := track.SnapshotCoord(coord)
	if err != nil {
		return err
	}
	s.coordUs = append(s.coordUs, us(time.Since(t0)))
	s.coordBytes = append(s.coordBytes, float64(len(blob)))
	t0 = time.Now()
	if err := track.RestoreCoord(fc, blob); err != nil {
		return err
	}
	s.restoreUs = append(s.restoreUs, us(time.Since(t0)))
	for i, site := range sites {
		t0 = time.Now()
		blob, err := track.SnapshotSite(site)
		if err != nil {
			return err
		}
		s.siteUs = append(s.siteUs, us(time.Since(t0)))
		s.siteBytes = append(s.siteBytes, float64(len(blob)))
		t0 = time.Now()
		if err := track.RestoreSite(fs[i], blob); err != nil {
			return err
		}
		s.restoreUs = append(s.restoreUs, us(time.Since(t0)))
	}
	return nil
}

func (s *snapSamples) values(vals map[string]float64) {
	vals["track.snapshot.site_bytes"] = mean(s.siteBytes)
	vals["track.snapshot.site_us"] = median(s.siteUs)
	vals["track.snapshot.coord_bytes"] = mean(s.coordBytes)
	vals["track.snapshot.coord_us"] = median(s.coordUs)
	vals["track.restore_us"] = median(s.restoreUs)
}
