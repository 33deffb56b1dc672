package freq

import "repro/internal/track"

// Snap implements track.Snapshotter: the F1 drift estimator plus every
// live counter with its coordinator mirror, in sorted cell order so equal
// state yields byte-equal blobs. The mirrors matter: a restored site must
// agree with the coordinator's merged table about what has been reported,
// or its next per-counter delta lands on the wrong base.
//
// A shared site's counts are the engine site's, restored first: decoding
// checks each cell's count against its row instead of adopting it.
func (s *freqSite) Snap(c *track.Codec) error {
	if c.Decoding() && !s.shared {
		*s.rows = Rows{} // a standalone site's table holds only its cells
		s.col = s.rows.AddColumn()
	}
	c.Tag(track.SnapTagFreq)
	c.Float(&s.rows.cols[s.col].limit)
	s.f1.Snap(c)
	s.rows.Snap(c, func(r *Row) bool { _, live := s.rows.cell(r, s.col); return *live }, func(c *track.Codec, r *Row) {
		count := r.Net
		c.Int(&count)
		mirror, live := s.rows.cell(r, s.col)
		c.Int(mirror)
		*live = true
		if !s.shared {
			r.Net = count
		} else if count != r.Net {
			c.Fail("cell count differs from the site's net count")
		}
	})
	return c.Err()
}

// Snap implements track.Snapshotter for the coordinator half: the merged
// counter table in sorted cell order (so equal state yields byte-equal
// blobs) plus the per-site F1 drift estimator, sized for this
// coordinator's sites. Tracker embeds *track.BlockCoord, so the spine's
// Snap promotes and this in-block layer is all the freq package
// contributes.
func (c *freqCoord) Snap(cd *track.Codec) error {
	cd.Tag(track.SnapTagFreqCoord)
	track.SnapTable(cd, &c.est, (*track.Codec).Int)
	c.f1.Snap(cd)
	return cd.Err()
}
