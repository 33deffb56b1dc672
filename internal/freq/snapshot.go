package freq

import "repro/internal/track"

// Snap implements track.Snapshotter: the F1 drift estimator plus every
// live counter with its coordinator mirror, in sorted cell order so equal
// state yields byte-equal blobs. The mirrors matter: a restored site must
// agree with the coordinator's merged table about what has been reported,
// or its next per-counter delta lands on the wrong base. The cell limit is
// the block's, set by Reset before Snap decodes.
//
// A shared site's counts are the engine site's spine, restored first, so
// its cells code only their mirrors.
func (s *freqSite) Snap(c *track.Codec) error {
	if c.Decoding() && !s.shared {
		s.rows.tab.Clear() // a standalone site's table holds only its cells
	}
	c.Tag(track.SnapTagFreq)
	s.f1.Snap(c)
	s.rows.Snap(c, func(r *Row) bool { _, live := s.rows.cell(r, s.col); return *live }, func(c *track.Codec, r *Row) {
		if !s.shared {
			c.Int(&r.Net)
		}
		mirror, live := s.rows.cell(r, s.col)
		c.Int(mirror)
		*live = true
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
