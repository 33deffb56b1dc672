package freq

import "repro/internal/track"

// Snap implements track.Snapshotter: the F1 drift estimator plus every
// live counter with its coordinator mirror, in sorted cell order so equal
// state yields byte-equal blobs. The mirrors matter: a restored site must
// agree with the coordinator's merged table about what has been reported,
// or its next per-counter delta lands on the wrong base.
func (s *freqSite) Snap(c *track.Codec) error {
	c.Tag(track.SnapTagFreq)
	c.Float(&s.cellThresh)
	c.Float(&s.f1Thresh)
	c.Int(&s.f1Drift)
	c.Int(&s.f1Delta)
	track.SnapTable(c, &s.cells, func(c *track.Codec, st *cellState) {
		c.Int(&st.count)
		c.Int(&st.mirror)
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
	cd.Fixed(len(c.f1Dhat), "freq coordinator site count")
	for i := range c.f1Dhat {
		cd.Int(&c.f1Dhat[i])
	}
	cd.Int(&c.f1Sum)
	return cd.Err()
}
