package freq

import "repro/internal/track"

// AppendSnapshot implements track.InBlockSnapshotter: the F1 drift
// estimator plus every live counter with its coordinator mirror, in sorted
// cell order so equal state yields byte-equal blobs. The mirrors matter: a
// restored site must agree with the coordinator's merged table about what
// has been reported, or its next per-counter delta lands on the wrong base.
func (s *freqSite) AppendSnapshot(b []byte) []byte {
	b = append(b, track.SnapTagFreq)
	b = track.AppendSnapFloat(b, s.cellThresh)
	b = track.AppendSnapFloat(b, s.f1Thresh)
	b = track.AppendSnapInt(b, s.f1Drift)
	b = track.AppendSnapInt(b, s.f1Delta)
	keys := s.cells.SortedKeys(nil)
	b = track.AppendSnapUint(b, uint64(len(keys)))
	for _, c := range keys {
		st, _ := s.cells.Get(c)
		b = track.AppendSnapUint(b, c)
		b = track.AppendSnapInt(b, st.count)
		b = track.AppendSnapInt(b, st.mirror)
	}
	return b
}

// RestoreSnapshot implements track.InBlockSnapshotter. Cells must arrive
// in strictly increasing order, as AppendSnapshot writes them: a repeated
// cell would overwrite its first entry, and the blob would not re-encode
// identically.
func (s *freqSite) RestoreSnapshot(r *track.SnapReader) {
	r.Tag(track.SnapTagFreq)
	s.cellThresh = r.Float()
	s.f1Thresh = r.Float()
	s.f1Drift = r.Int()
	s.f1Delta = r.Int()
	n := r.Uint()
	s.cells.Clear()
	for i, prev := uint64(0), uint64(0); i < n && r.Err() == nil; i++ {
		c := r.Uint()
		if i > 0 && c <= prev {
			r.Fail("freq cells not strictly increasing")
		}
		prev = c
		*s.cells.Upsert(c) = cellState{count: r.Int(), mirror: r.Int()}
	}
}

// AppendSnapshot implements track.InBlockSnapshotter for the coordinator
// half: the merged counter table in sorted cell order (so equal state
// yields byte-equal blobs) plus the per-site F1 drift estimator. Tracker
// embeds *track.BlockCoord, so the spine's coordinator snapshot methods
// promote and this in-block layer is all the freq package contributes.
func (c *freqCoord) AppendSnapshot(b []byte) []byte {
	b = append(b, track.SnapTagFreqCoord)
	keys := c.est.SortedKeys(nil)
	b = track.AppendSnapUint(b, uint64(len(keys)))
	for _, cell := range keys {
		b = track.AppendSnapUint(b, cell)
		b = track.AppendSnapInt(b, c.get(cell))
	}
	b = track.AppendSnapUint(b, uint64(len(c.f1Dhat)))
	for _, v := range c.f1Dhat {
		b = track.AppendSnapInt(b, v)
	}
	return track.AppendSnapInt(b, c.f1Sum)
}

// RestoreSnapshot implements track.InBlockSnapshotter, accepting only the
// strictly increasing cell order AppendSnapshot writes and a drift vector
// sized for this coordinator's sites.
func (c *freqCoord) RestoreSnapshot(r *track.SnapReader) {
	r.Tag(track.SnapTagFreqCoord)
	n := r.Uint()
	c.est.Clear()
	for i, prev := uint64(0), uint64(0); i < n && r.Err() == nil; i++ {
		cell := r.Uint()
		if i > 0 && cell <= prev {
			r.Fail("freq coordinator cells not strictly increasing")
		}
		prev = cell
		*c.est.Upsert(cell) = r.Int()
	}
	if m := r.Uint(); r.Err() == nil && m != uint64(len(c.f1Dhat)) {
		r.Fail("freq coordinator site count")
		return
	}
	for i := range c.f1Dhat {
		c.f1Dhat[i] = r.Int()
	}
	c.f1Sum = r.Int()
}
