package query

// NumChildren returns the length of the site's child table, for tests that
// bound its growth by the registry.
func (s *Site) NumChildren() int { return len(s.children) }

// PendingRuns returns how many of the site's children hold a pending run
// of absorbed updates, for tests that must not pass vacuously.
func (s *Site) PendingRuns() int {
	n := 0
	for _, ch := range s.children {
		if ch != nil && ch.n > 0 {
			n++
		}
	}
	return n
}
