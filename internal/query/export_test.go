package query

// NumChildren returns the length of the site's child table, for tests that
// bound its growth by the registry.
func (s *Site) NumChildren() int { return len(s.children) }
