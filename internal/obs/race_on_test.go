//go:build race

package obs_test

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// items at random, so pooled paths allocate.
const raceEnabled = true
