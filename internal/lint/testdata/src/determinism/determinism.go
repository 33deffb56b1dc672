// Package determinism is the golden fixture for the determinism pass:
// wall-clock reads, global math/rand draws, and map iterations whose
// bodies emit directly, through a helper, through an emitting method,
// through the transcript hook, or by writing a snapshot — plus the audited
// and genuinely order-insensitive counterparts of each.
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

// Msg is the fixture protocol message.
type Msg struct {
	Item uint64
	A    int64
}

// Outbox matches the configured emission surface by name suffix.
type Outbox interface {
	Send(m Msg)
}

// State is per-site counter state.
type State struct {
	cells map[uint64]int64
	now   int64
}

// Clock reads the wall clock without an audit.
func (s *State) Clock() {
	s.now = time.Now().UnixNano() // want "time.Now in a deterministic package"
}

// ClockAudited reads the wall clock with an audit reason.
func (s *State) ClockAudited() int64 {
	return time.Now().UnixNano() //varlint:wallclock fixture: diagnostics only
}

// Draw uses the global math/rand state, which no annotation can excuse.
func Draw() int64 {
	return rand.Int63() // want "global math/rand.Int63"
}

// DrawSeeded uses an explicit, seeded source: reproducible, allowed.
func DrawSeeded(seed int64) int64 {
	return rand.New(rand.NewSource(seed)).Int63()
}

// Flush emits straight out of map order.
func (s *State) Flush(out Outbox) {
	for c, n := range s.cells { // want "map iteration order reaches Send"
		out.Send(Msg{Item: c, A: n})
	}
}

// FlushHelper hands the outbox to a helper inside the range.
func (s *State) FlushHelper(out Outbox) {
	for c, n := range s.cells { // want "map iteration order reaches a call that receives an Outbox"
		emit(out, c, n)
	}
}

func emit(out Outbox, c uint64, n int64) {
	out.Send(Msg{Item: c, A: n})
}

// sink owns an outbox; push emits without taking one as an argument, so
// only the transitive emit closure can see it.
type sink struct {
	out Outbox
}

func (k *sink) push(c uint64, n int64) {
	k.out.Send(Msg{Item: c, A: n})
}

// FlushMethod emits through the emitting method of a held sink.
func (s *State) FlushMethod(k *sink) {
	for c, n := range s.cells { // want "map iteration order reaches an emission inside push"
		k.push(c, n)
	}
}

// Snapshotter writes its state into a snapshot.
type Snapshotter interface {
	Snap(dst *[]int64) error
}

// Checkpoint writes one snapshot section per part in map order.
func (s *State) Checkpoint(dst *[]int64, parts map[uint64]Snapshotter) {
	for _, x := range parts { // want "map iteration order reaches Snap"
		x.Snap(dst)
	}
}

// Sim carries the transcript hook under its configured name.
type Sim struct {
	Recorder func(Msg)
	cells    map[uint64]int64
}

// Record appends to the transcript in map order.
func (s *Sim) Record() {
	for c, n := range s.cells { // want "map iteration order reaches the Recorder transcript hook"
		s.Recorder(Msg{Item: c, A: n})
	}
}

// FlushSorted iterates a sorted key slice before emitting: the range that
// touches the map never emits.
func (s *State) FlushSorted(out Outbox) {
	keys := make([]uint64, 0, len(s.cells))
	for c := range s.cells {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, c := range keys {
		out.Send(Msg{Item: c, A: s.cells[c]})
	}
}

// Total folds the map commutatively without emitting: no finding.
func (s *State) Total() int64 {
	var t int64
	for _, n := range s.cells {
		t += n
	}
	return t
}

// FlushAudited emits from map order under an audit reason.
func (s *State) FlushAudited(out Outbox) {
	//varlint:unordered fixture: the coordinator folds these commutatively
	for c, n := range s.cells {
		out.Send(Msg{Item: c, A: n})
	}
}
