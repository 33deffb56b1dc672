// Package itemtab is the per-item counter table of the protocol hot paths:
// an open-addressed hash table keyed by uint64 with values stored inline.
//
// It holds counters touched once per update or per message. A slot is a key
// and its value side by side, so an update is one probe run over contiguous
// memory with no per-entry heap object. The table uses linear probing from a
// fixed multiplicative (Fibonacci) hash, grows by doubling before its load
// passes 3/4, and deletes by backward shift, so no tombstones accumulate
// under insert/delete churn.
//
// Slots store keys inverted (^k), which makes a zeroed slot a free one with
// no separate occupancy flag; the single key whose inversion is zero,
// ^uint64(0), is kept outside the slot array.
//
// Iteration (Range) visits that key first, then walks the slot array.
// Because the hash is fixed and there is no per-process seed, the order is a
// pure function of the insertion and deletion history: equal histories
// iterate equally in every run. Emission that must not depend on history at
// all still sorts (SortedKeys).
//
// The fixed hash gives up the resistance Go maps have to hash flooding: keys
// crafted to share a home slot degrade probes to linear scans. Keys here are
// item ids and sketch cells of the monitored stream.
package itemtab

import (
	"math/bits"
	"slices"
)

// minSlots is the slot count a table gets on first insert.
const minSlots = 8

// fib is 2^64/φ, the Fibonacci-hashing multiplier: consecutive keys land far
// apart, and the top bits of the product are well mixed.
const fib = 0x9E3779B97F4A7C15

// maxKey is the key kept out of band: its inversion marks a free slot.
const maxKey = ^uint64(0)

type slot[V any] struct {
	inv uint64 // ^key; 0 marks a free slot
	val V
}

// Table maps uint64 keys to inline values of type V. The zero Table is empty
// and ready to use. A Table must not be copied after first use.
type Table[V any] struct {
	slots []slot[V]
	n     int  // keys held in slots
	shift uint // 64 − log2(len(slots)): home(k) = k·fib >> shift

	hasMax bool // maxKey is present, with value maxVal
	maxVal V

	doomed []uint64 // Doom's reusable deletion queue
}

// home returns k's home slot.
func (t *Table[V]) home(k uint64) int { return int((k * fib) >> t.shift) }

// find returns the slot holding k (k ≠ maxKey), or −1.
func (t *Table[V]) find(k uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].inv {
		case ^k:
			return i
		case 0:
			return -1
		}
	}
}

// Upsert returns a pointer to k's value, inserting a zero value first when k
// is absent. The pointer is valid until the next Upsert, Delete or Clear.
func (t *Table[V]) Upsert(k uint64) *V {
	if k == maxKey {
		t.hasMax = true
		return &t.maxVal
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.inv == ^k {
			return &s.val
		}
		if s.inv == 0 {
			s.inv = ^k
			t.n++
			return &s.val
		}
	}
}

// Get returns k's value and whether k is present.
func (t *Table[V]) Get(k uint64) (V, bool) {
	if k == maxKey {
		return t.maxVal, t.hasMax
	}
	if i := t.find(k); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Delete removes k and reports whether it was present. Entries after the
// freed slot in its probe run shift back into it, so lookups never need
// tombstones.
func (t *Table[V]) Delete(k uint64) bool {
	if k == maxKey {
		was := t.hasMax
		var zero V
		t.hasMax, t.maxVal = false, zero
		return was
	}
	i := t.find(k)
	if i < 0 {
		return false
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].inv != 0; j = (j + 1) & mask {
		// The entry at j may move back to i only if i lies on its probe
		// path: its distance from home is at least the distance from i.
		if (j-t.home(^t.slots[j].inv))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.n--
	return true
}

// Len returns the number of keys.
func (t *Table[V]) Len() int {
	if t.hasMax {
		return t.n + 1
	}
	return t.n
}

// Clear removes every key, keeping the allocated slots.
func (t *Table[V]) Clear() {
	if t.n > 0 {
		clear(t.slots)
		t.n = 0
	}
	var zero V
	t.hasMax, t.maxVal = false, zero
}

// Range calls yield for each key and a pointer to its value until yield
// returns false. Values may be modified through the pointer; keys must not
// be inserted or deleted during the walk. Range is an iterator:
//
//	for k, v := range t.Range { ... }
func (t *Table[V]) Range(yield func(uint64, *V) bool) {
	if t.hasMax && !yield(maxKey, &t.maxVal) {
		return
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.inv != 0 && !yield(^s.inv, &s.val) {
			return
		}
	}
}

// Slots returns the number of cursor positions Slot walks.
func (t *Table[V]) Slots() int { return len(t.slots) + 1 }

// Slot returns the key and value at cursor position i: the slots in order,
// then the out-of-band key (a nil value when absent). A free slot yields
// the zero V, which the caller must leave zero, and a meaningless key, so
// a walk that acts only on nonzero values needs no occupancy branch. Keys
// must not be inserted or deleted during the walk (Doom defers deletions).
func (t *Table[V]) Slot(i int) (uint64, *V) {
	if i < len(t.slots) {
		s := &t.slots[i]
		return ^s.inv, &s.val
	}
	if t.hasMax {
		return maxKey, &t.maxVal
	}
	return maxKey, nil
}

// Sweep calls visit for each key and a pointer to its value, in Range
// order, then deletes the keys for which visit returned false. The
// deletions wait until after the walk (a backward shift mid-walk would move
// entries past the cursor), queued in a scratch slice the table reuses.
func (t *Table[V]) Sweep(visit func(uint64, *V) bool) {
	for k, v := range t.Range {
		if !visit(k, v) {
			t.Doom(k)
		}
	}
	t.Purge()
}

// Doom queues k for deletion by the next Purge, so a walk can delete the
// keys it visits once it is done.
func (t *Table[V]) Doom(k uint64) { t.doomed = append(t.doomed, k) }

// Purge deletes the keys Doom queued.
func (t *Table[V]) Purge() {
	for _, k := range t.doomed {
		t.Delete(k)
	}
	t.doomed = t.doomed[:0]
}

// SortedKeys appends every key to dst[:0] in increasing order and returns
// the result.
func (t *Table[V]) SortedKeys(dst []uint64) []uint64 {
	dst = dst[:0]
	for k := range t.Range {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// grow doubles the slot array (or allocates the first one) and reinserts the
// entries in old slot order.
func (t *Table[V]) grow() {
	old := t.slots
	size := max(2*len(old), minSlots)
	t.slots = make([]slot[V], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.inv == 0 {
			continue
		}
		i := t.home(^s.inv)
		for t.slots[i].inv != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
