package itemtab

import (
	"maps"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// homeAt is the home slot of k in a table of size slots.
func homeAt(k uint64, size int) int {
	return int((k * fib) >> (64 - bits.TrailingZeros(uint(size))))
}

// keyPool is the fuzz and property key universe: small ids, ids far apart,
// the out-of-band key, and for each of the first few table sizes a run of
// keys that all share the last home slot, so their probe runs collide and
// wrap past the end of the slot array.
func keyPool() []uint64 {
	var pool []uint64
	for k := uint64(0); k < 64; k++ {
		pool = append(pool, k, 1<<63|k*0x1000193)
	}
	pool = append(pool, maxKey, maxKey-1) // the out-of-band key and a neighbour
	for size := minSlots; size <= 64; size *= 2 {
		found := 0
		for k := uint64(0); found < 32; k++ {
			if homeAt(k, size) == size-1 {
				pool = append(pool, k)
				found++
			}
		}
	}
	return pool
}

// checkModel compares the table with its reference map: Len, a lookup of
// every model key, and a Range that visits each live key exactly once with
// the model's value.
func checkModel(t *testing.T, tab *Table[int64], model map[uint64]int64, step int) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("step %d: Len %d, model has %d", step, tab.Len(), len(model))
	}
	for k, want := range model {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("step %d: Get(%d) = %d,%v, want %d,true", step, k, got, ok, want)
		}
	}
	seen := make(map[uint64]bool, len(model))
	for k, v := range tab.Range {
		if seen[k] {
			t.Fatalf("step %d: Range visited %d twice", step, k)
		}
		seen[k] = true
		if want, ok := model[k]; !ok || *v != want {
			t.Fatalf("step %d: Range yielded %d=%d, model has %d,%v", step, k, *v, want, ok)
		}
	}
	if len(seen) != len(model) {
		t.Fatalf("step %d: Range visited %d keys, want %d", step, len(seen), len(model))
	}
	// The slot cursor yields every key Range does, at the same value, and
	// a zero value at every other position.
	keyAt := make(map[*int64]uint64, len(model))
	for k, v := range tab.Range {
		keyAt[v] = k
	}
	for i := range tab.Slots() {
		k, v := tab.Slot(i)
		if v == nil {
			continue
		}
		want, ok := keyAt[v]
		switch {
		case ok && k != want:
			t.Fatalf("step %d: Slot(%d) has key %d, Range %d", step, i, k, want)
		case ok:
			delete(keyAt, v)
		case *v != 0:
			t.Fatalf("step %d: Slot(%d) = %d,%d, a free slot must read 0", step, i, k, *v)
		}
	}
	if len(keyAt) != 0 {
		t.Fatalf("step %d: the slot cursor missed %d keys", step, len(keyAt))
	}
}

// apply runs one operation on both the table and the model. op selects
// upsert-add, get, delete or (rarely) clear or an odd-value sweep; key
// indexes the pool.
func apply(t *testing.T, tab *Table[int64], model map[uint64]int64, op, key byte, pool []uint64, step int) {
	t.Helper()
	k := pool[int(key)%len(pool)]
	switch {
	case op == 255:
		tab.Clear()
		clear(model)
	case op == 254:
		tab.Sweep(func(_ uint64, v *int64) bool { return *v%2 == 0 })
		maps.DeleteFunc(model, func(_ uint64, v int64) bool { return v%2 != 0 })
	case op%3 == 0:
		*tab.Upsert(k) += int64(op) + 1
		model[k] += int64(op) + 1
	case op%3 == 1:
		got, ok := tab.Get(k)
		want, wok := model[k]
		if got != want || ok != wok {
			t.Fatalf("step %d: Get(%d) = %d,%v, want %d,%v", step, k, got, ok, want, wok)
		}
	default:
		_, wok := model[k]
		if ok := tab.Delete(k); ok != wok {
			t.Fatalf("step %d: Delete(%d) = %v, want %v", step, k, ok, wok)
		}
		delete(model, k)
	}
}

// TestTableModel drives random operation sequences against a map[uint64]V
// reference. Phases bias toward inserts or deletes so the table repeatedly
// grows through several sizes and drains back, putting deletes on both
// sides of each grow boundary; the key pool forces shared home slots and
// probe runs that wrap the slot array.
func TestTableModel(t *testing.T) {
	pool := keyPool()
	for seed := uint64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		var tab Table[int64]
		model := make(map[uint64]int64)
		for step := 0; step < 4000; step++ {
			op := byte(r.IntN(255))
			switch phase := (step / 500) % 2; {
			case phase == 0 && r.IntN(3) == 0:
				op = 0 // insert-heavy
			case phase == 1 && r.IntN(3) == 0:
				op = 2 // delete-heavy
			}
			switch r.IntN(1000) {
			case 0:
				op = 255
			case 1, 2:
				op = 254
			}
			apply(t, &tab, model, op, byte(r.IntN(256)), pool, step)
			if step%97 == 0 {
				checkModel(t, &tab, model, step)
			}
		}
		checkModel(t, &tab, model, -1)
	}
}

// TestTableWrapAndShift pins the backward-shift corner cases directly: a
// run of keys sharing the last home slot wraps to the front, and deleting
// from the middle, the front and the end of that run keeps every survivor
// reachable.
func TestTableWrapAndShift(t *testing.T) {
	var ks []uint64
	for k := uint64(0); len(ks) < 5; k++ {
		if homeAt(k, 16) == 15 {
			ks = append(ks, k)
		}
	}
	for del := range ks {
		var tab Table[int64]
		model := make(map[uint64]int64)
		for i := range uint64(7) { // grow to 16 slots: 8 slots hold at most 6 keys
			tab.Upsert(1<<40 + i)
		}
		for i := range uint64(7) {
			tab.Delete(1<<40 + i)
		}
		if len(tab.slots) != 16 {
			t.Fatalf("table has %d slots, want 16", len(tab.slots))
		}
		for i, k := range ks {
			*tab.Upsert(k) = int64(i + 1)
			model[k] = int64(i + 1)
		}
		tab.Delete(ks[del])
		delete(model, ks[del])
		checkModel(t, &tab, model, del)
	}
}

func TestTableSortedKeys(t *testing.T) {
	var tab Table[struct{ a, b int64 }]
	for _, k := range []uint64{9, maxKey, 3, 1 << 60, 0, 5} {
		tab.Upsert(k).a = 1
	}
	got := tab.SortedKeys(make([]uint64, 7))
	want := []uint64{0, 3, 5, 9, 1 << 60, maxKey}
	if len(got) != len(want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedKeys = %v, want %v", got, want)
		}
	}
}

// FuzzTable runs an operation sequence, two bytes per operation (operation,
// key-pool index), against the map model. The seed corpus is in
// testdata/fuzz/FuzzTable.
func FuzzTable(f *testing.F) {
	pool := keyPool()
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[int64]
		model := make(map[uint64]int64)
		for i := 0; i+1 < len(ops); i += 2 {
			apply(t, &tab, model, ops[i], ops[i+1], pool, i/2)
		}
		checkModel(t, &tab, model, len(ops)/2)
	})
}
