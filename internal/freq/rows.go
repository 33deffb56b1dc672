package freq

import (
	"iter"
	"slices"

	"repro/internal/itemtab"
	"repro/internal/track"
)

// Rows is a per-item table of rows, each an item's net count and, in each
// frequency column, one cell: the coordinator's mirror of the count and
// whether the column holds a counter for the item. A standalone frequency
// site owns a table with one column whose rows are its counters. A query
// engine site's spine is one table, the net per-item counts a mid-stream
// attach bootstraps from, and each of its frequency queries (exact items,
// so a counter is an item) is a column of it: one probe per update serves
// them all.
//
// A row holds the cells of the first inlineCols columns itself, packed
// beside its count, so an update and a block-end sweep touch the row
// alone. The cells of further columns are the row's block of the arena,
// which stays put while rows move in the table. A row goes once its count
// is zero and no column holds a cell for it. The zero Rows is empty.
type Rows struct {
	tab    itemtab.Table[Row]
	arena  []cell   //varlint:volatile block b's cells are arena[(b−1)·x : b·x], x = len(cols) − inlineCols; each column's site codes its cells
	cols   []column //varlint:volatile restoring the sites allocates their columns again, and each site's Reset sets its limit
	free   []int32  // released blocks, with capacity for all of them
	blocks int32    //varlint:volatile blocks handed out; decoding hands them out afresh
	cur    *Row     //varlint:volatile the row the last Upsert returned
}

// inlineCols is the number of columns whose cells a row holds itself.
const inlineCols = 2

// Row is one item's row, 32 bytes.
type Row struct {
	Net    int64
	mirror [inlineCols]int64 // the inline columns' cells
	blk    int32             // the row's arena block, 1-based; 0 while it has none
	live   [inlineCols]bool
	// Match caches, in what was padding, which of an engine site's
	// filters accept the item. A new row holds 0; Snap does not code it.
	Match uint16
}

// cell is an arena column's cell.
type cell struct {
	mirror int64 // the coordinator's value for this site's share of the counter
	live   bool  // the column holds a counter for the item
}

func isLive(c cell) bool { return c.live }

// ClearMatches zeroes every row's Match.
func (t *Rows) ClearMatches() {
	for _, r := range t.tab.Range {
		r.Match = 0
	}
}

type column struct {
	used  bool
	limit float64 // ε·2^r/3: the column site's counter report threshold
}

// Upsert returns item's row, inserting an empty one when absent, and
// remembers it for the shared column sites the caller goes on to call. The
// pointer is valid until the next Upsert or Settle.
//
//varlint:zeroalloc
func (t *Rows) Upsert(item uint64) *Row {
	r := t.tab.Upsert(item)
	if len(t.cols) > inlineCols && r.blk == 0 {
		r.blk = t.alloc()
	}
	t.cur = r
	return r
}

// alloc hands out a cleared block.
func (t *Rows) alloc() int32 {
	if n := len(t.free); n > 0 {
		b := t.free[n-1]
		t.free = t.free[:n-1]
		clear(t.block(b))
		return b
	}
	t.blocks++
	t.arena = append(t.arena, make([]cell, len(t.cols)-inlineCols)...)
	t.free = slices.Grow(t.free, int(t.blocks)) // so releasing never allocates
	return t.blocks
}

func (t *Rows) block(b int32) []cell {
	x := len(t.cols) - inlineCols
	return t.arena[int(b-1)*x : int(b)*x]
}

// cell returns column j's cell in r: its mirror and live flag.
func (t *Rows) cell(r *Row, j int) (mirror *int64, live *bool) {
	if j < inlineCols {
		return &r.mirror[j], &r.live[j]
	}
	c := &t.block(r.blk)[j-inlineCols]
	return &c.mirror, &c.live
}

// Touch marks column j's cell in r live and reports whether the count's
// drift from the cell's mirror, after the update the caller applied to
// r.Net, stays below the column's report threshold: whether the column's
// site would take the update without a report.
//
//varlint:zeroalloc
func (t *Rows) Touch(r *Row, j int) bool {
	mirror, live := t.cell(r, j)
	*live = true
	return float64(absI64(r.Net-*mirror)) < t.cols[j].limit
}

// Settle drops item's row r if it has gone empty.
//
//varlint:zeroalloc
func (t *Rows) Settle(item uint64, r *Row) {
	if r.Net == 0 && t.gone(r) {
		t.tab.Delete(item)
	}
}

// gone reports whether r is empty, a zero count and no cell, and if so
// releases its block: the caller deletes the row.
func (t *Rows) gone(r *Row) bool {
	if r.Net != 0 || slices.Contains(r.live[:], true) || r.blk != 0 && slices.ContainsFunc(t.block(r.blk), isLive) {
		return false
	}
	if r.blk != 0 {
		t.free = append(t.free, r.blk)
	}
	return true
}

// Counts yields the item and count of every row with a nonzero count that
// match (nil: any) accepts, in table order.
func (t *Rows) Counts(match func(uint64) bool) iter.Seq2[uint64, int64] {
	return func(yield func(uint64, int64) bool) {
		for item, r := range t.tab.Range {
			if r.Net != 0 && (match == nil || match(item)) && !yield(item, r.Net) {
				return
			}
		}
	}
}

// sweep ends a block in column j. It clears each cell whose count is zero,
// or every cell with drop set. Each other cell's mirror becomes the count
// when that reaches the column's limit, its item appended to heavy, and 0
// otherwise. It drops the rows the cleared cells leave empty and returns
// heavy. It walks the slots directly, where a free slot reads as a row
// with dead cells, and an inline column's loop zeroes a light cell itself.
func (t *Rows) sweep(j int, drop bool, heavy []uint64) []uint64 {
	limit := t.cols[j].limit
	if j < inlineCols {
		for i := range t.tab.Slots() {
			item, r := t.tab.Slot(i)
			switch {
			case r == nil || !r.live[j]:
			case !drop && r.Net != 0 && float64(absI64(r.Net)) < limit:
				r.mirror[j] = 0
			default:
				heavy = t.endCell(item, r, &r.mirror[j], &r.live[j], drop, limit, heavy)
			}
		}
	} else {
		for i := range t.tab.Slots() {
			if item, r := t.tab.Slot(i); r != nil && r.blk != 0 {
				if c := &t.block(r.blk)[j-inlineCols]; c.live {
					heavy = t.endCell(item, r, &c.mirror, &c.live, drop, limit, heavy)
				}
			}
		}
	}
	t.tab.Purge()
	return heavy
}

// endCell is sweep's step for one live cell of item's row r.
func (t *Rows) endCell(item uint64, r *Row, mirror *int64, live *bool, drop bool, limit float64, heavy []uint64) []uint64 {
	switch {
	case drop || r.Net == 0:
		*mirror, *live = 0, false
		if t.gone(r) {
			t.tab.Doom(item)
		}
	case float64(absI64(r.Net)) >= limit:
		*mirror = r.Net
		heavy = append(heavy, item)
	default:
		*mirror = 0
	}
	return heavy
}

// AddColumn allocates a column with no cells, reusing a freed one before
// adding one, and returns its index. A column past the inline ones widens
// every row's block.
func (t *Rows) AddColumn() int {
	j := slices.IndexFunc(t.cols, func(c column) bool { return !c.used })
	if j < 0 {
		j = len(t.cols)
		t.cols = append(t.cols, column{})
		if x := j + 1 - inlineCols; x > 0 {
			arena := make([]cell, int(t.blocks)*x)
			for b := range int(t.blocks) {
				copy(arena[b*x:], t.arena[b*(x-1):(b+1)*(x-1)])
			}
			t.arena = arena
			for _, r := range t.tab.Range {
				if r.blk == 0 {
					r.blk = t.alloc()
				}
			}
		}
	}
	t.cols[j].used = true
	return j
}

// FreeColumn clears column j and frees it for reuse.
func (t *Rows) FreeColumn(j int) {
	t.sweep(j, true, nil)
	t.cols[j].used = false
}

// Matches reports whether column j holds exactly the cells of an engine
// frequency query whose filter is match (nil: any item): none for an item
// the filter rejects, and one for each item it accepts with a nonzero
// count.
func (t *Rows) Matches(j int, match func(uint64) bool) bool {
	for item, r := range t.tab.Range {
		_, live := t.cell(r, j)
		if in := match == nil || match(item); *live != in && (*live || r.Net != 0) {
			return false
		}
	}
	return true
}

// Snap codes the rows pick selects through track.SnapKeys, in increasing
// item order, so equal tables give equal blobs. Decoding hands val each
// item's row, inserted if absent.
func (t *Rows) Snap(c *track.Codec, pick func(*Row) bool, val func(*track.Codec, *Row)) {
	var items []uint64
	for item, r := range t.tab.Range {
		if !c.Decoding() && pick(r) {
			items = append(items, item)
		}
	}
	slices.Sort(items)
	var r Row // one copy for the whole walk: &r escapes into val
	track.SnapKeys(c, items, func(c *track.Codec, item uint64) {
		if c.Decoding() {
			val(c, t.Upsert(item))
			return
		}
		r, _ = t.tab.Get(item)
		val(c, &r)
	})
}
