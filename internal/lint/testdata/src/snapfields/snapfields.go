// Package snapfields is the golden fixture for the snapfields pass: a
// fully-covered struct with audited scratch and derived fields, a struct
// missing coverage in one or both directions, fields touched only inside
// a direction branch, helper-indirected coverage, and a struct with no
// Snap method at all.
package snapfields

// Codec stands in for the two-way snapshot codec; the pass recognises a
// direction test by the method name Decoding.
type Codec struct{ dec bool }

// Decoding reports the direction.
func (c *Codec) Decoding() bool { return c.dec }

// Int codes one value.
func (c *Codec) Int(p *int64) {}

// Good codes every field in both directions; tmp is audited volatile, and
// half is derived when decoding under an audit.
type Good struct {
	n    int64
	buf  []int64
	tmp  []int64 //varlint:volatile reusable scratch; rebuilt on first use
	half int64   //varlint:volatile derived from n when decoding
}

// Snap codes n and buf.
func (g *Good) Snap(c *Codec) error {
	c.Int(&g.n)
	for i := range g.buf {
		c.Int(&g.buf[i])
	}
	if c.Decoding() {
		g.half = g.n / 2
	}
	return nil
}

// Bad forgot epoch entirely, and touches the rest in one direction only.
type Bad struct {
	n     int64
	epoch int64 // want "field epoch of Bad is not covered by either the snapshot or the restore path"
	hash  int64 // want "field hash of Bad is not covered by the restore path"
	sum   int64 // want "field sum of Bad is not covered by the snapshot path"
	mark  int64 // want "field mark of Bad is not covered by the restore path"
	check int64 // want "field check of Bad is not covered by the snapshot path"
}

// Snap codes n in both directions and everything else in one.
func (b *Bad) Snap(c *Codec) error {
	c.Int(&b.n)
	if !c.Decoding() {
		c.Int(&b.hash)
	}
	if c.Decoding() {
		b.sum = 2 * b.n
	} else {
		b.mark++
	}
	if c.Decoding() {
		if b.n < 0 {
			b.check = b.n
		}
	}
	return nil
}

// Indirect covers its fields only through same-package helpers, which the
// pass follows transitively — but only from branches the walk takes.
type Indirect struct {
	a int64
	b int64
	d int64 // want "field d of Indirect is not covered by the snapshot path"
}

// Snap delegates to code, and to derive when decoding.
func (x *Indirect) Snap(c *Codec) error {
	x.code(c)
	if c.Decoding() {
		x.derive()
	}
	return nil
}

func (x *Indirect) code(c *Codec) {
	c.Int(&x.a)
	c.Int(&x.b)
}

func (x *Indirect) derive() { x.d = x.a + x.b }

// NoSnap has no Snap method, so it is never checked.
type NoSnap struct {
	n int64
}

// Encode is not the snapshot method.
func (n *NoSnap) Encode(dst []int64) []int64 { return dst }
