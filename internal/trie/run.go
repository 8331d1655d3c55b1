package trie

import "fmt"

// The write paths of a THCL file (splits, borrows, merges, redistribution)
// change only the leaves of one bucket's in-order run and look only at the
// leaves just outside it (Section 4.1 steps 3.4–3.5, Section 4.3). The
// walks below find that run from a key the bucket holds, so their cost is
// O(depth + leaves in the run), never a traversal of the whole trie.

// leafCursor is an in-order cursor over the leaves of a trie. seek places
// it on the leaf Algorithm A1 reaches for a key; next and prev step to the
// adjacent leaf. It keeps the stack of descents from the root and one
// logical-path buffer, which a left descent patches in place (digit DN
// becomes DV, later digits drop) and the climb back undoes, so a step
// costs O(1) amortized and O(depth) at worst, and allocates nothing once
// the stack and buffer have grown to the trie's depth.
//
// Stepping reads only the pointer slots it has not visited yet, so a
// caller may repoint the current leaf, or expand it into a chain of new
// cells, and keep walking: neither is seen again.
type leafCursor struct {
	t     *Trie
	leaf  Ptr       // the current leaf
	path  []byte    // its logical path
	stack []descent // descents from the root to it
}

// descent is one step of a leafCursor's stack: the cell it left through
// which side, and the path digit and length a left descent overwrote.
type descent struct {
	cell  int32
	side  Side
	saved byte
	n     int32
}

// newCursor returns a cursor over t, its stack sized for tries up to 64
// cells deep (both it and the path buffer grow as needed).
func (t *Trie) newCursor() *leafCursor {
	return &leafCursor{t: t, stack: make([]descent, 0, 64), path: make([]byte, 0, 32)}
}

// seek positions the cursor on the leaf key maps to: Algorithm A1, exactly
// as SearchFrom runs it from the root.
func (c *leafCursor) seek(key string) {
	c.stack, c.path = c.stack[:0], c.path[:0]
	n := c.t.root
	j := 0
	for n.IsEdge() {
		ci := n.Cell()
		cell := &c.t.cells[ci]
		i := int(cell.DN)
		goLeft := j < i
		if j == i {
			cj := c.t.alpha.Digit(key, j)
			if cj <= cell.DV {
				goLeft = true
				if cj == cell.DV {
					j++
				}
			}
		}
		if goLeft {
			c.push(ci, SideLeft)
			n = cell.LP
		} else {
			c.push(ci, SideRight)
			n = cell.RP
		}
	}
	c.leaf = n
}

// pos returns the slot holding the current leaf.
func (c *leafCursor) pos() Pos {
	if len(c.stack) == 0 {
		return RootPos
	}
	top := c.stack[len(c.stack)-1]
	return Pos{Cell: top.cell, Side: top.side}
}

// push records a descent from cell ci through side, applying a left
// descent's path change.
func (c *leafCursor) push(ci int32, side Side) {
	c.stack = append(c.stack, descent{cell: ci, side: side})
	if side == SideLeft {
		c.enterLeft(&c.stack[len(c.stack)-1])
	}
}

// enterLeft applies the logical-path change of a left descent through
// d.cell, saving what it overwrites in d.
func (c *leafCursor) enterLeft(d *descent) {
	cell := c.t.cells[d.cell]
	i := int(cell.DN)
	if len(c.path) < i {
		panic(fmt.Sprintf("trie: malformed trie: cell %d at digit number %d reached with %d known path digits", d.cell, i, len(c.path)))
	}
	d.n = int32(len(c.path))
	if i < cap(c.path) {
		d.saved = c.path[:i+1][i]
	}
	c.path = append(c.path[:i], cell.DV)
}

// leaveLeft undoes enterLeft. The digits past DN that the descent dropped
// are still in the buffer's backing array: each descent writes one byte of
// the array and puts it back on the way up, and appends reallocate only
// once the whole array is in use, so they copy all of it.
func (c *leafCursor) leaveLeft(d *descent) {
	i := int(c.t.cells[d.cell].DN)
	c.path = c.path[:i+1]
	c.path[i] = d.saved
	c.path = c.path[:d.n]
}

// descend runs from pointer n to a leaf, always through side: SideLeft
// reaches the subtree's first leaf, SideRight its last.
func (c *leafCursor) descend(n Ptr, side Side) {
	for n.IsEdge() {
		ci := n.Cell()
		c.push(ci, side)
		if side == SideLeft {
			n = c.t.cells[ci].LP
		} else {
			n = c.t.cells[ci].RP
		}
	}
	c.leaf = n
}

// next steps to the following leaf in in-order and reports whether there
// is one. After false the cursor is spent until the next seek.
func (c *leafCursor) next() bool {
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		if top.side == SideLeft {
			c.leaveLeft(top)
			top.side = SideRight
			c.descend(c.t.cells[top.cell].RP, SideLeft)
			return true
		}
		c.stack = c.stack[:len(c.stack)-1]
	}
	return false
}

// prev steps to the preceding leaf in in-order and reports whether there
// is one. After false the cursor is spent until the next seek.
func (c *leafCursor) prev() bool {
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		if top.side == SideRight {
			top.side = SideLeft
			c.enterLeft(top)
			c.descend(c.t.cells[top.cell].LP, SideRight)
			return true
		}
		c.leaveLeft(top)
		c.stack = c.stack[:len(c.stack)-1]
	}
	return false
}

// edgeLeaf returns the trie's first leaf (side SideLeft) or last leaf
// (SideRight) by one descent down that spine.
func (t *Trie) edgeLeaf(side Side) Ptr {
	n := t.root
	for n.IsEdge() {
		if side == SideLeft {
			n = t.cells[n.Cell()].LP
		} else {
			n = t.cells[n.Cell()].RP
		}
	}
	return n
}

// seekBucket places a new cursor on the leaf key maps to, which must carry
// bucket addr.
func (t *Trie) seekBucket(op, key string, addr int32) *leafCursor {
	c := t.newCursor()
	c.seek(key)
	if c.leaf.IsNil() || c.leaf.Addr() != addr {
		panic(fmt.Sprintf("trie: %s: key %q maps to %s, not to bucket %d", op, key, c.leaf, addr))
	}
	return c
}

// Neighbors describes the surroundings of one bucket's in-order run of
// leaves.
type Neighbors struct {
	// Addr is the bucket whose run it is.
	Addr int32
	// Pred and Succ are the buckets of the leaves immediately before and
	// after the run; -1 means no such neighbour (an end of the file, or
	// a nil leaf next door).
	Pred, Succ int32
	// PredPath and SuccPath are the logical paths of those two leaves,
	// empty when the neighbour is -1.
	PredPath, SuccPath []byte
}

// NeighborsOf returns the in-order neighbours of the bucket key maps to,
// which must not be the nil leaf. It walks outward from key's leaf to the
// first leaf on each side that carries another bucket. A run that starts
// at the trie's first leaf has no predecessor and one that ends at the
// last leaf has no successor (runs are contiguous), so a descent down the
// trie's left or right spine settles those cases without scanning the run.
func (t *Trie) NeighborsOf(key string) Neighbors {
	c := t.newCursor()
	c.seek(key)
	run := c.leaf
	if run.IsNil() {
		panic(fmt.Sprintf("trie: NeighborsOf: key %q maps to the nil leaf", key))
	}
	nb := Neighbors{Addr: run.Addr(), Pred: -1, Succ: -1}
	if t.edgeLeaf(SideLeft) != run {
		for c.prev() {
			if c.leaf != run {
				if !c.leaf.IsNil() {
					nb.Pred, nb.PredPath = c.leaf.Addr(), append([]byte(nil), c.path...)
				}
				break
			}
		}
		c.seek(key)
	}
	if t.edgeLeaf(SideRight) != run {
		for c.next() {
			if c.leaf != run {
				if !c.leaf.IsNil() {
					nb.Succ, nb.SuccPath = c.leaf.Addr(), append([]byte(nil), c.path...)
				}
				break
			}
		}
	}
	return nb
}

// RepointRun makes every leaf of bucket from's in-order run — the run
// holding the leaf key maps to, which must carry from — carry bucket to
// instead, and returns how many leaves it repointed. THCL bucket merging
// (Section 4.3) uses it: the freed bucket's leaves simply join the
// survivor, with node removal decoupled and optional.
func (t *Trie) RepointRun(key string, from, to int32) int {
	c := t.seekBucket("RepointRun", key, from)
	n := 0
	for c.prev() && c.leaf == Leaf(from) {
		t.setPtr(c.pos(), Leaf(to))
		n++
	}
	c.seek(key)
	for {
		t.setPtr(c.pos(), Leaf(to))
		n++
		if !c.next() || c.leaf != Leaf(from) {
			return n
		}
	}
}
