package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The whole-trie walks the key-anchored run walks replaced, kept as the
// reference they are checked against.

// refNeighborBuckets returns the bucket addresses whose leaves immediately
// precede and follow addr's in-order leaf run, -1 for none (ends of the
// file, or a nil leaf next door).
func refNeighborBuckets(t *Trie, addr int32) (pred, succ int32) {
	pred, succ = -1, -1
	prev := Nil
	prevSeen := false
	inRun := false
	for _, lp := range t.InorderLeaves() {
		isAddr := !lp.Leaf.IsNil() && lp.Leaf.Addr() == addr
		if isAddr && !inRun {
			inRun = true
			if prevSeen && !prev.IsNil() {
				pred = prev.Addr()
			}
		} else if !isAddr && inRun {
			if !lp.Leaf.IsNil() {
				succ = lp.Leaf.Addr()
			}
			break
		}
		prev, prevSeen = lp.Leaf, true
	}
	return pred, succ
}

// refRepointLeaves makes every leaf carrying from carry to instead.
func refRepointLeaves(t *Trie, from, to int32) int {
	if t.LeafCount(from) == 0 {
		return 0
	}
	n := 0
	for _, lp := range t.InorderLeaves() {
		if !lp.Leaf.IsNil() && lp.Leaf.Addr() == from {
			t.setPtr(lp.Pos, Leaf(to))
			n++
		}
	}
	return n
}

// refSetBoundary is SetBoundary placing the boundary over the whole
// in-order leaf list.
func refSetBoundary(t *Trie, splitKey string, s []byte, old, low, high int32, mode Mode) {
	res := t.Search(splitKey)
	if t.LeafCount(old) == 1 && low == old {
		t.insertChain(res.Pos, res.Path, s, low, high, mode)
		return
	}
	leaves := t.InorderLeaves()
	lo, hi := -1, -1
	for q, lp := range leaves {
		if !lp.Leaf.IsNil() && lp.Leaf.Addr() == old {
			if lo < 0 {
				lo = q
			}
			hi = q
		}
	}
	straddle := -1
	exact := false
	for q := lo; q <= hi; q++ {
		cmp := t.alpha.ComparePathBounds(leaves[q].Path, s)
		if cmp <= 0 {
			if low != old {
				t.setPtr(leaves[q].Pos, Leaf(low))
			}
			if cmp == 0 {
				exact = true
			}
			continue
		}
		straddle = q
		break
	}
	if !exact {
		t.insertChain(leaves[straddle].Pos, leaves[straddle].Path, s, low, high, mode)
		straddle++
	}
	for q := straddle; q <= hi; q++ {
		t.setPtr(leaves[q].Pos, Leaf(high))
	}
}

// probeKey returns a key that routes to the leaf bounded by path: the
// bound's digits followed by maximal ones, which lies above every shorter
// or longer bound below.
func probeKey(path []byte) string {
	return string(path) + strings.Repeat("~", 8)
}

// sameTrie fails unless a and b have identical cell tables, roots and leaf
// counts.
func sameTrie(t testing.TB, what string, a, b *Trie) {
	t.Helper()
	if a.DumpCells() != b.DumpCells() || a.root != b.root || a.nilLeaves != b.nilLeaves {
		t.Fatalf("%s: trie differs from reference\ngot:  %s\nwant: %s", what, a, b)
	}
	for i := 0; i < len(a.leafCount) || i < len(b.leafCount); i++ {
		if a.LeafCount(int32(i)) != b.LeafCount(int32(i)) {
			t.Fatalf("%s: bucket %d has %d leaves, reference %d", what, i, a.LeafCount(int32(i)), b.LeafCount(int32(i)))
		}
	}
}

// checkRunWalks checks, from a key of every leaf, the cursor, the run
// walk and NeighborsOf against the in-order leaf list and the reference
// neighbour lookup.
func checkRunWalks(t testing.TB, tr *Trie) {
	t.Helper()
	leaves := tr.InorderLeaves()
	c := tr.newCursor()
	sameLeaf := func(what string, q int) {
		t.Helper()
		lp := leaves[q]
		if c.pos() != lp.Pos || c.leaf != lp.Leaf || !bytes.Equal(c.path, lp.Path) {
			t.Fatalf("%s: cursor at %+v %v %q, want leaf %d %+v %v %q\n%s",
				what, c.pos(), c.leaf, c.path, q, lp.Pos, lp.Leaf, lp.Path, tr)
		}
	}
	for q, lp := range leaves {
		key := probeKey(lp.Path)
		if got := tr.Search(key).Pos; got != lp.Pos {
			t.Fatalf("probe %q routes to %+v, not to leaf %d at %+v\n%s", key, got, q, lp.Pos, tr)
		}
		// The cursor steps through the whole leaf list from here, both ways.
		if len(leaves) <= 64 {
			c.seek(key)
			sameLeaf("seek "+key, q)
			for r := q + 1; r < len(leaves); r++ {
				if !c.next() {
					t.Fatalf("next from leaf %d stopped before leaf %d", q, r)
				}
				sameLeaf("next", r)
			}
			if c.next() {
				t.Fatalf("next past the last leaf from leaf %d", q)
			}
			c.seek(key)
			for r := q - 1; r >= 0; r-- {
				if !c.prev() {
					t.Fatalf("prev from leaf %d stopped before leaf %d", q, r)
				}
				sameLeaf("prev", r)
			}
			if c.prev() {
				t.Fatalf("prev before the first leaf from leaf %d", q)
			}
		}
		if lp.Leaf.IsNil() {
			continue
		}
		addr := lp.Leaf.Addr()
		lo, hi := q, q
		for lo > 0 && leaves[lo-1].Leaf == lp.Leaf {
			lo--
		}
		for hi+1 < len(leaves) && leaves[hi+1].Leaf == lp.Leaf {
			hi++
		}
		// The run walk covers exactly leaves lo..hi.
		c.seek(key)
		r := q
		for c.prev() && c.leaf == lp.Leaf {
			r--
			sameLeaf("run prev", r)
		}
		if r != lo {
			t.Fatalf("run of bucket %d from leaf %d starts at %d, want %d", addr, q, r, lo)
		}
		c.seek(key)
		r = q
		for c.next() && c.leaf == lp.Leaf {
			r++
			sameLeaf("run next", r)
		}
		if r != hi {
			t.Fatalf("run of bucket %d from leaf %d ends at %d, want %d", addr, q, r, hi)
		}
		want := Neighbors{Addr: addr, Pred: -1, Succ: -1}
		if lo > 0 && !leaves[lo-1].Leaf.IsNil() {
			want.Pred, want.PredPath = leaves[lo-1].Leaf.Addr(), leaves[lo-1].Path
		}
		if hi+1 < len(leaves) && !leaves[hi+1].Leaf.IsNil() {
			want.Succ, want.SuccPath = leaves[hi+1].Leaf.Addr(), leaves[hi+1].Path
		}
		if p, s := refNeighborBuckets(tr, addr); p != want.Pred || s != want.Succ {
			t.Fatalf("reference neighbours of %d: %d/%d, leaf list says %d/%d", addr, p, s, want.Pred, want.Succ)
		}
		got := tr.NeighborsOf(key)
		if got.Addr != want.Addr || got.Pred != want.Pred || got.Succ != want.Succ ||
			!bytes.Equal(got.PredPath, want.PredPath) || !bytes.Equal(got.SuccPath, want.SuccPath) {
			t.Fatalf("NeighborsOf(%q) = %+v, want %+v\n%s", key, got, want, tr)
		}
	}
}

// runDriver builds tries step by step through SetBoundary splits and
// borrows and RepointRun merges, applying each step also to a clone
// through the whole-trie reference and requiring identical results.
type runDriver struct {
	tr   *Trie
	mode Mode
	next int32 // next unused bucket address
}

func newRunDriver(mode Mode) *runDriver {
	return &runDriver{tr: New(ascii, 0), mode: mode, next: 1}
}

// runTop returns the bound of the last leaf of bucket addr's run.
func runTop(tr *Trie, addr int32) []byte {
	var b []byte
	for _, lp := range tr.InorderLeaves() {
		if lp.Leaf == Leaf(addr) {
			b = lp.Path
		}
	}
	return b
}

// step applies operation op (split, borrow from the successor or
// predecessor side, merge into a neighbour) at key k when it is valid
// there.
func (d *runDriver) step(t testing.TB, op int, k string) {
	t.Helper()
	tr := d.tr
	res := tr.Search(k)
	if res.Leaf.IsNil() {
		return
	}
	addr := res.Leaf.Addr()
	below := func(a int32) bool { // k's boundary falls inside a's run
		b := runTop(tr, a)
		return len(b) == 0 || ascii.ComparePathBounds([]byte(k), b) < 0
	}
	pred, succ := refNeighborBuckets(tr, addr)
	if d.mode == ModeBasic {
		op = 0
	}
	var old, low, high int32
	var what string
	switch op % 4 {
	case 0: // split addr
		if !below(addr) {
			return
		}
		old, low, high = addr, addr, d.next
		d.next++
		what = "split"
	case 1: // addr gives its keys up to k to its predecessor
		if pred < 0 || !below(addr) {
			return
		}
		old, low, high = addr, pred, addr
		what = "borrow down"
	case 2: // addr gives its keys above k to its successor
		if succ < 0 || !below(addr) {
			return
		}
		old, low, high = addr, addr, succ
		what = "borrow up"
	default: // addr merges into a neighbour
		to := succ
		if to < 0 || (pred >= 0 && len(k)%2 == 0) {
			to = pred
		}
		if to < 0 {
			return
		}
		ref := tr.Clone()
		want := refRepointLeaves(ref, addr, to)
		if got := tr.RepointRun(k, addr, to); got != want {
			t.Fatalf("RepointRun(%q, %d, %d) repointed %d leaves, reference %d", k, addr, to, got, want)
		}
		what = fmt.Sprintf("merge %d into %d at %q", addr, to, k)
		sameTrie(t, what, tr, ref)
		return
	}
	ref := tr.Clone()
	refSetBoundary(ref, k, []byte(k), old, low, high, d.mode)
	tr.SetBoundary(k, []byte(k), old, low, high, d.mode)
	what = fmt.Sprintf("%s of %d at %q (low %d, high %d)", what, old, k, low, high)
	sameTrie(t, what, tr, ref)
	if err := tr.Check(0); err != nil {
		t.Fatalf("%s: %v\n%s", what, err, tr)
	}
}

// TestRunWalksAgainstReference drives random THCL tries (splits, borrows
// both ways, merges) and basic-TH tries (splits, with nil leaves) and
// checks every run walk and neighbour lookup after each step.
func TestRunWalksAgainstReference(t *testing.T) {
	for _, mode := range []Mode{ModeBasic, ModeTHCL} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var firstRun, lastRun, nilNeighbour int
			for trial := 0; trial < 30; trial++ {
				d := newRunDriver(mode)
				checkRunWalks(t, d.tr) // the single-leaf trie
				for s := 0; s < 40; s++ {
					d.step(t, rng.Intn(4), randKey(rng))
					checkRunWalks(t, d.tr)
					leaves := d.tr.InorderLeaves()
					first, last := leaves[0].Leaf, leaves[len(leaves)-1].Leaf
					if !first.IsNil() && d.tr.LeafCount(first.Addr()) > 1 {
						firstRun++
					}
					if !last.IsNil() && d.tr.LeafCount(last.Addr()) > 1 {
						lastRun++
					}
					if d.tr.NilLeaves() > 0 {
						nilNeighbour++
					}
				}
			}
			if mode == ModeTHCL && (firstRun == 0 || lastRun == 0) {
				t.Errorf("no multi-leaf run at the first (%d) or last (%d) leaf was checked", firstRun, lastRun)
			}
			if mode == ModeBasic && nilNeighbour == 0 {
				t.Error("no trie with nil leaves was checked")
			}
		})
	}
}

// FuzzRunNeighbors drives a sequence of splits, borrows and merges from
// the fuzz input and checks every step against the whole-trie reference.
// Byte 0 picks the mode; each later group of up to five bytes is one step:
// an operation and a key over a four-digit alphabet.
func FuzzRunNeighbors(f *testing.F) {
	f.Add([]byte{1, 0, 'c', 1, 2, 3, 1, 'b', 0, 0, 0, 3, 'd', 3, 3, 3, 2, 'a', 1, 1, 1})
	f.Add([]byte{0, 0, 'b', 2, 2, 0, 0, 'c', 1, 0, 0, 0, 'a', 3, 3, 1})
	f.Add([]byte{1, 0, 'a', 0, 0, 0, 0, 'b', 1, 1, 1, 3, 'a', 0, 0, 0, 1, 'c', 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode := ModeBasic
		if data[0]%2 == 1 {
			mode = ModeTHCL
		}
		d := newRunDriver(mode)
		data = data[1:]
		for steps := 0; len(data) >= 2 && steps < 64; steps++ {
			op := int(data[0])
			n := 1 + int(data[1])%4
			if n > len(data)-1 {
				n = len(data) - 1
			}
			k := make([]byte, n)
			for i := range k {
				k[i] = 'a' + data[1+i]%4
			}
			data = data[1+n:]
			d.step(t, op, string(k))
			checkRunWalks(t, d.tr)
		}
	})
}

func TestRunWalksSingleLeaf(t *testing.T) {
	tr := New(ascii, 3)
	if nb := tr.NeighborsOf("m"); nb.Addr != 3 || nb.Pred != -1 || nb.Succ != -1 || nb.PredPath != nil || nb.SuccPath != nil {
		t.Fatalf("NeighborsOf on a single leaf: %+v", nb)
	}
	if n := tr.RepointRun("m", 3, 5); n != 1 || tr.Root() != Leaf(5) || tr.LeafCount(3) != 0 || tr.LeafCount(5) != 1 {
		t.Fatalf("RepointRun on a single leaf: %d, root %v", n, tr.Root())
	}
	mustPanic(t, "RepointRun of the wrong bucket", func() { tr.RepointRun("m", 3, 4) })
	mustPanic(t, "NeighborsOf a nil leaf", func() { NewEmpty(ascii).NeighborsOf("m") })
}

// sizedTrie grows a THCL trie to at least cells cells by splits at random
// keys, then shapes two runs whose walks the allocation
// guard measures: the first bucket absorbs its successors until its run
// holds firstRun leaves, and the last bucket is split at "{|}", beyond
// every random key, so that the new bucket top carries a run of three
// leaves with bounds "{|", "{" and the maximal one.
func sizedTrie(tb testing.TB, seed int64, cells, firstRun int) (tr *Trie, top, next int32) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr = New(ascii, 0)
	next = 1
	key := make([]byte, 0, 10)
	for tr.Cells() < cells {
		key = key[:0]
		for n := 1 + rng.Intn(10); n > 0; n-- {
			key = append(key, byte('a'+rng.Intn(26)))
		}
		// The boundary must fall below the top of the bucket's run.
		c := tr.newCursor()
		c.seek(string(key))
		addr := c.leaf
		for c.leaf == addr && len(c.path) > 0 && ascii.ComparePathBounds(key, c.path) >= 0 {
			c.next()
		}
		if c.leaf != addr {
			continue
		}
		tr.SetBoundary(string(key), key, addr.Addr(), addr.Addr(), next, ModeTHCL)
		next++
	}
	first := tr.Search("a").Leaf.Addr()
	for tr.LeafCount(first) < firstRun {
		nb := tr.NeighborsOf("a")
		tr.RepointRun(probeKey(nb.SuccPath), nb.Succ, first)
	}
	last := tr.edgeLeaf(SideRight).Addr()
	tr.SetBoundary("{|}", []byte("{|}"), last, last, next, ModeTHCL)
	top = next
	next++
	if err := tr.Check(0); err != nil {
		tb.Fatal(err)
	}
	return tr, top, next
}

// TestRunWalkAllocsIndependentOfSize guards the write paths against a
// return of whole-trie walks: a neighbour lookup and a SetBoundary split
// of a multi-leaf run must make as many allocations on a trie of ~50k
// cells as on one of ~1.5k, for runs of equal length — including the
// lookups beside a first bucket whose run holds 1,000 leaves.
func TestRunWalkAllocsIndependentOfSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 50k-cell trie")
	}
	type counts struct{ first, afterFirst, top, split float64 }
	measure := func(cells int) counts {
		tr, top, next := sizedTrie(t, 5, cells, 1000)
		nb := tr.NeighborsOf("a")
		if tr.LeafCount(nb.Addr) < 1000 || nb.Pred != -1 {
			t.Fatalf("first bucket: %d leaves, pred %d", tr.LeafCount(nb.Addr), nb.Pred)
		}
		// The last leaf of the first run, and the leaf after it.
		kLast := probeKey(tr.NeighborsOf(probeKey(nb.SuccPath)).PredPath)
		kAfter := probeKey(nb.SuccPath)
		if got := tr.NeighborsOf(kLast); got.Addr != nb.Addr || got.Succ != nb.Succ {
			t.Fatalf("NeighborsOf(%q) = %+v, want the first bucket", kLast, got)
		}
		if got := tr.NeighborsOf(kAfter); got.Pred != nb.Addr {
			t.Fatalf("NeighborsOf(%q) = %+v, want the first bucket before it", kAfter, got)
		}
		if tr.LeafCount(top) != 3 {
			t.Fatalf("bucket %d carries %d leaves, want 3", top, tr.LeafCount(top))
		}
		const runs = 20
		// Each split runs on its own clone, with room to append cells and
		// a bucket address so that growing the trie's tables is not counted.
		clones := make([]*Trie, runs+1)
		for i := range clones {
			c := tr.Clone()
			c.cells = append(make([]Cell, 0, len(c.cells)+8), c.cells...)
			c.leafCount = append(make([]int32, 0, next+8), c.leafCount...)
			clones[i] = c
		}
		split := 0
		return counts{
			first:      testing.AllocsPerRun(runs, func() { tr.NeighborsOf(kLast) }),
			afterFirst: testing.AllocsPerRun(runs, func() { tr.NeighborsOf(kAfter) }),
			top:        testing.AllocsPerRun(runs, func() { tr.NeighborsOf("{}") }),
			split: testing.AllocsPerRun(runs, func() {
				clones[split].SetBoundary("{}", []byte("{}"), top, top, next, ModeTHCL)
				split++
			}),
		}
	}
	small, big := measure(1500), measure(50000)
	t.Logf("allocations at 1.5k / 50k cells: %+v / %+v", small, big)
	for _, c := range []struct {
		what    string
		sml, bg float64
	}{
		{"NeighborsOf at the end of a 1000-leaf first run", small.first, big.first},
		{"NeighborsOf just after a 1000-leaf first run", small.afterFirst, big.afterFirst},
		{"NeighborsOf in a 3-leaf run", small.top, big.top},
		{"SetBoundary splitting a 3-leaf run", small.split, big.split},
	} {
		if c.bg > c.sml+1 {
			t.Errorf("%s: %.0f allocations at 50k cells, %.0f at 1.5k", c.what, c.bg, c.sml)
		}
	}
}
