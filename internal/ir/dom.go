package ir

// DomTree is a dominator tree over a function's reachable blocks, computed
// with the Cooper–Harvey–Kennedy iterative algorithm.
//
// Blocks are numbered once, by their position in a snapshot of f.Blocks
// taken at construction; every table below is a slice indexed by that
// number. A tree that goes stale (blocks added or removed afterwards)
// keeps answering about the CFG it was built from: removed blocks keep
// their number and dominance facts, and blocks it never saw are treated
// as unreachable.
//
// The edges are counted before anything is filled, so every table has its
// exact size: the int32 tables are carved from one slab and the *Block
// tables from another, three allocations besides the index map.
type DomTree struct {
	blocks []*Block         // snapshot of f.Blocks, then any out-of-function successors
	nFunc  int              // blocks[:nFunc] are f.Blocks at construction
	index  map[*Block]int32 // block -> position in blocks
	// Successors and predecessors in compressed-row form: the successors
	// of block i are succs[succOff[i]:succOff[i+1]] (terminator order,
	// duplicates kept), its predecessors preds[predOff[i]:predOff[i+1]]
	// (function block order, duplicate edges folded, as Block.Preds
	// returns them), with predBlk holding the same predecessors as blocks.
	succOff, succs []int32
	predOff, preds []int32
	predBlk        []*Block
	order          []*Block // reverse postorder
	post           []int32  // reachable block numbers in postorder (order reversed)
	rpo            []int32  // block -> reverse postorder number, -1 if unreachable
	idom           []int32  // block -> immediate dominator (entry maps to itself), -1 if unreachable

	// The loops found with this tree, when it came from Func.Loops.
	loops     []*Loop
	loopsDone bool
}

// Dom returns the dominator tree of f's current CFG: the last tree built
// for f by Dom or Loops when it still describes f's blocks and edges, a
// new one (remembered for the next call) otherwise. Whether it still
// describes them is checked structurally on every call, in O(blocks +
// edges) and without allocating, so nothing has to invalidate the cache
// and an edit that a pass fails to report cannot leave it stale. A tree
// is never changed once built, so one returned earlier keeps answering
// about the CFG it was built from (like any tree from NewDomTree), and f
// may be read this way by concurrent compiles that borrow it. Module.Seal
// drops the cache of every function the module owns.
func (f *Func) Dom() *DomTree {
	if dt := f.dom.Load(); dt != nil && dt.describes(f) {
		return dt
	}
	dt := NewDomTree(f)
	f.dom.Store(dt)
	return dt
}

// Loops returns FindLoops(f, f.Dom()), remembered with the tree it was
// found with. The result must not be modified.
func (f *Func) Loops() []*Loop {
	dt := f.dom.Load()
	switch {
	case dt == nil || !dt.describes(f):
		dt = NewDomTree(f)
	case dt.loopsDone:
		return dt.loops
	default:
		// Never change a tree someone may hold: find the loops with a
		// copy that shares its tables.
		c := *dt
		dt = &c
	}
	dt.loops, dt.loopsDone = FindLoops(f, dt), true
	f.dom.Store(dt)
	return dt.loops
}

// describes reports whether NewDomTree(f) would build a tree equal to dt:
// f has the blocks dt numbered, in the same order, no successor outside
// them, and every block the same successors in the same order.
func (dt *DomTree) describes(f *Func) bool {
	if dt.nFunc != len(f.Blocks) || len(dt.blocks) != dt.nFunc {
		return false
	}
	for i, b := range f.Blocks {
		if dt.blocks[i] != b {
			return false
		}
		row := dt.succs[dt.succOff[i]:dt.succOff[i+1]]
		succs := b.Succs()
		if len(succs) != len(row) {
			return false
		}
		for k, s := range succs {
			if dt.blocks[row[k]] != s {
				return false
			}
		}
	}
	return true
}

// NewDomTree computes the dominator tree of f.
func NewDomTree(f *Func) *DomTree {
	dt := &DomTree{}
	n := len(f.Blocks)
	if n == 0 {
		return dt
	}
	dt.index = make(map[*Block]int32, n)
	for i, b := range f.Blocks {
		dt.index[b] = int32(i)
	}
	// Count the edges, and the predecessor edges with duplicates folded.
	// A target outside f.Blocks (only in malformed IR) is numbered after
	// f's blocks on first sight, and its own successors are counted too so
	// the walk below reaches through it. Only blocks of f are
	// predecessors, matching Block.Preds.
	var outside []*Block
	ne, np := 0, 0
	for i := 0; i < n+len(outside); i++ {
		succs := blockAt(f, outside, i).Succs()
		ne += len(succs)
		for k, s := range succs {
			if _, ok := dt.index[s]; !ok {
				dt.index[s] = int32(n + len(outside))
				outside = append(outside, s)
			}
			if i < n && !containsBlock(succs[:k], s) {
				np++
			}
		}
	}
	nb := n + len(outside)
	dt.nFunc = n

	slab := make([]int32, 5*nb+2+ne+np)
	carve := func(k int) []int32 {
		t := slab[:k:k]
		slab = slab[k:]
		return t
	}
	dt.succOff = carve(nb + 1)
	dt.succs = carve(ne)
	dt.predOff = carve(nb + 1)
	dt.preds = carve(np)
	dt.rpo = carve(nb)
	dt.idom = carve(nb)
	walk := carve(nb)

	k := int32(0)
	for i := 0; i < nb; i++ {
		dt.succOff[i] = k
		for _, s := range blockAt(f, outside, i).Succs() {
			dt.succs[k] = dt.index[s]
			k++
		}
	}
	dt.succOff[nb] = k

	// Predecessor table: count, prefix-sum, fill. Sources are visited in
	// block order; an edge whose target repeats an earlier target of the
	// same terminator is folded. rpo serves as the fill cursor until the
	// real numbers are assigned.
	for p := 0; p < n; p++ {
		succs := dt.succs[dt.succOff[p]:dt.succOff[p+1]]
		for j, s := range succs {
			if !containsNum(succs[:j], s) {
				dt.predOff[s+1]++
			}
		}
	}
	for i := 0; i < nb; i++ {
		dt.predOff[i+1] += dt.predOff[i]
	}
	next := dt.rpo
	copy(next, dt.predOff[:nb])
	for p := int32(0); p < int32(n); p++ {
		succs := dt.succs[dt.succOff[p]:dt.succOff[p+1]]
		for j, s := range succs {
			if !containsNum(succs[:j], s) {
				dt.preds[next[s]] = p
				next[s]++
			}
		}
	}

	// Postorder DFS from the entry: iterative, visiting successors in the
	// same order as the recursive formulation. The postorder grows up from
	// walk[0] and the DFS stack down from walk[nb-1]; a block is on at most
	// one of them, so they never meet. rpo marks visited blocks with 0
	// until the real numbers are assigned, and idom holds each block's
	// next-successor cursor.
	for i := 0; i < nb; i++ {
		dt.rpo[i] = -1
	}
	cursor := dt.idom
	copy(cursor, dt.succOff[:nb])
	top, nPost := nb-1, 0
	walk[top] = 0
	dt.rpo[0] = 0
	for top < nb {
		b := walk[top]
		if cursor[b] < dt.succOff[b+1] {
			s := dt.succs[cursor[b]]
			cursor[b]++
			if dt.rpo[s] < 0 {
				dt.rpo[s] = 0
				top--
				walk[top] = s
			}
			continue
		}
		top++
		walk[nPost] = b
		nPost++
	}
	dt.post = walk[:nPost:nPost]

	// One *Block slab: the snapshot, the predecessor blocks and the
	// reverse postorder.
	blk := make([]*Block, nb+np+nPost)
	dt.blocks = blk[:nb:nb]
	copy(dt.blocks, f.Blocks)
	copy(dt.blocks[n:], outside)
	dt.predBlk = blk[nb : nb+np : nb+np]
	for j, p := range dt.preds {
		dt.predBlk[j] = dt.blocks[p]
	}
	dt.order = blk[nb+np:]
	for k, b := range dt.post {
		r := nPost - 1 - k
		dt.rpo[b] = int32(r)
		dt.order[r] = dt.blocks[b]
	}

	for i := range dt.idom {
		dt.idom[i] = -1
	}
	dt.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for k := nPost - 2; k >= 0; k-- { // reverse postorder, entry skipped
			b := dt.post[k]
			newIdom := int32(-1)
			for _, p := range dt.preds[dt.predOff[b]:dt.predOff[b+1]] {
				if dt.idom[p] < 0 {
					continue // not yet processed / unreachable
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = dt.intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && dt.idom[b] != newIdom {
				dt.idom[b] = newIdom
				changed = true
			}
		}
	}
	return dt
}

// blockAt returns block i of a tree under construction: f's blocks, then
// the out-of-function successors.
func blockAt(f *Func, outside []*Block, i int) *Block {
	if i < len(f.Blocks) {
		return f.Blocks[i]
	}
	return outside[i-len(f.Blocks)]
}

func containsBlock(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

func containsNum(xs []int32, x int32) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func (dt *DomTree) intersect(a, b int32) int32 {
	for a != b {
		for dt.rpo[a] > dt.rpo[b] {
			a = dt.idom[a]
		}
		for dt.rpo[b] > dt.rpo[a] {
			b = dt.idom[b]
		}
	}
	return a
}

// num returns b's number in the tree, or -1 for a block it never saw.
func (dt *DomTree) num(b *Block) int32 {
	if i, ok := dt.index[b]; ok {
		return i
	}
	return -1
}

// IDom returns the immediate dominator of b (nil for the entry block or
// unreachable blocks).
func (dt *DomTree) IDom(b *Block) *Block {
	i := dt.num(b)
	if i < 0 {
		return nil
	}
	d := dt.idom[i]
	if d < 0 || d == i {
		return nil
	}
	return dt.blocks[d]
}

// Dominates reports whether a dominates b (reflexively).
func (dt *DomTree) Dominates(a, b *Block) bool {
	bi := dt.num(b)
	if bi < 0 {
		return false
	}
	return dt.dominates(dt.num(a), bi)
}

// dominates is Dominates over block numbers; a may be -1 (never dominates).
func (dt *DomTree) dominates(a, b int32) bool {
	if dt.idom[b] < 0 {
		return false // unreachable
	}
	for {
		if a == b {
			return true
		}
		next := dt.idom[b]
		if next == b {
			return false // reached entry
		}
		b = next
	}
}

// Preds returns b's predecessors in the CFG the tree was built from, in
// the order Block.Preds gives (function block order, duplicate edges
// folded), without rescanning the function. The result must not be
// modified. It is nil for a block the tree never saw.
func (dt *DomTree) Preds(b *Block) []*Block {
	i := dt.num(b)
	if i < 0 {
		return nil
	}
	lo, hi := dt.predOff[i], dt.predOff[i+1]
	return dt.predBlk[lo:hi:hi]
}

// Reachable reports whether b was reachable from the entry in the CFG the
// tree was built from.
func (dt *DomTree) Reachable(b *Block) bool {
	i := dt.num(b)
	return i >= 0 && dt.rpo[i] >= 0
}

// DomChildren lists the children of every block in the dominator tree, in
// function block order, in compressed-row form.
type DomChildren struct {
	dt   *DomTree
	off  []int32
	kids []*Block
}

// Children tabulates the tree's child lists in two allocations.
func (dt *DomTree) Children() DomChildren {
	nb := len(dt.blocks)
	// Count each parent's children at off[parent+2]; after the prefix sum
	// off[p+1] is p's first slot and serves as its fill cursor, ending as
	// the first slot of p+1.
	off := make([]int32, nb+2)
	for i := 0; i < dt.nFunc; i++ {
		if d := dt.idom[i]; d >= 0 && int(d) != i {
			off[d+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	kids := make([]*Block, off[nb+1])
	for i := 0; i < dt.nFunc; i++ {
		if d := dt.idom[i]; d >= 0 && int(d) != i {
			kids[off[d+1]] = dt.blocks[i]
			off[d+1]++
		}
	}
	return DomChildren{dt: dt, off: off[: nb+1 : nb+1], kids: kids}
}

// Of returns b's children. The result must not be modified.
func (c DomChildren) Of(b *Block) []*Block {
	i := c.dt.num(b)
	if i < 0 {
		return nil
	}
	return c.kids[c.off[i]:c.off[i+1]:c.off[i+1]]
}

// StrictlyDominates reports whether a dominates b and a != b.
func (dt *DomTree) StrictlyDominates(a, b *Block) bool {
	return a != b && dt.Dominates(a, b)
}

// DominatesInstr reports whether the definition point of value v dominates
// instruction use at (ub, ui index). Constants, params, globals and undef
// dominate everything.
func (dt *DomTree) DominatesInstr(v Value, use *Instr) bool {
	def, ok := v.(*Instr)
	if !ok {
		return true
	}
	db, ub := def.Parent(), use.Parent()
	if db == nil || ub == nil {
		return false
	}
	if use.Op == OpPhi {
		// A phi use must dominate the end of the corresponding predecessor.
		for i, a := range use.Args {
			if a == v {
				pred := use.Blocks[i]
				if !dt.Dominates(db, pred) {
					return false
				}
				if db == pred && !instrPrecedesEnd(def, pred) {
					return false
				}
			}
		}
		return true
	}
	if db != ub {
		return dt.StrictlyDominates(db, ub)
	}
	// Same block: def must come before use.
	for _, in := range db.Instrs {
		if in == def {
			return true
		}
		if in == use {
			return false
		}
	}
	return false
}

func instrPrecedesEnd(def *Instr, b *Block) bool {
	for _, in := range b.Instrs {
		if in == def {
			return true
		}
	}
	return false
}

// Frontier computes the dominance frontier of every reachable block
// (Cooper–Harvey–Kennedy style), used by mem2reg's phi placement.
func (dt *DomTree) Frontier() map[*Block][]*Block {
	df := make(map[*Block][]*Block)
	add := func(b, f *Block) {
		for _, x := range df[b] {
			if x == f {
				return
			}
		}
		df[b] = append(df[b], f)
	}
	for k := len(dt.post) - 1; k >= 0; k-- { // reverse postorder
		bi := dt.post[k]
		b := dt.blocks[bi]
		preds := dt.preds[dt.predOff[bi]:dt.predOff[bi+1]]
		if len(preds) < 2 {
			continue
		}
		for _, p := range preds {
			if dt.idom[p] < 0 {
				continue
			}
			for runner := p; runner != dt.idom[bi]; runner = dt.idom[runner] {
				add(dt.blocks[runner], b)
				if runner == dt.idom[runner] {
					break
				}
			}
		}
	}
	return df
}

// RPO returns the reachable blocks in reverse postorder.
func (dt *DomTree) RPO() []*Block { return dt.order }
