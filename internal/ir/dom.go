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
	rpo            []int32  // block -> reverse postorder number, -1 if unreachable
	idom           []int32  // block -> immediate dominator (entry maps to itself), -1 if unreachable
}

// NewDomTree computes the dominator tree of f.
func NewDomTree(f *Func) *DomTree {
	dt := &DomTree{}
	n := len(f.Blocks)
	if n == 0 {
		return dt
	}
	dt.blocks = append(make([]*Block, 0, n), f.Blocks...)
	dt.nFunc = n
	dt.index = make(map[*Block]int32, n)
	for i, b := range dt.blocks {
		dt.index[b] = int32(i)
	}
	// Successor table. A target outside f.Blocks (only in malformed IR)
	// is numbered on first sight so the walk below still reaches it.
	dt.succOff = make([]int32, 0, n+1)
	dt.succs = make([]int32, 0, 2*n)
	for i := 0; i < len(dt.blocks); i++ {
		dt.succOff = append(dt.succOff, int32(len(dt.succs)))
		for _, s := range dt.blocks[i].Succs() {
			si, ok := dt.index[s]
			if !ok {
				si = int32(len(dt.blocks))
				dt.index[s] = si
				dt.blocks = append(dt.blocks, s)
			}
			dt.succs = append(dt.succs, si)
		}
	}
	nb := len(dt.blocks)
	dt.succOff = append(dt.succOff, int32(len(dt.succs)))

	// One int32 slab backs the per-block tables and the DFS postorder.
	slab := make([]int32, 4*nb+1)
	carve := func(k int) []int32 {
		t := slab[:k:k]
		slab = slab[k:]
		return t
	}
	dt.predOff = carve(nb + 1)
	dt.rpo = carve(nb)
	dt.idom = carve(nb)
	post := carve(nb)[:0]

	// Predecessor table: count, prefix-sum, fill. Only blocks of f are
	// predecessors, matching Block.Preds. Sources are visited in block
	// order, so a duplicate edge p -> s is the one whose source equals the
	// last source recorded for s. The scratch rows live in rpo and idom
	// until those are computed.
	last := dt.idom
	for i := range last {
		last[i] = -1
	}
	for p := int32(0); p < int32(n); p++ {
		for _, s := range dt.succs[dt.succOff[p]:dt.succOff[p+1]] {
			if last[s] != p {
				last[s] = p
				dt.predOff[s+1]++
			}
		}
	}
	for i := 0; i < nb; i++ {
		dt.predOff[i+1] += dt.predOff[i]
	}
	dt.preds = make([]int32, dt.predOff[nb])
	dt.predBlk = make([]*Block, dt.predOff[nb])
	next := dt.rpo // write cursor per target
	copy(next, dt.predOff[:nb])
	for p := int32(0); p < int32(n); p++ {
		for _, s := range dt.succs[dt.succOff[p]:dt.succOff[p+1]] {
			if k := next[s]; k == dt.predOff[s] || dt.preds[k-1] != p {
				dt.preds[k] = p
				dt.predBlk[k] = dt.blocks[p]
				next[s] = k + 1
			}
		}
	}

	// Postorder DFS from the entry: iterative, visiting successors in the
	// same order as the recursive formulation. rpo marks visited blocks
	// with 0 until the real numbers are assigned.
	for i := 0; i < nb; i++ {
		dt.rpo[i] = -1
		dt.idom[i] = -1
	}
	type frame struct{ b, next int32 }
	stack := make([]frame, 1, nb)
	stack[0] = frame{0, dt.succOff[0]}
	dt.rpo[0] = 0
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < dt.succOff[top.b+1] {
			s := dt.succs[top.next]
			top.next++
			if dt.rpo[s] < 0 {
				dt.rpo[s] = 0
				stack = append(stack, frame{s, dt.succOff[s]})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	dt.order = make([]*Block, len(post))
	for k := range post {
		b := post[len(post)-1-k]
		dt.rpo[b] = int32(k)
		dt.order[k] = dt.blocks[b]
	}

	dt.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for k := len(post) - 2; k >= 0; k-- { // reverse postorder, entry skipped
			b := post[k]
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
	for _, b := range dt.order {
		bi := dt.index[b]
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
