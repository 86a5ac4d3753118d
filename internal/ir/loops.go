package ir

// Loop is a natural loop discovered from a back edge: Header dominates every
// block in Body, and Latches branch back to Header.
type Loop struct {
	Header  *Block
	Body    []*Block // includes Header
	Latches []*Block // blocks with an edge Body -> Header
	Parent  *Loop    // enclosing loop, if any
	Depth   int      // nesting depth, 1 = outermost

	dt *DomTree // the tree the loop was found with; answers Preheader
}

// Contains reports whether b belongs to the loop body.
func (l *Loop) Contains(b *Block) bool {
	for _, x := range l.Body {
		if x == b {
			return true
		}
	}
	return false
}

// Exits returns the blocks outside the loop that are branched to from
// inside it.
func (l *Loop) Exits() []*Block {
	var exits []*Block
	for _, b := range l.Body {
		for _, s := range b.Succs() {
			if !l.Contains(s) && !containsBlock(exits, s) {
				exits = append(exits, s)
			}
		}
	}
	return exits
}

// ExitingBlocks returns the in-loop blocks with an edge leaving the loop.
func (l *Loop) ExitingBlocks() []*Block {
	var ex []*Block
	for _, b := range l.Body {
		for _, s := range b.Succs() {
			if !l.Contains(s) {
				ex = append(ex, b)
				break
			}
		}
	}
	return ex
}

// Preheader returns the unique out-of-loop predecessor of the header whose
// only successor is the header, or nil if the loop has not been simplified.
// Predecessors come from the dominator tree the loop was found with, so
// the answer describes the CFG as it was then.
func (l *Loop) Preheader() *Block {
	var outside *Block
	for _, p := range l.dt.Preds(l.Header) {
		if !l.Contains(p) {
			if outside != nil {
				return nil
			}
			outside = p
		}
	}
	if outside == nil || len(outside.Succs()) != 1 {
		return nil
	}
	return outside
}

// Dom returns the dominator tree the loop was found with. Its Preds answer
// for the CFG as it was then, without rescanning the function.
func (l *Loop) Dom() *DomTree { return l.dt }

// SingleLatch returns the latch when the loop has exactly one, else nil.
func (l *Loop) SingleLatch() *Block {
	if len(l.Latches) == 1 {
		return l.Latches[0]
	}
	return nil
}

// FindLoops discovers the natural loops of f using dominator-based back-edge
// detection, merging loops that share a header and linking nesting parents.
// Loops are returned innermost-last within each nest, outermost headers in
// block order. It reads the CFG through dt's tables, so f must not have
// changed since dt was built.
//
// Every table is sized exactly before it is filled: the loops come from
// one []Loop, and all latch lists and bodies are carved from one []*Block.
func FindLoops(f *Func, dt *DomTree) []*Loop {
	// Back edges b -> h, where h dominates b, in reverse postorder of b.
	backEdges := func(visit func(b, h int32)) {
		for k := len(dt.post) - 1; k >= 0; k-- {
			b := dt.post[k]
			for _, s := range dt.succs[dt.succOff[b]:dt.succOff[b+1]] {
				if dt.dominates(s, b) {
					visit(b, s)
				}
			}
		}
	}
	ne := 0
	backEdges(func(_, _ int32) { ne++ })
	if ne == 0 {
		return nil
	}
	nb := len(dt.blocks)
	slab := make([]int32, 3*ne+nb)
	headers := slab[:0:ne]         // headers[i] is the number of loop i's header
	edgeLoop := slab[ne : 2*ne]    // back edge -> its loop
	edgeLatch := slab[2*ne : 3*ne] // back edge -> its latch
	stack := slab[3*ne : 3*ne]     // body walk; each block is pushed once
	ne = 0
	backEdges(func(b, h int32) {
		i := int32(len(headers))
		for j, x := range headers {
			if x == h {
				i = int32(j)
				break
			}
		}
		if int(i) == len(headers) {
			headers = append(headers, h)
		}
		edgeLoop[ne], edgeLatch[ne] = i, b
		ne++
	})
	nl := len(headers)

	// Bodies: reverse reachability from the latches without passing
	// through the header. Row i of inBody is loop i's body set; nBody
	// counts the members that are blocks of f.
	inBody := make([]bool, nl*nb)
	nBody := 0
	for i, h := range headers {
		in := inBody[i*nb : (i+1)*nb]
		mark := func(b int32) {
			in[b] = true
			if int(b) < dt.nFunc {
				nBody++
			}
		}
		mark(h)
		for e, li := range edgeLatch {
			if edgeLoop[e] == int32(i) && !in[li] {
				mark(li)
				stack = append(stack, li)
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range dt.preds[dt.predOff[b]:dt.predOff[b+1]] {
				if !in[p] {
					mark(p)
					stack = append(stack, p)
				}
			}
		}
	}

	ls := make([]Loop, nl)
	loops := make([]*Loop, nl)
	blk := make([]*Block, ne+nBody)
	for i, h := range headers {
		l := &ls[i]
		l.Header, l.dt = dt.blocks[h], dt
		n := 0
		for _, li := range edgeLoop {
			if li == int32(i) {
				n++
			}
		}
		l.Latches, blk = blk[:0:n], blk[n:]
		for e, li := range edgeLoop {
			if li == int32(i) {
				l.Latches = append(l.Latches, dt.blocks[edgeLatch[e]])
			}
		}
		// Keep function block order for determinism. A block outside f
		// (malformed IR) is left out of the body, though it may be a latch.
		in := inBody[i*nb : i*nb+dt.nFunc]
		n = 0
		for _, x := range in {
			if x {
				n++
			}
		}
		l.Body, blk = blk[:0:n], blk[n:]
		for bi, x := range in {
			if x {
				l.Body = append(l.Body, dt.blocks[bi])
			}
		}
		loops[i] = l
	}
	// Nesting: loop A is nested in B if B != A and B contains A's header.
	for i, l := range loops {
		var best *Loop
		for j, o := range loops {
			if j == i || !inBody[j*nb+int(headers[i])] {
				continue
			}
			if best == nil || len(o.Body) < len(best.Body) {
				best = o
			}
		}
		l.Parent = best
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return loops
}

// CriticalEdges returns the critical edges of f: edges whose source has
// multiple successors and whose destination has multiple predecessor edges.
func CriticalEdges(f *Func) [][2]*Block {
	var edges [][2]*Block
	for _, b := range f.Blocks {
		succs := b.Succs()
		if len(succs) < 2 {
			continue
		}
		for _, s := range succs {
			if s.NumPredEdges() > 1 {
				edges = append(edges, [2]*Block{b, s})
			}
		}
	}
	return edges
}

// SplitEdge inserts a fresh block on the edge from -> to, rewriting the
// branch target and any phis in to. It returns the new block.
func SplitEdge(f *Func, from, to *Block, name string) *Block {
	nb := &Block{Name: name, parent: f}
	f.AddBlockAfter(nb, from)
	nb.Append(&Instr{Op: OpBr, Ty: Void, Blocks: []*Block{to}})
	from.Term().ReplaceTarget(to, nb)
	for _, phi := range to.Phis() {
		for i, pb := range phi.Blocks {
			if pb == from {
				phi.Blocks[i] = nb
			}
		}
	}
	return nb
}
