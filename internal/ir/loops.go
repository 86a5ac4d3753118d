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
	seen := make(map[*Block]bool)
	for _, b := range l.Body {
		for _, s := range b.Succs() {
			if !l.Contains(s) && !seen[s] {
				seen[s] = true
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
func FindLoops(f *Func, dt *DomTree) []*Loop {
	var loops []*Loop
	var headers []int32 // headers[i] is the number of loops[i].Header
	for _, b := range dt.order {
		bi := dt.index[b]
		for _, s := range dt.succs[dt.succOff[bi]:dt.succOff[bi+1]] {
			if !dt.dominates(s, bi) {
				continue
			}
			// Back edge b -> s.
			var l *Loop
			for i, h := range headers {
				if h == s {
					l = loops[i]
					break
				}
			}
			if l == nil {
				l = &Loop{Header: dt.blocks[s], dt: dt}
				loops = append(loops, l)
				headers = append(headers, s)
			}
			l.Latches = append(l.Latches, b)
		}
	}
	// Populate bodies: reverse reachability from latches without passing
	// through the header. Row i of inBody is loop i's body set.
	nb := len(dt.blocks)
	inBody := make([]bool, len(loops)*nb)
	var stack []int32
	for i, l := range loops {
		in := inBody[i*nb : (i+1)*nb]
		in[headers[i]] = true
		for _, latch := range l.Latches {
			if li := dt.index[latch]; !in[li] {
				in[li] = true
				stack = append(stack, li)
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range dt.preds[dt.predOff[b]:dt.predOff[b+1]] {
				if !in[p] {
					in[p] = true
					stack = append(stack, p)
				}
			}
		}
		// Keep function block order for determinism.
		for bi, b := range dt.blocks[:dt.nFunc] {
			if in[bi] {
				l.Body = append(l.Body, b)
			}
		}
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
