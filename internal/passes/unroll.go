package passes

import "autophase/internal/ir"

// Unroll thresholds, in the spirit of LLVM's -unroll-threshold.
const (
	maxUnrollTrips  = 32  // full unroll only for trip counts up to this
	maxUnrolledSize = 320 // and only when copies × body size stays below this
)

// loopUnroll fully unrolls rotated counted loops with small constant trip
// counts. It requires do-while (latch-exiting) form with a computable trip
// count — which is exactly why the paper's agents learn to schedule
// -loop-rotate before -loop-unroll.
func loopUnroll(f *ir.Func) bool { return rewriteLoops(f, unrollOne) }

// unrollOne fully unrolls l. A loop holding inner loops qualifies too: its
// copies clone the inner loops' blocks with the rest of the body.
func unrollOne(f *ir.Func, l *ir.Loop) bool {
	ph := l.Preheader()
	latch := l.SingleLatch()
	if ph == nil || latch == nil {
		return false
	}
	// Only the latch may leave the loop, and it must carry the counted test.
	if ex := l.ExitingBlocks(); len(ex) != 1 || ex[0] != latch {
		return false
	}
	ivs := analyzeIVs(l, ph, latch)
	et, ok := latchExitTest(l, latch, ivs)
	if !ok {
		return false
	}
	n64, ok := et.tripCount()
	if !ok || n64 > maxUnrollTrips {
		return false
	}
	n := int(n64)
	size := 0
	for _, b := range l.Body {
		size += len(b.Instrs)
	}
	if n*size > maxUnrolledSize {
		return false
	}
	exits := l.Exits()
	if len(exits) != 1 {
		return false
	}
	exit := exits[0]

	h := l.Header
	phis := h.Phis()
	// Every header phi needs preheader and latch incomings (canonical).
	type carried struct {
		phi     *ir.Instr
		initVal ir.Value
		nextVal ir.Value
	}
	var cs []carried
	for _, phi := range phis {
		vp, okP := phi.PhiIncoming(ph)
		vl, okL := phi.PhiIncoming(latch)
		if !okP || !okL {
			return false
		}
		cs = append(cs, carried{phi, vp, vl})
	}

	inLoop := make(map[*ir.Block]bool, len(l.Body))
	for _, b := range l.Body {
		inLoop[b] = true
	}

	// cur maps original loop values to their incarnation in the copy being
	// built; starts with phi -> preheader initial values.
	cur := make(map[ir.Value]ir.Value)
	for _, c := range cs {
		cur[c.phi] = c.initVal
	}
	subst := func(v ir.Value) ir.Value {
		if r, ok := cur[v]; ok {
			return r
		}
		return v
	}

	// lastVals[orig] = value after the final iteration, for outside uses.
	var newBlocks []*ir.Block
	insertAfter := l.Body[len(l.Body)-1]
	prevTail := ph // block whose terminator enters the next copy

	for it := 0; it < n; it++ {
		bmap := make(map[*ir.Block]*ir.Block, len(l.Body))
		for _, b := range l.Body {
			nb := &ir.Block{Name: b.Name + ".it" + itoa(it)}
			f.AddBlockAfter(nb, insertAfter)
			insertAfter = nb
			bmap[b] = nb
			newBlocks = append(newBlocks, nb)
		}
		iterMap := make(map[*ir.Instr]*ir.Instr)
		for _, b := range l.Body {
			nb := bmap[b]
			for _, in := range b.Instrs {
				if in.Op == ir.OpPhi && b == h {
					continue // header phis become direct values
				}
				ni := in.Copy() // operands are remapped below
				ni.Name = ""
				for k, tb := range ni.Blocks {
					if ntb, ok := bmap[tb]; ok {
						ni.Blocks[k] = ntb
					}
				}
				iterMap[in] = ni
				nb.Append(ni)
			}
		}
		// Remap operands: loop values to this iteration's incarnation,
		// header phis to the carried-in values.
		for _, b := range l.Body {
			for _, in := range b.Instrs {
				ni, ok := iterMap[in]
				if !ok {
					continue
				}
				for ai, a := range ni.Args {
					if d, isI := a.(*ir.Instr); isI {
						if nd, ok := iterMap[d]; ok {
							ni.Args[ai] = nd
							continue
						}
						if inLoop[d.Parent()] {
							ni.Args[ai] = subst(d)
						}
					}
				}
				// Inner phis (non-header) keep their incoming-block mapping
				// through bmap; their pred set is intact inside the copy.
			}
		}
		// Wire the previous copy (or preheader) into this one.
		prevTail.Term().ReplaceTarget(prevTarget(prevTail, h, bmap[h]), bmap[h])
		// The latch copy: decide statically.
		nl := bmap[latch]
		lt := nl.Term()
		nl.Remove(lt)
		if it == n-1 {
			nl.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{exit}})
		} else {
			// Continue into the next copy: resolved next round via
			// prevTail wiring; place a temporary branch to exit that the
			// next iteration's wiring retargets to its header copy.
			nl.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{exit}})
		}
		prevTail = nl
		// Update carried values for the next iteration / outside uses.
		next := make(map[ir.Value]ir.Value, len(cs))
		for _, c := range cs {
			nv := c.nextVal
			if d, isI := nv.(*ir.Instr); isI {
				if nd, ok := iterMap[d]; ok {
					nv = nd
				} else if inLoop[d.Parent()] {
					nv = subst(d)
				}
			}
			next[c.phi] = nv
		}
		// Record final incarnations of every loop instruction.
		for old, nw := range iterMap {
			cur[old] = nw
		}
		if it < n-1 {
			for _, c := range cs {
				cur[c.phi] = next[c.phi]
			}
		}
		// In the last copy, cur[phi] keeps the carried-in value: an outside
		// use of a header phi observes the value assigned on entry to the
		// final iteration, not the post-increment value (that one is the
		// final incarnation of the increment instruction itself).
	}

	// Outside uses of loop values (in the exit block or beyond, and in exit
	// phis keyed by the latch) now read the final incarnations.
	newSet := make(map[*ir.Block]bool, len(newBlocks))
	for _, b := range newBlocks {
		newSet[b] = true
	}
	for _, b := range f.Blocks {
		if inLoop[b] || newSet[b] {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				// The latch edge now originates at the last copy; edges via
				// dedicated .loopexit forwarding blocks are untouched.
				for i, pb := range in.Blocks {
					if pb == latch {
						in.Blocks[i] = prevTail
					}
				}
			}
			for ai, a := range in.Args {
				if d, isI := a.(*ir.Instr); isI && inLoop[d.Parent()] {
					in.Args[ai] = subst(d)
				}
			}
		}
	}

	// Detach the original loop body.
	removeUnreachableBlocks(f)
	return true
}

// prevTarget returns which successor of tail should be retargeted into the
// next copy's header: the preheader targets the original header; a copied
// latch was temporarily branched to the exit.
func prevTarget(tail *ir.Block, origHeader, _ *ir.Block) *ir.Block {
	t := tail.Term()
	for _, s := range t.Blocks {
		if s == origHeader {
			return origHeader
		}
	}
	// Copied latch: its temporary target is its single successor.
	return t.Blocks[0]
}
