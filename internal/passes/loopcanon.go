package passes

import "autophase/internal/ir"

// loopSimplify canonicalizes every natural loop: a dedicated preheader, a
// single latch block, and dedicated exits whose predecessors are all inside
// the loop — the form the other loop passes require (LLVM's -loop-simplify).
func loopSimplify(f *ir.Func) bool {
	_, changed := simplifiedLoops(f)
	return changed
}

// simplifiedLoops runs loopSimplify and also returns the loops of its last
// round, which changed nothing: they describe the CFG it leaves, so the
// loop passes start from them instead of recomputing loopsOf.
func simplifiedLoops(f *ir.Func) (loops []*ir.Loop, changed bool) {
	for {
		loops = loopsOf(f)
		again := false
		for _, l := range loops {
			if insertPreheader(f, l) || mergeLatches(f, l) || dedicateExits(f, l) {
				again = true
				break
			}
		}
		if !again {
			return loops, changed
		}
		changed = true
	}
}

// rewriteLoops simplifies f's loops, then applies one to them innermost
// first; after each loop one rewrites it recomputes the loops and starts
// over, until one leaves every loop unchanged.
func rewriteLoops(f *ir.Func, one func(*ir.Func, *ir.Loop) bool) bool {
	loops, changed := simplifiedLoops(f)
	for {
		hit := false
		for _, l := range loops {
			if one(f, l) {
				hit = true
				break
			}
		}
		if !hit {
			return changed
		}
		changed = true
		loops = loopsOf(f)
	}
}

// insertPreheader gives l a dedicated preheader when it lacks one.
func insertPreheader(f *ir.Func, l *ir.Loop) bool {
	if l.Preheader() != nil {
		return false
	}
	h := l.Header
	var outside []*ir.Block
	for _, p := range l.Dom().Preds(h) {
		if !l.Contains(p) {
			outside = append(outside, p)
		}
	}
	if len(outside) == 0 {
		return false // dead loop header (unreachable); leave alone
	}
	ph := &ir.Block{Name: h.Name + ".ph"}
	f.AddBlockAfter(ph, outsidePos(f, outside))
	ph.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{h}})
	// Header phis: merge the outside incomings into a phi in the preheader
	// (or forward directly when there is only one outside pred).
	for _, phi := range h.Phis() {
		if len(outside) == 1 {
			if v, ok := phi.PhiIncoming(outside[0]); ok {
				phi.RemovePhiIncoming(outside[0])
				phi.SetPhiIncoming(ph, v)
			}
			continue
		}
		np := &ir.Instr{Op: ir.OpPhi, Ty: phi.Ty}
		for _, ob := range outside {
			v, ok := phi.PhiIncoming(ob)
			if !ok {
				v = &ir.Undef{Ty: phi.Ty}
			}
			np.SetPhiIncoming(ob, v)
			phi.RemovePhiIncoming(ob)
		}
		ph.Prepend(np)
		phi.SetPhiIncoming(ph, np)
	}
	for _, ob := range outside {
		ob.Term().ReplaceTarget(h, ph)
	}
	return true
}

func outsidePos(f *ir.Func, outside []*ir.Block) *ir.Block {
	best := outside[0]
	bi := best.Index()
	for _, b := range outside[1:] {
		if i := b.Index(); i > bi {
			best, bi = b, i
		}
	}
	return best
}

// mergeLatches funnels multiple latch edges through a single backedge block.
func mergeLatches(f *ir.Func, l *ir.Loop) bool {
	if len(l.Latches) <= 1 {
		return false
	}
	h := l.Header
	be := &ir.Block{Name: h.Name + ".backedge"}
	f.AddBlockAfter(be, l.Latches[len(l.Latches)-1])
	be.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{h}})
	for _, phi := range h.Phis() {
		np := &ir.Instr{Op: ir.OpPhi, Ty: phi.Ty}
		for _, lt := range l.Latches {
			v, ok := phi.PhiIncoming(lt)
			if !ok {
				v = &ir.Undef{Ty: phi.Ty}
			}
			np.SetPhiIncoming(lt, v)
			phi.RemovePhiIncoming(lt)
		}
		be.Prepend(np)
		phi.SetPhiIncoming(be, np)
	}
	for _, lt := range l.Latches {
		lt.Term().ReplaceTarget(h, be)
	}
	return true
}

// dedicateExits splits edges leaving the loop that land in blocks which also
// have predecessors outside the loop. It returns after the first exit it
// splits, so the predecessors it reads are those of the loop's tree. It
// walks the exit edges in place, in the order of l.Exits(): an exit reached
// again by a later edge was left alone the first time and is again.
func dedicateExits(f *ir.Func, l *ir.Loop) bool {
	changed := false
	for _, b := range l.Body {
		for _, e := range b.Succs() {
			if l.Contains(e) {
				continue
			}
			preds := l.Dom().Preds(e)
			mixed := false
			for _, p := range preds {
				if !l.Contains(p) {
					mixed = true
				}
			}
			if !mixed {
				continue
			}
			for _, p := range preds {
				if l.Contains(p) {
					ir.SplitEdge(f, p, e, e.Name+".loopexit")
					changed = true
				}
			}
			if changed {
				return true
			}
		}
	}
	return false
}

// lcssa inserts single-incoming phis in exit blocks for loop-defined values
// used outside the loop, putting the function in loop-closed SSA form.
func lcssa(f *ir.Func) bool {
	changed := false
	var uses *useIndex
	stale := true
	for _, l := range loopsOf(f) {
		inLoop := make(map[*ir.Block]bool)
		for _, b := range l.Body {
			inLoop[b] = true
		}
		// At most one index per loop: the rewrites below only redirect uses
		// of the instruction being processed, so the users of every later
		// one are unchanged. The next loop may contain this one's new exit
		// phis, so an index is rebuilt after a loop that inserted any.
		if stale {
			uses, stale = newUseIndex(f), false
		}
		for _, b := range l.Body {
			for _, in := range b.Instrs {
				if in.Ty.IsVoid() {
					continue
				}
				var outsideUses []*ir.Instr
				for _, u := range uses.of(in) {
					if !inLoop[u.Parent()] {
						outsideUses = append(outsideUses, u)
					}
				}
				if len(outsideUses) == 0 {
					continue
				}
				// Group uses per exit block they are reached through; only
				// the simple case of uses in single-pred exit blocks is
				// rewritten (loop-simplify gives dedicated exits).
				for _, e := range l.Exits() {
					preds := l.Dom().Preds(e) // lcssa adds phis, never edges
					if len(preds) != 1 || !inLoop[preds[0]] {
						continue
					}
					var usesHere []*ir.Instr
					for _, u := range outsideUses {
						if u.Parent() == e && u.Op != ir.OpPhi {
							usesHere = append(usesHere, u)
						}
					}
					if len(usesHere) == 0 {
						continue
					}
					phi := &ir.Instr{Op: ir.OpPhi, Ty: in.Ty}
					phi.SetPhiIncoming(preds[0], in)
					e.Prepend(phi)
					for _, u := range usesHere {
						u.ReplaceUses(in, phi)
					}
					changed, stale = true, true
				}
			}
		}
	}
	return changed
}

// loopRotate converts canonical while-loops into do-while form: the header's
// exit test is duplicated into the preheader (guard) and the latch, removing
// one block — one FSM state — from every iteration, which is why the paper's
// forests single it out as the most impactful pass.
func loopRotate(f *ir.Func) bool { return rewriteLoops(f, rotateOne) }

func rotateOne(f *ir.Func, l *ir.Loop) bool {
	h := l.Header
	ph := l.Preheader()
	latch := l.SingleLatch()
	if ph == nil || latch == nil || latch == h {
		return false
	}
	t := h.Term()
	if t == nil || !t.IsConditionalBr() {
		return false // already rotated or not an exiting header
	}
	var bodyIdx int
	switch {
	case l.Contains(t.Blocks[0]) && !l.Contains(t.Blocks[1]):
		bodyIdx = 0
	case !l.Contains(t.Blocks[0]) && l.Contains(t.Blocks[1]):
		bodyIdx = 1
	default:
		return false
	}
	body := t.Blocks[bodyIdx]
	exit := t.Blocks[1-bodyIdx]
	if body == h || exit == h {
		return false
	}
	// The latch must re-enter the header unconditionally (canonical form).
	lt := latch.Term()
	if lt == nil || lt.Op != ir.OpBr || len(lt.Blocks) != 1 {
		return false
	}
	// Structural guards keeping the rewiring exact.
	if body.NumPhis() > 0 || exit.NumPhis() > 0 {
		return false
	}
	if len(l.Dom().Preds(exit)) != 1 || exit.NumPredEdges() != 1 {
		return false
	}
	if len(l.Dom().Preds(body)) != 1 {
		return false
	}
	// Header layout: phis followed by the pure condition chain and the
	// branch. Any side effect in the header blocks rotation.
	phis := h.Phis()
	condChain := h.Instrs[len(phis) : len(h.Instrs)-1]
	inChain := make(map[*ir.Instr]bool, len(condChain))
	for _, in := range condChain {
		inChain[in] = true
	}
	// A phi whose latch incoming is computed in the header would need an
	// extra carried value after rotation; bail out (increments live in the
	// body or latch in canonical loops).
	for _, phi := range phis {
		if vl, ok := phi.PhiIncoming(latch); ok {
			if d, isI := vl.(*ir.Instr); isI && inChain[d] {
				return false
			}
		}
	}
	for _, in := range condChain {
		if in.HasSideEffects() || in.Op == ir.OpLoad || in.Op == ir.OpCall ||
			in.Op == ir.OpAlloca || in.Op == ir.OpMemset {
			return false
		}
	}

	// Clone the condition chain with a substitution of header phis.
	cloneChain := func(sub map[ir.Value]ir.Value, dst *ir.Block) ir.Value {
		for _, in := range condChain {
			ni := &ir.Instr{Op: in.Op, Ty: in.Ty, Pred: in.Pred, Callee: in.Callee,
				AllocTy: in.AllocTy, Cases: append([]int64(nil), in.Cases...)}
			for _, a := range in.Args {
				if r, ok := sub[a]; ok {
					ni.Args = append(ni.Args, r)
				} else {
					ni.Args = append(ni.Args, a)
				}
			}
			dst.InsertBeforeTerm(ni)
			sub[in] = ni
		}
		cond := t.Args[0]
		if r, ok := sub[cond]; ok {
			return r
		}
		return cond
	}

	// Guard in the preheader.
	subP := make(map[ir.Value]ir.Value)
	for _, phi := range phis {
		if v, ok := phi.PhiIncoming(ph); ok {
			subP[phi] = v
		}
	}
	pht := ph.Term()
	ph.Remove(pht)
	condP := cloneChain(subP, ph)
	// A fresh dedicated preheader keeps the loop in loop-simplify form
	// after rotation (the guard block has two successors).
	np := &ir.Block{Name: h.Name + ".rot.ph"}
	f.AddBlockAfter(np, ph)
	np.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{body}})
	brP := &ir.Instr{Op: ir.OpBr, Ty: ir.Void, Args: []ir.Value{condP}}
	if bodyIdx == 0 {
		brP.Blocks = []*ir.Block{np, exit}
	} else {
		brP.Blocks = []*ir.Block{exit, np}
	}
	ph.Append(brP)

	// Latch test replaces the unconditional backedge.
	subL := make(map[ir.Value]ir.Value)
	for _, phi := range phis {
		if v, ok := phi.PhiIncoming(latch); ok {
			subL[phi] = v
		}
	}
	latch.Remove(lt)
	condL := cloneChain(subL, latch)
	brL := &ir.Instr{Op: ir.OpBr, Ty: ir.Void, Args: []ir.Value{condL}}
	if bodyIdx == 0 {
		brL.Blocks = []*ir.Block{body, exit}
	} else {
		brL.Blocks = []*ir.Block{exit, body}
	}
	latch.Append(brL)

	// Move the header phis to the new loop header (body), re-keyed to the
	// new incoming edges.
	for i := len(phis) - 1; i >= 0; i-- {
		phi := phis[i]
		vp, _ := phi.PhiIncoming(ph)
		vl, _ := phi.PhiIncoming(latch)
		h.Remove(phi)
		phi.Blocks = nil
		phi.Args = nil
		phi.SetPhiIncoming(np, vp)
		phi.SetPhiIncoming(latch, vl)
		body.Prepend(phi)
	}

	// Values from the old header used in or after the exit: build merge
	// phis in the exit block (its preds are now exactly ph and latch).
	oldDefs := inChain
	// Rewrite outside uses of cond-chain values and phis: phis moved to the
	// body stay valid for in-loop uses, but outside uses need merges of the
	// per-edge exit values.
	inLoopAfter := make(map[*ir.Block]bool)
	for _, b := range l.Body {
		if b != h {
			inLoopAfter[b] = true
		}
	}
	merges := make(map[*ir.Instr]*ir.Instr)
	mergeAtExit := func(def *ir.Instr, pv, lv ir.Value) *ir.Instr {
		if mp, ok := merges[def]; ok {
			return mp
		}
		mp := &ir.Instr{Op: ir.OpPhi, Ty: def.Type()}
		mp.SetPhiIncoming(ph, pv)
		mp.SetPhiIncoming(latch, lv)
		exit.Prepend(mp)
		merges[def] = mp
		return mp
	}
	isMerge := func(in *ir.Instr) bool {
		for _, mp := range merges {
			if mp == in {
				return true
			}
		}
		return false
	}
	var snap []*ir.Instr
	for _, b := range f.Blocks {
		if inLoopAfter[b] || b == h || b == ph || b == np || b == latch {
			continue
		}
		for _, in := range instrsOf(&snap, b) {
			if isMerge(in) {
				continue // the merge phis themselves read loop values by design
			}
			for ai, a := range in.Args {
				def, ok := a.(*ir.Instr)
				if !ok {
					continue
				}
				if !oldDefs[def] && !isHeaderPhi(def, phis) {
					continue
				}
				in.Args[ai] = mergeAtExit(def, subP[def], subL[def])
			}
		}
	}
	// In-loop (non-header) uses of cond-chain values: the value for
	// iteration n now arrives from the guard (n = 1) or the latch clone of
	// iteration n-1, so in-loop uses read a merge phi at the new loop head.
	for _, b := range f.Blocks {
		if !inLoopAfter[b] {
			continue
		}
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			for ai, a := range in.Args {
				def, ok := a.(*ir.Instr)
				if !ok || !oldDefs[def] {
					continue
				}
				mp := &ir.Instr{Op: ir.OpPhi, Ty: a.Type()}
				mp.SetPhiIncoming(np, subP[def])
				mp.SetPhiIncoming(latch, subL[def])
				body.Prepend(mp)
				if b == body {
					i++ // Prepend shifted in, and everything after it, up one
				}
				in.Args[ai] = mp
			}
		}
	}

	// The old header is now bypassed; remove it.
	for _, in := range append([]*ir.Instr(nil), h.Instrs...) {
		h.Remove(in)
	}
	h.Append(&ir.Instr{Op: ir.OpUnreachable, Ty: ir.Void})
	f.RemoveBlock(h)
	return true
}

func isHeaderPhi(in *ir.Instr, phis []*ir.Instr) bool {
	for _, p := range phis {
		if p == in {
			return true
		}
	}
	return false
}
