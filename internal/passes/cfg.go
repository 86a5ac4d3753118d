package passes

import "autophase/internal/ir"

// simplifyCFG folds constant branches, removes unreachable blocks, merges
// straight-line block pairs, skips empty forwarding blocks and collapses
// conditional branches with identical targets — fewer basic blocks means
// fewer FSM state transitions in the synthesized circuit.
func simplifyCFG(f *ir.Func) bool {
	changed := false
	for simplifyCFGOnce(f) {
		changed = true
	}
	return changed
}

func simplifyCFGOnce(f *ir.Func) bool {
	changed := false

	// 1. Fold constant conditional branches and constant switches.
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		switch {
		case t.IsConditionalBr():
			if c, ok := ir.IsConst(t.Args[0]); ok {
				taken, dropped := t.Blocks[0], t.Blocks[1]
				if c == 0 {
					taken, dropped = dropped, taken
				}
				if dropped != taken {
					for _, phi := range dropped.Phis() {
						phi.RemovePhiIncoming(b)
					}
				}
				b.Remove(t)
				nb := &ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{taken}}
				b.Append(nb)
				changed = true
			} else if t.Blocks[0] == t.Blocks[1] {
				dest := t.Blocks[0]
				b.Remove(t)
				b.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{dest}})
				changed = true
			}
		case t.Op == ir.OpSwitch:
			if c, ok := ir.IsConst(t.Args[0]); ok {
				dest := t.Blocks[0]
				for i, cv := range t.Cases {
					if cv == c {
						dest = t.Blocks[i+1]
						break
					}
				}
				for _, tb := range t.Blocks {
					if tb != dest {
						for _, phi := range tb.Phis() {
							phi.RemovePhiIncoming(b)
						}
					}
				}
				b.Remove(t)
				b.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{dest}})
				changed = true
			}
		}
	}

	if removeUnreachableBlocks(f) {
		changed = true
	}

	// 2. Merge b -> s when b's only successor is s and s's only predecessor
	// is b.
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpBr || len(t.Blocks) != 1 {
			continue
		}
		s := t.Blocks[0]
		if s == b || s == f.Entry() {
			continue
		}
		if s.NumPredEdges() != 1 { // one edge, so one predecessor
			continue
		}
		// Resolve s's phis: single pred means each phi is its sole incoming.
		for _, phi := range append([]*ir.Instr(nil), s.Phis()...) {
			v, ok := phi.PhiIncoming(b)
			if !ok {
				v = &ir.Undef{Ty: phi.Ty}
			}
			f.ReplaceAllUses(phi, v)
			s.Remove(phi)
		}
		b.Remove(t)
		for _, in := range s.Instrs {
			b.Append(in)
		}
		s.Instrs = nil
		// Successors of s now see b as predecessor.
		for _, ss := range b.Succs() {
			for _, phi := range ss.Phis() {
				for i, pb := range phi.Blocks {
					if pb == s {
						phi.Blocks[i] = b
					}
				}
			}
		}
		f.RemoveBlock(s)
		changed = true
		break // block list mutated; restart via outer loop
	}

	// 3. Skip empty forwarding blocks: pred -> empty -> dest becomes
	// pred -> dest, when dest's phis can absorb the edge.
	for _, b := range f.Blocks {
		if !b.IsEmptyForward() || b == f.Entry() {
			continue
		}
		dest := b.Term().Blocks[0]
		if dest == b {
			continue
		}
		preds := b.Preds()
		if len(preds) == 0 {
			continue
		}
		ok := true
		for _, p := range preds {
			// Don't create duplicate phi-pred entries: if p already reaches
			// dest, the phis in dest would need to merge two edges from p
			// with possibly different values.
			if _, dup := phiHasIncoming(dest, p); dup && dest.NumPhis() > 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, p := range preds {
			p.Term().ReplaceTarget(b, dest)
			for _, phi := range dest.Phis() {
				v, _ := phi.PhiIncoming(b)
				if v == nil {
					v = &ir.Undef{Ty: phi.Ty}
				}
				phi.SetPhiIncoming(p, v)
			}
		}
		for _, phi := range dest.Phis() {
			phi.RemovePhiIncoming(b)
		}
		f.RemoveBlock(b)
		changed = true
		break
	}

	return changed
}

func phiHasIncoming(b *ir.Block, pred *ir.Block) (ir.Value, bool) {
	for _, s := range pred.Succs() {
		if s == b {
			return nil, true
		}
	}
	return nil, false
}

// jumpThreading forwards branches through blocks whose condition is a phi of
// constants: a predecessor contributing a constant condition can jump
// directly to the decided target, skipping one FSM state per execution.
func jumpThreading(f *ir.Func) bool {
	changed := false
	for {
		once := false
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil || !t.IsConditionalBr() {
				continue
			}
			phi, ok := t.Args[0].(*ir.Instr)
			if !ok || phi.Op != ir.OpPhi || phi.Parent() != b {
				continue
			}
			// Threading is only sound when the block does no other work the
			// predecessor would skip.
			if len(b.Instrs) != b.NumPhis()+1 {
				continue
			}
			// Other phis in b would need per-edge forwarding; keep simple.
			if b.NumPhis() != 1 {
				continue
			}
			for i, pb := range phi.Blocks {
				c, isC := ir.IsConst(phi.Args[i])
				if !isC {
					continue
				}
				dest := t.Blocks[0]
				if c == 0 {
					dest = t.Blocks[1]
				}
				if dest == b {
					continue
				}
				// Avoid duplicate-edge phi trouble in dest.
				if _, dup := phiHasIncoming(dest, pb); dup && dest.NumPhis() > 0 {
					continue
				}
				cVal := phi.Args[i]
				pb.Term().ReplaceTarget(b, dest)
				phi.RemovePhiIncoming(pb)
				for _, dphi := range dest.Phis() {
					if v, ok := dphi.PhiIncoming(b); ok {
						if v == phi {
							// The threaded edge carries the phi's constant.
							v = cVal
						}
						dphi.SetPhiIncoming(pb, v)
					} else {
						dphi.SetPhiIncoming(pb, &ir.Undef{Ty: dphi.Ty})
					}
				}
				once = true
				changed = true
				break
			}
			if once {
				break
			}
		}
		if !once {
			break
		}
		// Threading may leave b unreachable or with a single incoming.
		removeUnreachableBlocks(f)
		// A phi with one incoming left folds to that value when the block
		// really has a single predecessor.
		for _, b := range f.Blocks {
			if b.NumPreds() != 1 {
				continue
			}
			for _, phi := range append([]*ir.Instr(nil), b.Phis()...) {
				if len(phi.Args) == 1 {
					f.ReplaceAllUses(phi, phi.Args[0])
					b.Remove(phi)
				}
			}
		}
	}
	return changed
}

// breakCritEdges splits every critical edge by inserting a forwarding block,
// the canonical enabling transform for sinking and phi placement.
func breakCritEdges(f *ir.Func) bool {
	edges := ir.CriticalEdges(f)
	for i, e := range edges {
		ir.SplitEdge(f, e[0], e[1], "crit"+itoa(i))
	}
	return len(edges) > 0
}

// lowerSwitch rewrites switch terminators into chains of conditional
// branches, as LLVM's -lowerswitch does for targets without jump tables.
// Switches whose targets carry phis or repeat blocks are left alone (our
// front-ends emit phi-free case targets).
func lowerSwitch(f *ir.Func) bool {
	changed := false
	for _, b := range append([]*ir.Block(nil), f.Blocks...) {
		t := b.Term()
		if t == nil || t.Op != ir.OpSwitch {
			continue
		}
		seen := make(map[*ir.Block]bool)
		ok := true
		for _, tb := range t.Blocks {
			if seen[tb] || tb.NumPhis() > 0 {
				ok = false
				break
			}
			seen[tb] = true
		}
		if !ok {
			continue
		}
		v := t.Args[0]
		def := t.Blocks[0]
		cases := t.Cases
		targets := append([]*ir.Block(nil), t.Blocks[1:]...)
		b.Remove(t)
		cur := b
		for i, cv := range cases {
			cmp := &ir.Instr{Op: ir.OpICmp, Ty: ir.I1, Pred: ir.CmpEQ,
				Args: []ir.Value{v, ir.ConstInt(v.Type(), cv)}}
			cur.Append(cmp)
			var next *ir.Block
			if i == len(cases)-1 {
				next = def
			} else {
				next = &ir.Block{Name: "swcase" + itoa(i)}
				f.AddBlockAfter(next, cur)
			}
			cur.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Args: []ir.Value{cmp},
				Blocks: []*ir.Block{targets[i], next}})
			cur = next
		}
		if len(cases) == 0 {
			cur.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{def}})
		}
		changed = true
	}
	return changed
}

// codegenPrepare sinks address computations (GEPs) and compares into the
// blocks where they are used, shortening live ranges before scheduling.
func codegenPrepare(f *ir.Func) bool {
	changed := false
	var snap []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range instrsOf(&snap, b) {
			if in.Op != ir.OpGEP && in.Op != ir.OpICmp {
				continue
			}
			u := soleUser(f, in)
			if u == nil {
				continue
			}
			ub := u.Parent()
			if ub == b || u.Op == ir.OpPhi {
				continue
			}
			// Move in to just before its single use.
			b.Remove(in)
			ub.InsertBefore(in, u)
			changed = true
		}
	}
	return changed
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		p--
		buf[p] = '-'
	}
	return string(buf[p:])
}
