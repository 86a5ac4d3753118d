package passes

import "autophase/internal/ir"

// mem2reg promotes scalar allocas whose address does not escape into SSA
// registers, inserting phi nodes at iterated dominance frontiers — the
// classic enabling pass without which the scalar optimizations see only
// loads and stores.
func mem2reg(f *ir.Func) bool {
	var allocas []*ir.Instr
	for _, in := range f.Entry().Instrs {
		if in.Op == ir.OpAlloca && promotableAlloca(f, in) {
			allocas = append(allocas, in)
		}
	}
	// Allocas outside the entry block are also promotable if they dominate
	// all their uses; keep to entry-block allocas (the common case our
	// frontends produce) for safety.
	if len(allocas) == 0 {
		return false
	}

	dt := ir.NewDomTree(f)
	df := dt.Frontier()
	reach := f.ReachableBlocks()

	type phiInfo struct {
		phi    *ir.Instr
		alloca *ir.Instr
	}
	var phis []phiInfo

	for _, al := range allocas {
		// Blocks containing stores to al.
		var defBlocks []*ir.Block
		seen := make(map[*ir.Block]bool)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpStore && in.Args[1] == al && !seen[b] {
					seen[b] = true
					defBlocks = append(defBlocks, b)
				}
			}
		}
		// Iterated dominance frontier.
		placed := make(map[*ir.Block]bool)
		work := append([]*ir.Block(nil), defBlocks...)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fb := range df[b] {
				if placed[fb] || !reach[fb] {
					continue
				}
				placed[fb] = true
				phi := &ir.Instr{Op: ir.OpPhi, Ty: al.Ty.Elem}
				fb.Prepend(phi)
				phis = append(phis, phiInfo{phi, al})
				work = append(work, fb)
			}
		}
	}

	// Renaming walk over the dominator tree.
	phiAlloca := make(map[*ir.Instr]*ir.Instr, len(phis))
	for _, pi := range phis {
		phiAlloca[pi.phi] = pi.alloca
	}
	isPromoted := make(map[*ir.Instr]bool, len(allocas))
	for _, al := range allocas {
		isPromoted[al] = true
	}

	// Children lists for the dominator tree walk.
	children := make(map[*ir.Block][]*ir.Block)
	for _, b := range f.Blocks {
		if !reach[b] {
			continue
		}
		if id := dt.IDom(b); id != nil {
			children[id] = append(children[id], b)
		}
	}

	type stackFrame struct {
		block *ir.Block
		saved map[*ir.Instr]ir.Value
	}
	cur := make(map[*ir.Instr]ir.Value, len(allocas)) // alloca -> current value

	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		saved := make(map[*ir.Instr]ir.Value, len(cur))
		for k, v := range cur {
			saved[k] = v
		}
		// Phis at block head define new current values.
		for _, in := range b.Phis() {
			if al, ok := phiAlloca[in]; ok {
				cur[al] = in
			}
		}
		// Rewrite loads, record stores.
		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			switch in.Op {
			case ir.OpLoad:
				if al, ok := in.Args[0].(*ir.Instr); ok && isPromoted[al] {
					v := cur[al]
					if v == nil {
						v = &ir.Undef{Ty: in.Ty}
					}
					f.ReplaceAllUses(in, v)
					b.Remove(in)
				}
			case ir.OpStore:
				if al, ok := in.Args[1].(*ir.Instr); ok && isPromoted[al] {
					cur[al] = in.Args[0]
					b.Remove(in)
				}
			}
		}
		// Fill successor phi incomings.
		for _, s := range b.Succs() {
			for _, phi := range s.Phis() {
				if al, ok := phiAlloca[phi]; ok {
					v := cur[al]
					if v == nil {
						v = &ir.Undef{Ty: phi.Ty}
					}
					phi.SetPhiIncoming(b, v)
				}
			}
		}
		for _, c := range children[b] {
			walk(c)
		}
		cur = saved
	}
	walk(f.Entry())

	// Remove the promoted allocas.
	for _, al := range allocas {
		al.Parent().Remove(al)
	}
	// Phis in blocks with duplicate-edge preds: ensure each pred has an
	// incoming (verifier requires exactly the pred set).
	for _, pi := range phis {
		b := pi.phi.Parent()
		for _, p := range dt.Preds(b) { // promotion adds no edges
			if _, ok := pi.phi.PhiIncoming(p); !ok {
				pi.phi.SetPhiIncoming(p, &ir.Undef{Ty: pi.phi.Ty})
			}
		}
	}
	return true
}
