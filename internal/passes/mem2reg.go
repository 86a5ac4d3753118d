package passes

import "autophase/internal/ir"

// mem2reg promotes scalar allocas whose address does not escape into SSA
// registers, inserting phi nodes at iterated dominance frontiers — the
// classic enabling pass without which the scalar optimizations see only
// loads and stores.
func mem2reg(f *ir.Func) bool {
	// Allocas outside the entry block are also promotable if they dominate
	// all their uses; keep to entry-block allocas (the common case our
	// frontends produce) for safety.
	allocas, entrySlot := promotableAllocas(f)
	if len(allocas) == 0 {
		return false
	}
	// Until phis go in, a promoted alloca is found by its entry position.
	entry := f.Entry().Instrs
	promotedEntry := func(v ir.Value) (int, bool) {
		if k, ok := entryPos(entry, v); ok && entrySlot[k] > 0 {
			return int(entrySlot[k]) - 1, true
		}
		return 0, false
	}

	dt := f.Dom()
	df := dt.Frontier()

	type phiInfo struct {
		phi    *ir.Instr
		alloca *ir.Instr
	}
	var phis []phiInfo

	// Blocks containing stores to each alloca, in block order.
	defBlocks := make([][]*ir.Block, len(allocas))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpStore {
				continue
			}
			if i, ok := promotedEntry(in.Args[1]); ok {
				if d := defBlocks[i]; len(d) == 0 || d[len(d)-1] != b {
					defBlocks[i] = append(d, b)
				}
			}
		}
	}
	placed := make(map[*ir.Block]bool)
	for i, al := range allocas {
		// Iterated dominance frontier.
		clear(placed)
		work := defBlocks[i]
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fb := range df[b] {
				if placed[fb] || !dt.Reachable(fb) {
					continue
				}
				placed[fb] = true
				phi := ir.NewPhi(al.Ty.Elem, len(dt.Preds(fb)))
				fb.Prepend(phi)
				phis = append(phis, phiInfo{phi, al})
				work = append(work, fb)
			}
		}
	}

	// Renaming walk over the dominator tree. With the phis in, one table
	// indexed by instruction number holds, for each promoted alloca and
	// inserted phi, one more than its alloca's index, and for each
	// promoted load the negated position, less one, of its replacement in
	// repls.
	tab := newInstrTable[int32](f)
	var repls []ir.Value
	for i, al := range allocas {
		*tab.at(al) = int32(i) + 1
	}
	for _, pi := range phis {
		*tab.at(pi.phi) = tab.get(pi.alloca)
	}
	promoted := func(v ir.Value) (int, bool) {
		if r := tab.of(v); r != nil && *r > 0 && v.(*ir.Instr).Op == ir.OpAlloca {
			return int(*r) - 1, true
		}
		return 0, false
	}
	phiAlloca := func(phi *ir.Instr) (int, bool) {
		if r := tab.get(phi); r > 0 && phi.Op == ir.OpPhi {
			return int(r) - 1, true
		}
		return 0, false
	}

	children := dt.Children()

	// cur holds each alloca's current value; every assignment is logged so
	// leaving a dominator subtree undoes it. Promoted loads are not
	// rewritten one by one (each a sweep over f): repl records the value
	// each stands for, and one sweep at the end rewrites every use.
	// Stored values are resolved through repl when recorded, so cur and
	// every phi incoming hold final values.
	cur := make([]ir.Value, len(allocas))
	type undo struct {
		slot int
		old  ir.Value
	}
	var log []undo
	set := func(i int, v ir.Value) {
		log = append(log, undo{i, cur[i]})
		cur[i] = v
	}
	resolve := func(v ir.Value) ir.Value {
		for {
			r := tab.of(v)
			if r == nil || *r >= 0 {
				return v
			}
			v = repls[-*r-1]
		}
	}

	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		mark := len(log)
		// Phis at block head define new current values; promoted loads
		// and stores after them are recorded and removed.
		for k := 0; k < len(b.Instrs); k++ {
			in := b.Instrs[k]
			switch in.Op {
			case ir.OpPhi:
				if i, ok := phiAlloca(in); ok {
					set(i, in)
				}
			case ir.OpLoad:
				if i, ok := promoted(in.Args[0]); ok {
					v := cur[i]
					if v == nil {
						v = &ir.Undef{Ty: in.Ty}
					}
					repls = append(repls, v)
					*tab.at(in) = -int32(len(repls))
					b.Remove(in)
					k--
				}
			case ir.OpStore:
				if i, ok := promoted(in.Args[1]); ok {
					set(i, resolve(in.Args[0]))
					b.Remove(in)
					k--
				}
			}
		}
		// Fill successor phi incomings.
		for _, s := range b.Succs() {
			for _, phi := range s.Instrs {
				if phi.Op != ir.OpPhi {
					break
				}
				if i, ok := phiAlloca(phi); ok {
					v := cur[i]
					if v == nil {
						v = &ir.Undef{Ty: phi.Ty}
					}
					phi.SetPhiIncoming(b, v)
				}
			}
		}
		for _, c := range children.Of(b) {
			walk(c)
		}
		for len(log) > mark {
			u := log[len(log)-1]
			log = log[:len(log)-1]
			cur[u.slot] = u.old
		}
	}
	walk(f.Entry())
	if len(repls) > 0 {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for k, a := range in.Args {
					in.Args[k] = resolve(a)
				}
			}
		}
	}

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
