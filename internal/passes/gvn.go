package passes

import "autophase/internal/ir"

// earlyCSE performs a dominator-tree-scoped common-subexpression
// elimination sweep with same-block store-to-load forwarding — the cheap
// clean-up LLVM schedules early and often.
func earlyCSE(f *ir.Func) bool {
	changed := domCSE(f, newCSETable())
	if blockLoadForward(f) {
		changed = true
	}
	if removeTriviallyDead(f) {
		changed = true
	}
	return changed
}

// gvn is global value numbering: the dominator-scoped CSE iterated to a
// fixed point together with load forwarding, additionally value-numbering
// pure (readnone) calls — which is what lets a hoisted or repeated call to
// a pure function (the paper's mag() example) collapse to one. Every
// round's CSE walk reuses the same table.
func gvn(f *ir.Func) bool {
	changed := false
	avail := newCSETable()
	for {
		once := domCSE(f, avail)
		if blockLoadForward(f) {
			once = true
		}
		if removeTriviallyDead(f) {
			once = true
		}
		if !once {
			return changed
		}
		changed = true
	}
}

// domCSE walks the dominator tree keeping a table of available pure
// expressions in avail, which it resets first; an instruction equal to an
// available one is replaced by it. The walk never deletes from the table:
// a leader whose block does not dominate the current block was left by a
// finished subtree and is overwritten. So the table only grows, and how it
// grows does not depend on the map's hash seed.
func domCSE(f *ir.Func, c *cseTable) bool {
	c.reset(f)
	dt := f.Dom()
	children := dt.Children()
	changed := false
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if !numberable(in) {
				continue
			}
			k := c.keyOf(in)
			if leader, ok := c.avail[k]; ok && dt.Dominates(leader.Parent(), b) {
				f.ReplaceAllUses(in, leader)
				b.Remove(in)
				i--
				changed = true
				continue
			}
			c.avail[k] = in
		}
		for _, c := range children.Of(b) {
			walk(c)
		}
	}
	if e := f.Entry(); e != nil {
		walk(e)
	}
	return changed
}

// blockLoadForward eliminates redundant loads within a block: a load from
// pointer p can reuse the value of an earlier load or store to p when no
// store, call or memset intervenes.
func blockLoadForward(f *ir.Func) bool {
	changed := false
	avail := make(map[ir.Value]ir.Value) // pointer -> known content
	var snap []*ir.Instr
	for _, b := range f.Blocks {
		clear(avail)
		for _, in := range instrsOf(&snap, b) {
			switch in.Op {
			case ir.OpLoad:
				p := in.Args[0]
				if v, ok := avail[p]; ok && v.Type().Equal(in.Ty) {
					f.ReplaceAllUses(in, v)
					b.Remove(in)
					changed = true
					continue
				}
				avail[p] = in
			case ir.OpStore:
				// A store invalidates every pointer (conservative aliasing)
				// but makes its own pointer's content known.
				clear(avail)
				avail[in.Args[1]] = in.Args[0]
			case ir.OpMemset:
				clear(avail)
			case ir.OpCall:
				if in.Callee == nil || !in.Callee.Attrs.ReadNone && !in.Callee.Attrs.ReadOnly {
					clear(avail)
				}
			}
		}
	}
	return changed
}
