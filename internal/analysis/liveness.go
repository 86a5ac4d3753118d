package analysis

import "autophase/internal/ir"

// Liveness holds the per-block live sets of a function: a value is live at
// a point when some path from that point reaches a use before any redefinition
// (SSA values have a single definition, so "before redefinition" is vacuous).
// The domain is SSA values: instruction results and function parameters.
type Liveness struct {
	fn *ir.Func
	// LiveIn[b] is the set of values live at b's entry; LiveOut[b] at its
	// exit (after the terminator).
	LiveIn  map[*ir.Block]Set[ir.Value]
	LiveOut map[*ir.Block]Set[ir.Value]
}

// trackedValue reports whether v belongs in the liveness domain (constants,
// globals and undef are always available and never tracked).
func trackedValue(v ir.Value) bool {
	switch v.(type) {
	case *ir.Instr, *ir.Param:
		return true
	}
	return false
}

// blockUseDef computes the local upward-exposed uses and definitions of b.
// Phi uses are not upward-exposed in the phi's own block: they are live-out
// of the corresponding predecessor instead, which uses() accounts for by
// scanning successors' phis.
func blockUseDef(b *ir.Block) (use, def Set[ir.Value]) {
	use, def = NewSet[ir.Value](), NewSet[ir.Value]()
	for _, in := range b.Instrs {
		if in.Op != ir.OpPhi {
			for _, a := range in.Args {
				if trackedValue(a) && !def.Has(a) {
					use.Add(a)
				}
			}
		}
		def.Add(in)
	}
	return use, def
}

// ComputeLiveness solves backward liveness over f.
func ComputeLiveness(f *ir.Func) *Liveness {
	use := make(map[*ir.Block]Set[ir.Value], len(f.Blocks))
	def := make(map[*ir.Block]Set[ir.Value], len(f.Blocks))
	for _, b := range f.Blocks {
		use[b], def[b] = blockUseDef(b)
	}
	// Phi operands flow in along edges: an incoming value is live at the
	// end of its predecessor, not at the phi block's entry.
	phiOut := make(map[*ir.Block]Set[ir.Value], len(f.Blocks))
	for _, b := range f.Blocks {
		for _, phi := range b.Phis() {
			for i, a := range phi.Args {
				if !trackedValue(a) {
					continue
				}
				pred := phi.Blocks[i]
				if phiOut[pred] == nil {
					phiOut[pred] = NewSet[ir.Value]()
				}
				phiOut[pred].Add(a)
			}
		}
	}
	res := Solve(f, Problem[ir.Value]{
		Dir:  Backward,
		Meet: Union,
		Transfer: func(b *ir.Block, out Set[ir.Value]) Set[ir.Value] {
			// live-in = use ∪ phi-edge-uses ∪ (live-out − def)
			in := out
			for v := range def[b] {
				in.Remove(v)
			}
			in.Union(use[b])
			if po := phiOut[b]; po != nil {
				// Values feeding a successor phi are live-out of b; if b
				// defines them they are killed above, so re-adding here only
				// keeps ones defined elsewhere... but a phi may consume b's
				// own def at b's end, which is not a live-in of b.
				for v := range po {
					if !def[b].Has(v) {
						in.Add(v)
					}
				}
			}
			return in
		},
	})
	lv := &Liveness{fn: f,
		LiveIn:  make(map[*ir.Block]Set[ir.Value], len(res.In)),
		LiveOut: make(map[*ir.Block]Set[ir.Value], len(res.In)),
	}
	// Backward Result: In feeds Transfer (block exit), Out is block entry.
	for b, s := range res.In {
		lv.LiveOut[b] = s
	}
	for b, s := range res.Out {
		lv.LiveIn[b] = s
	}
	// Fold successor-phi uses into LiveOut for presentation: they are live
	// on the edge, which the conventional per-block view counts as live-out
	// of the predecessor.
	for b, po := range phiOut {
		if lv.LiveOut[b] == nil {
			lv.LiveOut[b] = NewSet[ir.Value]()
		}
		lv.LiveOut[b].Union(po)
	}
	return lv
}

// DeadDefs returns the instruction results that are defined but never live
// after their definition point — candidates for dead-code elimination (side
// effecting instructions are excluded).
func (lv *Liveness) DeadDefs() []*ir.Instr {
	ud := ComputeUseDef(lv.fn)
	var dead []*ir.Instr
	for _, b := range lv.fn.Blocks {
		for _, in := range b.Instrs {
			if in.IsTerminator() || in.HasSideEffects() {
				continue
			}
			if len(ud.UsesOf(in)) == 0 {
				dead = append(dead, in)
			}
		}
	}
	return dead
}
