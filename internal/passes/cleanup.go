package passes

import "autophase/internal/ir"

// adce is aggressive dead-code elimination: start from observable roots
// (side effects and terminators) and mark transitively; everything unmarked
// dies. Unlike the trivial sweep it removes dead phi cycles.
func adce(f *ir.Func) bool {
	live := newInstrMap[bool](f)
	var wl []*ir.Instr
	mark := func(in *ir.Instr) {
		if in == nil {
			return
		}
		if l := live.ref(in); !*l {
			*l = true
			wl = append(wl, in)
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.IsTerminator() || in.HasSideEffects() {
				mark(in)
			}
		}
	}
	for len(wl) > 0 {
		in := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		for _, a := range in.Args {
			if d, ok := a.(*ir.Instr); ok {
				mark(d)
			}
		}
	}
	changed := false
	for _, b := range f.Blocks {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if live.get(in) {
				continue
			}
			// Dead values may still appear as operands of other dead
			// instructions being removed in the same sweep; replacing with
			// undef keeps intermediate states well-formed.
			if !in.Ty.IsVoid() {
				f.ReplaceAllUses(in, &ir.Undef{Ty: in.Ty})
			}
			b.Remove(in)
			changed = true
		}
	}
	return changed
}

// strip removes local value names (like LLVM's -strip it does not affect
// generated code, only symbol information).
func strip(m *ir.Module) bool {
	changed := false
	for _, f := range m.Funcs {
		if f.Attrs.Stripped {
			continue
		}
		f.Attrs.Stripped = true
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Name != "" {
					in.Name = ""
					changed = true
				}
			}
		}
		changed = true
	}
	return changed
}

// stripNonDebug strips non-debug symbol information; in this IR that is
// block names.
func stripNonDebug(m *ir.Module) bool {
	changed := false
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			if b.Name != "" {
				b.Name = ""
				changed = true
			}
		}
	}
	return changed
}

// lowerExpect drops branch-probability hints (the __builtin_expect
// metadata), exactly as LLVM's -lower-expect leaves only the plain branch.
func lowerExpect(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.BranchWeight != 0 {
				in.BranchWeight = 0
				changed = true
			}
		}
	}
	return changed
}

// lowerInvoke lowers invoke instructions; this IR has no exceptions, so
// like LLVM on invoke-free code the pass is a no-op.
func lowerInvoke(*ir.Func) bool { return false }

// lowerAtomic lowers atomics to their non-atomic form; this IR has no
// atomics, so the pass is a no-op.
func lowerAtomic(*ir.Func) bool { return false }

// globalOpt folds loads of read-only global data addressed by constant
// indices and deletes globals that are never referenced.
func globalOpt(m *ir.Module) bool {
	changed := false
	var snap []*ir.Instr
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range instrsOf(&snap, b) {
				if in.Op != ir.OpLoad {
					continue
				}
				g, idx, ok := constGlobalAddr(in.Args[0])
				if !ok || !g.ReadOnly || globalEverStored(m, g) {
					continue
				}
				if idx < 0 || idx >= int64(g.NumElems()) {
					continue
				}
				var v int64
				if idx < int64(len(g.Init)) {
					v = g.Init[idx]
				}
				f.ReplaceAllUses(in, ir.ConstInt(in.Ty, in.Ty.TruncVal(v)))
				b.Remove(in)
				changed = true
			}
		}
	}
	if removeDeadGlobals(m) {
		changed = true
	}
	return changed
}

// constGlobalAddr matches @g or gep(@g, C).
func constGlobalAddr(v ir.Value) (*ir.Global, int64, bool) {
	if g, ok := v.(*ir.Global); ok {
		return g, 0, true
	}
	in, ok := v.(*ir.Instr)
	if !ok || in.Op != ir.OpGEP {
		return nil, 0, false
	}
	g, ok := in.Args[0].(*ir.Global)
	if !ok {
		return nil, 0, false
	}
	c, ok := ir.IsConst(in.Args[1])
	if !ok {
		return nil, 0, false
	}
	return g, c, true
}

// globalEverStored reports whether any instruction may write to g.
func globalEverStored(m *ir.Module, g *ir.Global) bool {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpStore:
					if addrRootsAt(in.Args[1], g) || in.Args[0] == ir.Value(g) {
						return true
					}
				case ir.OpMemset:
					if addrRootsAt(in.Args[0], g) {
						return true
					}
				case ir.OpCall:
					// Writes inside callees are found when scanning them.
				}
			}
		}
	}
	return false
}

func addrRootsAt(v ir.Value, g *ir.Global) bool {
	for {
		if v == ir.Value(g) {
			return true
		}
		in, ok := v.(*ir.Instr)
		if !ok {
			return false
		}
		switch in.Op {
		case ir.OpGEP, ir.OpBitCast:
			v = in.Args[0]
		default:
			// A pointer produced by phi/select could alias anything;
			// be conservative.
			return in.Op == ir.OpPhi || in.Op == ir.OpSelect
		}
	}
}

func removeDeadGlobals(m *ir.Module) bool {
	used := make(map[*ir.Global]bool)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					if g, ok := a.(*ir.Global); ok {
						used[g] = true
					}
				}
			}
		}
	}
	changed := false
	for _, g := range append([]*ir.Global(nil), m.Globals...) {
		if !used[g] {
			m.RemoveGlobal(g)
			changed = true
		}
	}
	return changed
}

// globalDCE deletes functions that can never be reached from main and
// globals that are never referenced.
func globalDCE(m *ir.Module) bool {
	reach := make(map[*ir.Func]bool)
	var wl []*ir.Func
	if main := m.Func("main"); main != nil {
		reach[main] = true
		wl = append(wl, main)
	}
	for len(wl) > 0 {
		f := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee != nil && !reach[in.Callee] {
					reach[in.Callee] = true
					wl = append(wl, in.Callee)
				}
			}
		}
	}
	changed := false
	if len(reach) > 0 {
		for _, f := range append([]*ir.Func(nil), m.Funcs...) {
			if !reach[f] {
				m.RemoveFunc(f)
				changed = true
			}
		}
	}
	if removeDeadGlobals(m) {
		changed = true
	}
	return changed
}

// constMerge merges identical read-only globals into one, shrinking the
// ROM footprint (LLVM's -constmerge).
func constMerge(m *ir.Module) bool {
	changed := false
	for i := 0; i < len(m.Globals); i++ {
		a := m.Globals[i]
		if !a.ReadOnly {
			continue
		}
		for j := i + 1; j < len(m.Globals); j++ {
			b := m.Globals[j]
			if !b.ReadOnly || !a.Elem.Equal(b.Elem) || !sameInit(a.Init, b.Init) {
				continue
			}
			for _, f := range m.Funcs {
				f.ReplaceAllUses(b, a)
			}
			m.RemoveGlobal(b)
			j--
			changed = true
		}
	}
	return changed
}

func sameInit(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// deadArgElim removes parameters a function never reads, shrinking every
// call site with it.
func deadArgElim(m *ir.Module) bool {
	changed := false
	for _, f := range m.Funcs {
		if f.Name == "main" {
			continue
		}
		for pi := len(f.Params) - 1; pi >= 0; pi-- {
			p := f.Params[pi]
			if f.UseCount(p) > 0 {
				continue
			}
			f.Params = append(f.Params[:pi], f.Params[pi+1:]...)
			for i := pi; i < len(f.Params); i++ {
				f.Params[i].Index = i
			}
			for _, s := range callSites(m, f) {
				if pi < len(s.Args) {
					s.Args = append(s.Args[:pi], s.Args[pi+1:]...)
				}
			}
			changed = true
		}
	}
	return changed
}

// functionAttrs derives ReadOnly/ReadNone bottom-up over the call graph;
// ReadNone additionally requires freedom from trapping operations so that
// callers (licm, gvn) may speculate and deduplicate the call — this is the
// pass that certifies the paper's mag() example for hoisting.
func functionAttrs(m *ir.Module) bool {
	return attrFixpoint(m, attrsOf, func(f *ir.Func, a attrTriple) {
		f.Attrs.ReadOnly, f.Attrs.ReadNone, f.Attrs.NoTrap = a.ro, a.rn, a.nt
	})
}

// attrTriple is the (ReadOnly, ReadNone, NoTrap) attribute set
// functionattrs derives.
type attrTriple struct{ ro, rn, nt bool }

func attrsOf(f *ir.Func) attrTriple {
	return attrTriple{f.Attrs.ReadOnly, f.Attrs.ReadNone, f.Attrs.NoTrap}
}

// attrFixpoint re-derives every function's attributes until none changes,
// reading current attributes through get and recording changed ones
// through set, and reports whether any changed. functionAttrs writes the
// functions; its scan writes a shadow map.
func attrFixpoint(m *ir.Module, get func(*ir.Func) attrTriple, set func(*ir.Func, attrTriple)) bool {
	changed := false
	for again := true; again; {
		again = false
		for _, f := range m.Funcs {
			if a := deriveAttrs(f, get); a != get(f) {
				set(f, a)
				changed, again = true, true
			}
		}
	}
	return changed
}

// deriveAttrs derives f's attributes from its body, reading each callee's
// through get.
func deriveAttrs(f *ir.Func, get func(*ir.Func) attrTriple) attrTriple {
	readOnly, readNone, noTrap := true, true, true
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore, ir.OpMemset, ir.OpPrint:
				readOnly, readNone = false, false
			case ir.OpLoad:
				readNone = false
			case ir.OpAlloca:
				// Local memory is invisible outside; loads from it are
				// covered by the OpLoad case.
			case ir.OpCall:
				if in.Callee == nil {
					return attrTriple{}
				}
				ca := get(in.Callee)
				if !ca.ro && !ca.rn {
					readOnly, readNone = false, false
				}
				if !ca.rn {
					readNone = false
				}
				if !ca.nt {
					noTrap = false
				}
			case ir.OpSDiv, ir.OpSRem:
				// A potentially trapping division makes the function unsafe
				// to speculate.
				if c, ok := ir.IsConst(in.Args[1]); !ok || c == 0 {
					noTrap = false
				}
			}
		}
	}
	// ReadNone retains its speculation contract: pure AND trap-free.
	return attrTriple{readOnly, readNone && noTrap, noTrap}
}
