package passes

import "autophase/internal/ir"

// dse is dead-store elimination: a store overwritten by a later store to
// the same pointer with no possible intervening read dies, and every store
// to a non-escaping alloca that is never loaded dies with the alloca.
func dse(f *ir.Func) bool {
	changed := false
	var snap []*ir.Instr
	// Same-block overwritten stores.
	pending := make(map[ir.Value]*ir.Instr) // ptr -> earlier store
	for _, b := range f.Blocks {
		clear(pending)
		for _, in := range instrsOf(&snap, b) {
			switch in.Op {
			case ir.OpStore:
				if prev, ok := pending[in.Args[1]]; ok {
					b.Remove(prev)
					changed = true
				}
				pending[in.Args[1]] = in
			case ir.OpLoad, ir.OpCall, ir.OpMemset, ir.OpPrint:
				// Any read or unknown effect may observe pending stores.
				clear(pending)
			}
		}
	}
	// Write-only allocas: stores into them are unobservable.
	for _, b := range f.Blocks {
		for _, in := range instrsOf(&snap, b) {
			if in.Op != ir.OpAlloca {
				continue
			}
			if !writeOnlyAlloca(f, in) {
				continue
			}
			for _, u := range f.Uses(in) {
				switch u.Op {
				case ir.OpStore:
					u.Parent().Remove(u)
					changed = true
				case ir.OpGEP:
					for _, gu := range f.Uses(u) {
						if gu.Op == ir.OpStore {
							gu.Parent().Remove(gu)
							changed = true
						}
					}
					if f.UseCount(u) == 0 {
						u.Parent().Remove(u)
						changed = true
					}
				case ir.OpMemset:
					u.Parent().Remove(u)
					changed = true
				}
			}
			if f.UseCount(in) == 0 {
				b.Remove(in)
				changed = true
			}
		}
	}
	return changed
}

// writeOnlyAlloca reports whether the alloca is only ever written: its
// address flows only into store addresses, memset destinations and GEPs
// with the same property.
func writeOnlyAlloca(f *ir.Func, al *ir.Instr) bool {
	var check func(ptr *ir.Instr) bool
	check = func(ptr *ir.Instr) bool {
		for _, u := range f.Uses(ptr) {
			switch u.Op {
			case ir.OpStore:
				if u.Args[0] == ptr {
					return false // pointer value stored: escapes
				}
			case ir.OpMemset:
				if u.Args[0] != ptr || u.Args[1] == ptr || u.Args[2] == ptr {
					return false
				}
			case ir.OpGEP:
				if u.Args[0] != ptr || !check(u) {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	return check(al)
}

// memcpyOpt removes no-op round trips: storing back a value just loaded
// from the same pointer with no intervening write.
func memcpyOpt(f *ir.Func) bool {
	changed := false
	var snap []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range instrsOf(&snap, b) {
			if in.Op != ir.OpStore {
				continue
			}
			if ld, ok := in.Args[0].(*ir.Instr); ok && ld.Op == ir.OpLoad &&
				ld.Parent() == b && ld.Args[0] == in.Args[1] && noWriteBetween(b, ld, in) {
				b.Remove(in)
				changed = true
			}
		}
	}
	return changed
}

func noWriteBetween(b *ir.Block, from, to *ir.Instr) bool {
	active := false
	for _, in := range b.Instrs {
		if in == from {
			active = true
			continue
		}
		if in == to {
			return true
		}
		if !active {
			continue
		}
		switch in.Op {
		case ir.OpStore, ir.OpCall, ir.OpMemset:
			return false
		}
	}
	return false
}

// sink moves pure instructions into the single successor block that
// contains all their uses, so branches that skip the block skip the work —
// reducing the executed FSM states on the untaken path.
func sink(f *ir.Func) bool {
	changed := false
	for {
		once := false
		for _, b := range f.Blocks {
			succs := b.Succs()
			if len(succs) < 2 {
				continue
			}
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				if in.IsTerminator() || in.HasSideEffects() || in.Ty.IsVoid() ||
					in.Op == ir.OpPhi || in.Op == ir.OpAlloca || in.Op == ir.OpLoad {
					continue
				}
				uses := f.Uses(in)
				if len(uses) == 0 {
					continue
				}
				// All uses must live in exactly one successor subtree; we
				// require them literally inside one successor block with a
				// single pred edge (so dominance still holds).
				var dest *ir.Block
				ok := true
				for _, u := range uses {
					if u.Op == ir.OpPhi {
						ok = false
						break
					}
					ub := u.Parent()
					if dest == nil {
						dest = ub
					} else if dest != ub {
						ok = false
						break
					}
				}
				if !ok || dest == nil || dest == b {
					continue
				}
				isSucc := false
				for _, s := range succs {
					if s == dest {
						isSucc = true
					}
				}
				if !isSucc || dest.NumPredEdges() != 1 {
					continue
				}
				b.Remove(in)
				pos := dest.FirstNonPhi()
				if pos == nil {
					dest.Append(in)
				} else {
					dest.InsertBefore(in, pos)
				}
				once = true
				changed = true
			}
		}
		if !once {
			return changed
		}
	}
}

// scalarRepl is scalar replacement of aggregates: an array alloca whose
// accesses all use constant indices is split into one scalar alloca per
// element, which mem2reg can then promote.
func scalarRepl(f *ir.Func) bool {
	changed := false
	var snap []*ir.Instr
	for _, b := range append([]*ir.Block(nil), f.Blocks...) {
		for _, al := range instrsOf(&snap, b) {
			if al.Op != ir.OpAlloca || al.AllocTy.Kind != ir.ArrayKind {
				continue
			}
			if al.AllocTy.Len > 64 {
				continue // SROA thresholds: don't explode huge arrays
			}
			idxs, ok := constIndexAccesses(f, al)
			if !ok {
				continue
			}
			elemTy := al.AllocTy.Elem
			scalars := make(map[int64]*ir.Instr)
			for _, ix := range idxs {
				s := &ir.Instr{Op: ir.OpAlloca, Ty: ir.PointerTo(elemTy), AllocTy: elemTy}
				b.InsertBefore(s, al)
				scalars[ix] = s
			}
			// Rewrite GEPs to the scalar allocas; direct uses are index 0.
			for _, u := range append([]*ir.Instr(nil), f.Uses(al)...) {
				switch u.Op {
				case ir.OpGEP:
					c, _ := ir.IsConst(u.Args[1])
					f.ReplaceAllUses(u, scalars[c])
					u.Parent().Remove(u)
				case ir.OpLoad:
					u.Args[0] = scalars[0]
				case ir.OpStore:
					u.Args[1] = scalars[0]
				}
			}
			b.Remove(al)
			changed = true
		}
	}
	return changed
}

// constIndexAccesses returns the set of constant indices used to access the
// array alloca, or ok=false when any access is dynamic or escaping.
func constIndexAccesses(f *ir.Func, al *ir.Instr) ([]int64, bool) {
	seen := make(map[int64]bool)
	n := int64(al.AllocTy.Len)
	for _, u := range f.Uses(al) {
		switch u.Op {
		case ir.OpGEP:
			c, ok := ir.IsConst(u.Args[1])
			if !ok || c < 0 || c >= n {
				return nil, false
			}
			for _, gu := range f.Uses(u) {
				switch gu.Op {
				case ir.OpLoad:
				case ir.OpStore:
					if gu.Args[0] == u {
						return nil, false // address escapes into memory
					}
				default:
					return nil, false
				}
			}
			seen[c] = true
		case ir.OpLoad:
			seen[0] = true
		case ir.OpStore:
			if u.Args[0] == al {
				return nil, false
			}
			seen[0] = true
		default:
			return nil, false
		}
	}
	if len(seen) == 0 {
		return nil, false
	}
	var idxs []int64
	for i := int64(0); i < n; i++ {
		if seen[i] {
			idxs = append(idxs, i)
		}
	}
	// Index 0 must exist for direct (non-GEP) rewrites.
	if !seen[0] {
		idxs = append([]int64{0}, idxs...)
	}
	return idxs, true
}

// scalarReplSSA is -scalarrepl-ssa: scalar replacement immediately followed
// by SSA promotion of the resulting scalars.
func scalarReplSSA(f *ir.Func) bool {
	a := scalarRepl(f)
	b := mem2reg(f)
	return a || b
}

// sroa is the modern scalar-replacement pass: aggregate splitting, SSA
// promotion and a dead-code sweep in one.
func sroa(f *ir.Func) bool {
	a := scalarRepl(f)
	b := mem2reg(f)
	c := removeTriviallyDead(f)
	return a || b || c
}
