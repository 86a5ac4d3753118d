package passes

import "autophase/internal/ir"

// Inlining thresholds, in the spirit of LLVM's -inline-threshold.
const (
	inlineCalleeMax = 90   // max callee size (instructions)
	inlineGrowthMax = 1200 // stop growing a caller beyond this
)

// inline substitutes small callee bodies at their call sites. Inlining
// removes the call/return FSM handshake and exposes the callee's body to
// the caller's loop passes — and, as the paper's Figures 2–3 show, whether
// it runs before or after -licm decides between Θ(n) and Θ(n²).
func inline(m *ir.Module) bool {
	changed := false
	for again := true; again; {
		again = false
		for _, f := range m.Funcs {
			if f.NumInstrs() > inlineGrowthMax {
				continue
			}
			for _, b := range f.Blocks {
				var call *ir.Instr
				for _, in := range b.Instrs {
					if in.Op == ir.OpCall && inlinable(in.Callee, f) {
						call = in
						break
					}
				}
				if call == nil {
					continue
				}
				inlineCall(f, call)
				changed, again = true, true
				break
			}
			if again {
				break
			}
		}
	}
	if changed {
		// Inlining may leave now-uncalled functions; they stay for
		// -globaldce to collect (pass interplay, as in LLVM).
		for _, f := range m.Funcs {
			removeTriviallyDead(f)
		}
	}
	return changed
}

func inlinable(callee, caller *ir.Func) bool {
	if callee == nil || callee == caller || callee.Attrs.NoInline {
		return false
	}
	if callee.NumInstrs() > inlineCalleeMax {
		return false
	}
	// Directly self-recursive callees cannot be fully substituted.
	for _, b := range callee.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Callee == callee {
				return false
			}
		}
	}
	return true
}

// inlineCall splices callee's body into f at the call site.
func inlineCall(f *ir.Func, call *ir.Instr) {
	callee := call.Callee
	b := call.Parent()

	// Split b at the call: b keeps everything before; cont gets the rest.
	cont := &ir.Block{Name: b.Name + ".cont"}
	f.AddBlockAfter(cont, b)
	idx := -1
	for i, in := range b.Instrs {
		if in == call {
			idx = i
			break
		}
	}
	after := append([]*ir.Instr(nil), b.Instrs[idx+1:]...)
	for _, in := range after {
		b.Remove(in)
		cont.Append(in)
	}
	b.Remove(call)
	// Successor phis now see cont as the predecessor.
	for _, s := range cont.Succs() {
		for _, phi := range s.Phis() {
			for i, pb := range phi.Blocks {
				if pb == b {
					phi.Blocks[i] = cont
				}
			}
		}
	}

	// Clone the callee body.
	bmap := make(map[*ir.Block]*ir.Block, len(callee.Blocks))
	pos := b
	for _, cb := range callee.Blocks {
		nb := &ir.Block{Name: callee.Name + "." + cb.Name}
		f.AddBlockAfter(nb, pos)
		pos = nb
		bmap[cb] = nb
	}
	imap := make(map[*ir.Instr]*ir.Instr)
	retPhi := &ir.Instr{Op: ir.OpPhi, Ty: callee.Ret}
	for _, cb := range callee.Blocks {
		nb := bmap[cb]
		for _, in := range cb.Instrs {
			if in.Op == ir.OpRet {
				br := &ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{cont}}
				nb.Append(br)
				if len(in.Args) == 1 {
					retPhi.SetPhiIncoming(nb, in.Args[0]) // remapped below
				}
				continue
			}
			ni := in.Copy()
			for k, tb := range ni.Blocks {
				ni.Blocks[k] = bmap[tb]
			}
			imap[in] = ni
			nb.Append(ni)
		}
	}
	remap := func(v ir.Value) ir.Value {
		switch x := v.(type) {
		case *ir.Instr:
			if ni, ok := imap[x]; ok {
				return ni
			}
			return &ir.Undef{Ty: x.Ty}
		case *ir.Param:
			if x.Parent == callee {
				return call.Args[x.Index]
			}
		}
		return v
	}
	for _, cb := range callee.Blocks {
		for _, in := range cb.Instrs {
			ni, ok := imap[in]
			if !ok {
				continue
			}
			for ai := range ni.Args {
				ni.Args[ai] = remap(ni.Args[ai])
			}
		}
	}
	for i, a := range retPhi.Args {
		retPhi.Args[i] = remap(a)
	}

	// Enter the inlined body.
	b.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{bmap[callee.Entry()]}})

	// Return value plumbing.
	if !callee.Ret.IsVoid() && len(retPhi.Args) > 0 {
		var rv ir.Value = retPhi
		if len(retPhi.Args) == 1 {
			rv = retPhi.Args[0]
		} else {
			cont.Prepend(retPhi)
		}
		f.ReplaceAllUses(call, rv)
	} else if !call.Ty.IsVoid() {
		f.ReplaceAllUses(call, &ir.Undef{Ty: call.Ty})
	}
}

// partialInliner inlines only trivially small (single-block) callees — a
// reduced stand-in for LLVM's outline-the-cold-path partial inliner that
// still changes the inlining/licm phase interplay.
func partialInliner(m *ir.Module) bool {
	changed := false
	for again := true; again; {
		again = false
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				var call *ir.Instr
				for _, in := range b.Instrs {
					if in.Op != ir.OpCall || !inlinable(in.Callee, f) {
						continue
					}
					if len(in.Callee.Blocks) != 1 {
						continue
					}
					call = in
					break
				}
				if call == nil {
					continue
				}
				inlineCall(f, call)
				changed, again = true, true
				break
			}
			if again {
				break
			}
		}
	}
	return changed
}

// tailCallElim rewrites a directly self-recursive tail call into a branch
// back to the function entry, turning recursion into a loop (Table 1's
// -tailcallelim).
func tailCallElim(f *ir.Func) bool {
	// Find tail sites: `r = call @f(args); ret r` or `call @f(...); ret`.
	type site struct {
		call *ir.Instr
		ret  *ir.Instr
	}
	var sites []site
	for _, b := range f.Blocks {
		n := len(b.Instrs)
		if n < 2 {
			continue
		}
		ret := b.Instrs[n-1]
		call := b.Instrs[n-2]
		if ret.Op != ir.OpRet || call.Op != ir.OpCall || call.Callee != f {
			continue
		}
		if len(ret.Args) == 1 && ret.Args[0] != ir.Value(call) {
			continue
		}
		sites = append(sites, site{call, ret})
	}
	if len(sites) == 0 {
		return false
	}
	// New entry that only branches to the old entry; params become phis.
	oldEntry := f.Entry()
	ne := &ir.Block{Name: "tce.entry"}
	f.PrependBlock(ne)
	ne.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{oldEntry}})

	phis := make([]*ir.Instr, len(f.Params))
	for i, p := range f.Params {
		phi := &ir.Instr{Op: ir.OpPhi, Ty: p.Ty}
		phi.SetPhiIncoming(ne, p)
		phis[i] = phi
	}
	// Replace param uses before inserting the phis (so the phi's own
	// incoming keeps the raw param).
	for i, p := range f.Params {
		f.ReplaceAllUses(p, phis[i])
	}
	for i := len(phis) - 1; i >= 0; i-- {
		oldEntry.Prepend(phis[i])
	}
	for _, s := range sites {
		b := s.call.Parent()
		for i, phi := range phis {
			phi.SetPhiIncoming(b, s.call.Args[i])
		}
		b.Remove(s.ret)
		b.Remove(s.call)
		b.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{oldEntry}})
	}
	return true
}

// pruneEH has no exceptions to prune in this IR; like its LLVM namesake on
// exception-free code it still removes unreachable blocks.
func pruneEH(f *ir.Func) bool {
	return removeUnreachableBlocks(f)
}
