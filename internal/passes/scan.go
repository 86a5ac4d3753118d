package passes

import (
	"math/bits"

	"autophase/internal/ir"
)

// No-op prescans. Each predicate here is paired with a pass in table1 and
// must be sound: returning false guarantees the pass would report no change
// (and perform no mutation) on that function/module. A scan that is merely
// "probably a no-op" is a correctness bug, because the engine reuses the
// input module for runs reported unchanged. Scans are read-only so they are
// safe on functions still borrowed by a copy-on-write module.

// scanNever marks passes that are unconditional no-ops in this IR
// (lowerinvoke, loweratomic: there are no invokes or atomics to lower).
func scanNever(*ir.Func) bool { return false }

func anyInstr(f *ir.Func, pred func(*ir.Instr) bool) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if pred(in) {
				return true
			}
		}
	}
	return false
}

// hasAlloca gates mem2reg, scalarrepl and scalarrepl-ssa: every rewrite in
// those passes starts from an alloca.
func hasAlloca(f *ir.Func) bool {
	return anyInstr(f, func(in *ir.Instr) bool { return in.Op == ir.OpAlloca })
}

// hasStore gates memcpyopt, whose only rewrites start from store
// instructions (forming memsets or forwarding stored values).
func hasStore(f *ir.Func) bool {
	return anyInstr(f, func(in *ir.Instr) bool { return in.Op == ir.OpStore })
}

// hasStoreOrMemset gates dse: everything it deletes is a store, a memset,
// or an address computation feeding only deleted stores.
func hasStoreOrMemset(f *ir.Func) bool {
	return anyInstr(f, func(in *ir.Instr) bool {
		return in.Op == ir.OpStore || in.Op == ir.OpMemset
	})
}

// hasSwitch gates lowerswitch.
func hasSwitch(f *ir.Func) bool {
	return anyInstr(f, func(in *ir.Instr) bool { return in.Op == ir.OpSwitch })
}

// hasBranchWeight gates lower-expect, which only clears branch weights.
func hasBranchWeight(f *ir.Func) bool {
	return anyInstr(f, func(in *ir.Instr) bool { return in.BranchWeight != 0 })
}

// hasSelfCall gates tailcallelim, which only rewrites directly
// self-recursive tail calls.
func hasSelfCall(f *ir.Func) bool {
	return anyInstr(f, func(in *ir.Instr) bool {
		return in.Op == ir.OpCall && in.Callee == f
	})
}

// hasCriticalEdge gates break-crit-edges, which changes the function
// exactly when a critical edge exists.
func hasCriticalEdge(f *ir.Func) bool { return len(ir.CriticalEdges(f)) > 0 }

// hasUnreachableBlock gates prune-eh, which (on this exception-free IR)
// only removes entry-unreachable blocks.
func hasUnreachableBlock(f *ir.Func) bool {
	if mask, ok := reachableMask(f); ok {
		return bits.OnesCount64(mask) < len(f.Blocks)
	}
	return len(f.ReachableBlocks()) < len(f.Blocks)
}

// scanStrip: -strip changes a module iff some function is not yet marked
// Stripped (marking alone is a change).
func scanStrip(m *ir.Module) bool {
	for _, f := range m.Funcs {
		if !f.Attrs.Stripped {
			return true
		}
	}
	return false
}

// scanNamedBlocks: -strip-nondebug changes a module iff a named block
// remains.
func scanNamedBlocks(m *ir.Module) bool {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			if b.Name != "" {
				return true
			}
		}
	}
	return false
}

// scanAnyCall gates the inliners: no call sites, nothing to inline (the
// trailing dead-code sweep in -inline runs only after an inlining).
func scanAnyCall(m *ir.Module) bool {
	for _, f := range m.Funcs {
		if anyInstr(f, func(in *ir.Instr) bool { return in.Op == ir.OpCall }) {
			return true
		}
	}
	return false
}

// scanConstMerge: merging needs at least two read-only globals.
func scanConstMerge(m *ir.Module) bool {
	n := 0
	for _, g := range m.Globals {
		if g.ReadOnly {
			if n++; n >= 2 {
				return true
			}
		}
	}
	return false
}

// scanDeadArgElim: the pass only drops parameters of non-main functions.
func scanDeadArgElim(m *ir.Module) bool {
	for _, f := range m.Funcs {
		if f.Name != "main" && len(f.Params) > 0 {
			return true
		}
	}
	return false
}

// scanFunctionAttrs runs the functionattrs fixpoint without writing: it
// reports whether any function's derived attributes differ from its
// current ones. Derived attributes go to a shadow map, and callees are read
// through it, so multi-step propagation is modelled exactly like the real
// run.
func scanFunctionAttrs(m *ir.Module) bool {
	shadow := make(map[*ir.Func]attrTriple, len(m.Funcs))
	return attrFixpoint(m, func(f *ir.Func) attrTriple {
		if a, ok := shadow[f]; ok {
			return a
		}
		return attrsOf(f)
	}, func(f *ir.Func, a attrTriple) { shadow[f] = a })
}
