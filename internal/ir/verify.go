package ir

import "fmt"

// Verify checks module-level structural invariants, standing in for LLVM's
// verifier and for the paper's "validate by logic simulation" step together
// with the interpreter equivalence tests. It returns the first violation
// found.
func (m *Module) Verify() error {
	for _, f := range m.Funcs {
		if err := f.Verify(); err != nil {
			return fmt.Errorf("function @%s: %w", f.Name, err)
		}
		// Calls must target functions still present in the module, and
		// operands must not reference another function's parameters.
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					if p, ok := a.(*Param); ok && p.Parent != f {
						owner := "<detached>"
						if p.Parent != nil {
							owner = "@" + p.Parent.Name
						}
						return fmt.Errorf("function @%s: %s uses parameter %s of foreign function %s",
							f.Name, in.Op, p.Ref(), owner)
					}
				}
				if in.Op == OpCall {
					if in.Callee == nil {
						return fmt.Errorf("function @%s: call with nil callee", f.Name)
					}
					if m.Func(in.Callee.Name) != in.Callee {
						return fmt.Errorf("function @%s: call to detached function @%s", f.Name, in.Callee.Name)
					}
					if len(in.Args) != len(in.Callee.Params) {
						return fmt.Errorf("function @%s: call to @%s with %d args, want %d",
							f.Name, in.Callee.Name, len(in.Args), len(in.Callee.Params))
					}
				}
			}
		}
	}
	return nil
}

// Verify checks function-level invariants: block termination, operand
// presence and dominance, and phi/predecessor consistency.
func (f *Func) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	// The entry block has no predecessors, so it can never legally hold a
	// phi (even a zero-incoming one, which the phi/pred matching below
	// would otherwise accept).
	if f.Entry().NumPhis() > 0 {
		return fmt.Errorf("block %s: phi in entry block", blockLabel(f.Entry()))
	}
	inFunc := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		inFunc[b] = true
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %s: empty", blockLabel(b))
		}
		for i, in := range b.Instrs {
			if in.parent != b {
				return fmt.Errorf("block %s: instruction %s has wrong parent", blockLabel(b), in.Op)
			}
			isLast := i == len(b.Instrs)-1
			if in.IsTerminator() != isLast {
				return fmt.Errorf("block %s: terminator misplacement at %d (%s)", blockLabel(b), i, in.Op)
			}
			if in.Op == OpPhi && i > 0 && b.Instrs[i-1].Op != OpPhi {
				return fmt.Errorf("block %s: phi not at block head", blockLabel(b))
			}
			for ai, a := range in.Args {
				if a == nil {
					return fmt.Errorf("block %s: %s operand %d is nil", blockLabel(b), in.Op, ai)
				}
				if def, ok := a.(*Instr); ok {
					if def.parent == nil || !inFunc[def.parent] {
						return fmt.Errorf("block %s: %s uses detached value %s", blockLabel(b), in.Op, def.Ref())
					}
				}
			}
			for _, t := range in.Blocks {
				if t == nil {
					return fmt.Errorf("block %s: %s has nil target", blockLabel(b), in.Op)
				}
				if !inFunc[t] {
					return fmt.Errorf("block %s: %s targets detached block %s", blockLabel(b), in.Op, blockLabel(t))
				}
			}
			switch in.Op {
			case OpPhi:
				if len(in.Args) != len(in.Blocks) {
					return fmt.Errorf("block %s: phi arg/block mismatch", blockLabel(b))
				}
			case OpBr:
				if len(in.Blocks) == 2 && len(in.Args) != 1 {
					return fmt.Errorf("block %s: conditional br without condition", blockLabel(b))
				}
			case OpSwitch:
				if len(in.Blocks) != len(in.Cases)+1 {
					return fmt.Errorf("block %s: switch case/target mismatch", blockLabel(b))
				}
			}
		}
	}
	// Phi incoming sets must exactly match predecessors (for reachable
	// blocks).
	reach := f.ReachableBlocks()
	for _, b := range f.Blocks {
		if !reach[b] {
			continue
		}
		preds := b.Preds()
		predSet := make(map[*Block]bool, len(preds))
		for _, p := range preds {
			predSet[p] = true
		}
		for _, phi := range b.Phis() {
			seen := make(map[*Block]bool)
			for _, pb := range phi.Blocks {
				if seen[pb] {
					return fmt.Errorf("block %s: phi has duplicate incoming block %s", blockLabel(b), blockLabel(pb))
				}
				seen[pb] = true
				if !predSet[pb] {
					return fmt.Errorf("block %s: phi incoming from non-pred %s", blockLabel(b), blockLabel(pb))
				}
			}
			for _, p := range preds {
				if !seen[p] {
					return fmt.Errorf("block %s: phi missing incoming for pred %s", blockLabel(b), blockLabel(p))
				}
			}
		}
	}
	// SSA dominance for reachable uses.
	dt := NewDomTree(f)
	for _, b := range f.Blocks {
		if !reach[b] {
			continue
		}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if !dt.DominatesInstr(a, in) {
					return fmt.Errorf("block %s: use of %s in %s does not satisfy dominance",
						blockLabel(b), a.Ref(), in.Op)
				}
			}
		}
	}
	return nil
}
