package passes

import "autophase/internal/ir"

// buildUseCounts returns, for each instruction used within f, the number of
// operand slots referencing it. Only instructions are counted: every caller
// asks about instructions, and a pointer-keyed map is far cheaper to fill
// than one keyed by every operand value.
func buildUseCounts(f *ir.Func) map[*ir.Instr]int32 {
	uses := make(map[*ir.Instr]int32, f.NumInstrs())
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if ai, ok := a.(*ir.Instr); ok {
					uses[ai]++
				}
			}
		}
	}
	return uses
}

// removeTriviallyDead iteratively deletes instructions whose results are
// unused and that have no side effects. Returns whether anything was
// removed. This is the cheap DCE sweep many passes run as a clean-up. The
// use counts are built once and decremented as users go, so a round that
// frees an operand earlier in the function only costs another sweep.
func removeTriviallyDead(f *ir.Func) bool {
	uses := buildUseCounts(f)
	changed := false
	for {
		removed := false
		for _, b := range f.Blocks {
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				if in.IsTerminator() || in.HasSideEffects() {
					continue
				}
				if in.Ty.IsVoid() {
					continue
				}
				if uses[in] == 0 {
					b.Remove(in)
					for _, a := range in.Args {
						if ai, ok := a.(*ir.Instr); ok {
							uses[ai]--
						}
					}
					removed = true
				}
			}
		}
		if !removed {
			return changed
		}
		changed = true
	}
}

// foldConstants replaces constant-operand instructions with their folded
// constants across f. Returns whether anything changed.
func foldConstants(f *ir.Func) bool {
	changed := false
	for {
		again := false
		for _, b := range f.Blocks {
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				c, ok := ir.FoldInstr(in)
				if !ok {
					continue
				}
				f.ReplaceAllUses(in, c)
				b.Remove(in)
				again = true
			}
		}
		if !again {
			return changed
		}
		changed = true
	}
}

// removeUnreachableBlocks deletes blocks not reachable from entry and fixes
// phis in their successors. Returns whether anything changed.
func removeUnreachableBlocks(f *ir.Func) bool {
	reach := f.ReachableBlocks()
	var dead []*ir.Block
	for _, b := range f.Blocks {
		if !reach[b] {
			dead = append(dead, b)
		}
	}
	if len(dead) == 0 {
		return false
	}
	for _, b := range dead {
		// Drop instructions so dangling uses become undef via replacement.
		for _, in := range b.Instrs {
			if !in.Ty.IsVoid() {
				f.ReplaceAllUses(in, &ir.Undef{Ty: in.Ty})
			}
		}
		f.RemoveBlock(b)
	}
	return true
}

// loopsOf computes the natural loops of f with a fresh dominator tree,
// innermost-first ordering for transformation safety.
func loopsOf(f *ir.Func) []*ir.Loop {
	dt := ir.NewDomTree(f)
	loops := ir.FindLoops(f, dt)
	// Innermost first: sort by descending depth (stable insertion).
	out := make([]*ir.Loop, 0, len(loops))
	for d := maxDepth(loops); d >= 1; d-- {
		for _, l := range loops {
			if l.Depth == d {
				out = append(out, l)
			}
		}
	}
	return out
}

func maxDepth(loops []*ir.Loop) int {
	m := 0
	for _, l := range loops {
		if l.Depth > m {
			m = l.Depth
		}
	}
	return m
}

// isLoopInvariant reports whether v is computed outside loop l (constants,
// params, globals are always invariant).
func isLoopInvariant(v ir.Value, l *ir.Loop) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return true
	}
	return !l.Contains(in.Parent())
}

// vnKey is a structural hash key for pure instructions, used by the
// CSE/GVN family. Constant operands are canonicalized by (width, value) so
// two equal constants number identically; other values use identity.
type vnKey struct {
	op     ir.Op
	pred   ir.CmpPred
	ty     string
	a0, a1 any
	a2     any
	callee *ir.Func
}

// constKey is the canonical form of a constant operand.
type constKey struct {
	bits int
	val  int64
}

// canonVal maps an operand to its value-numbering representation.
func canonVal(v ir.Value) any {
	if c, ok := v.(*ir.Const); ok {
		bits := 64
		if c.Ty.IsInt() {
			bits = c.Ty.Bits
		}
		return constKey{bits, c.Val}
	}
	return v
}

func numberable(in *ir.Instr) bool {
	switch {
	case in.Op.IsBinary(), in.Op == ir.OpICmp, in.Op == ir.OpSelect,
		in.Op == ir.OpGEP, in.Op.IsCast():
		return true
	case in.Op == ir.OpCall:
		return in.Callee != nil && in.Callee.Attrs.ReadNone && len(in.Args) <= 3 && !in.Ty.IsVoid()
	}
	return false
}

func keyOf(in *ir.Instr) vnKey {
	k := vnKey{op: in.Op, pred: in.Pred, ty: in.Ty.String(), callee: in.Callee}
	args := in.Args
	// Canonicalize commutative operand order before keying.
	if in.Op.IsCommutative() && len(args) == 2 && lessValue(args[1], args[0]) {
		args = []ir.Value{args[1], args[0]}
	}
	if len(args) > 0 {
		k.a0 = canonVal(args[0])
	}
	if len(args) > 1 {
		k.a1 = canonVal(args[1])
	}
	if len(args) > 2 {
		k.a2 = canonVal(args[2])
	}
	return k
}

// lessValue imposes a deterministic order on values for commutative
// canonicalization: constants order by value; other values by Ref string.
func lessValue(a, b ir.Value) bool {
	ca, aok := ir.IsConst(a)
	cb, bok := ir.IsConst(b)
	if aok && bok {
		return ca < cb
	}
	if aok != bok {
		return aok // constants first
	}
	return a.Ref() < b.Ref()
}

// promotableAllocas returns, in order, the entry-block allocas of f whose
// address is only used directly by loads and stores (no GEP/bitcast/call
// escapes, and never stored as a value), i.e. the ones mem2reg promotes.
// One sweep over f decides all of them.
func promotableAllocas(f *ir.Func) []*ir.Instr {
	ok := make(map[*ir.Instr]bool)
	for _, in := range f.Entry().Instrs {
		if in.Op == ir.OpAlloca && in.AllocTy.Kind != ir.ArrayKind {
			ok[in] = true
		}
	}
	if len(ok) == 0 {
		return nil
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				al, isInstr := a.(*ir.Instr)
				if !isInstr || !ok[al] {
					continue
				}
				switch {
				case in.Op == ir.OpLoad:
				case in.Op == ir.OpStore && ai == 1:
					// address operand only; storing the pointer escapes it
				default:
					ok[al] = false
				}
			}
		}
	}
	var allocas []*ir.Instr
	for _, in := range f.Entry().Instrs {
		if ok[in] {
			allocas = append(allocas, in)
		}
	}
	return allocas
}
