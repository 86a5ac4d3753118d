package passes

import (
	"math/bits"

	"autophase/internal/ir"
)

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

// instrsOf copies b's instructions into *buf, reusing its storage, and
// returns the copy: a loop that changes b while it ranges over the copy
// allocates once per pass instead of once per block.
func instrsOf(buf *[]*ir.Instr, b *ir.Block) []*ir.Instr {
	*buf = append((*buf)[:0], b.Instrs...)
	return *buf
}

// soleUser returns the one instruction of f that uses v, or nil when no
// instruction or several do: what a one-element f.Uses(v) holds, without
// building the list.
func soleUser(f *ir.Func, v ir.Value) *ir.Instr {
	var user *ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == v {
					if user != nil {
						return nil
					}
					user = in
					break
				}
			}
		}
	}
	return user
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
	var dead []*ir.Block
	if mask, ok := reachableMask(f); ok {
		for i, b := range f.Blocks {
			if mask&(1<<i) == 0 {
				dead = append(dead, b)
			}
		}
	} else {
		reach := f.ReachableBlocks()
		for _, b := range f.Blocks {
			if !reach[b] {
				dead = append(dead, b)
			}
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

// reachableMask sets bit i for every block f.Blocks[i] reachable from the
// entry, walking the CFG by block position without allocating. ok is false
// when f has more blocks than the mask holds; the caller then falls back
// to f.ReachableBlocks. Positions are found by a linear scan, which stays
// cheaper than a map at this size.
func reachableMask(f *ir.Func) (mask uint64, ok bool) {
	n := len(f.Blocks)
	if n > 64 {
		return 0, false
	}
	if n == 0 {
		return 0, true
	}
	mask = 1
	for todo := uint64(1); todo != 0; {
		i := bits.TrailingZeros64(todo)
		todo &^= 1 << i
		for _, s := range f.Blocks[i].Succs() {
			for j, b := range f.Blocks {
				if b == s {
					if mask&(1<<j) == 0 {
						mask |= 1 << j
						todo |= 1 << j
					}
					break
				}
			}
		}
	}
	return mask, true
}

// loopsOf returns the natural loops of f's current CFG (f.Loops, which
// reuses the loops found for an unchanged CFG), in a slice of its own
// ordered innermost first for transformation safety.
func loopsOf(f *ir.Func) []*ir.Loop {
	loops := append([]*ir.Loop(nil), f.Loops()...)
	// Innermost first: a stable insertion sort by descending depth.
	for i := 1; i < len(loops); i++ {
		for j := i; j > 0 && loops[j-1].Depth < loops[j].Depth; j-- {
			loops[j-1], loops[j] = loops[j], loops[j-1]
		}
	}
	return loops
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
// two equal constants number identically; other values use identity. The
// key is at most 128 bytes: a Go map stores a larger key in an allocation
// of its own.
type vnKey struct {
	op     ir.Op
	pred   ir.CmpPred
	nargs  uint8
	ty     string
	args   [3]vnOperand
	callee *ir.Func
}

// vnOperand is an operand's value-numbering form: the operand itself, or
// for a constant (v nil) its width and value. It is a plain struct, not an
// interface holding the constant's key, so building a vnKey allocates
// nothing.
type vnOperand struct {
	v    ir.Value
	bits int
	val  int64
}

// canonVal maps an operand to its value-numbering representation.
func canonVal(v ir.Value) vnOperand {
	if c, ok := v.(*ir.Const); ok {
		bits := 64
		if c.Ty.IsInt() {
			bits = c.Ty.Bits
		}
		return vnOperand{bits: bits, val: c.Val}
	}
	return vnOperand{v: v}
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
	args := in.Args
	if len(args) > 3 {
		args = args[:3]
	}
	k := vnKey{op: in.Op, pred: in.Pred, nargs: uint8(len(args)), ty: in.Ty.String(), callee: in.Callee}
	// Canonicalize commutative operand order before keying.
	if in.Op.IsCommutative() && len(args) == 2 && lessValue(args[1], args[0]) {
		k.args[0], k.args[1] = canonVal(args[1]), canonVal(args[0])
		return k
	}
	for i, a := range args {
		k.args[i] = canonVal(a)
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
	return ir.RefLess(a, b)
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
