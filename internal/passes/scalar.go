package passes

import "autophase/internal/ir"

// instCombine is the peephole combiner: algebraic identities, constant
// folding, cast collapsing and canonicalization, iterated to a fixed point.
func instCombine(f *ir.Func) bool {
	changed := false
	var snap []*ir.Instr
	for {
		once := foldConstants(f)
		for _, b := range f.Blocks {
			for _, in := range instrsOf(&snap, b) {
				switch v, st := combineOne(f, in); st {
				case combineReplaced:
					f.ReplaceAllUses(in, v)
					b.Remove(in)
					once = true
				case combineMutated:
					once = true
				}
			}
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

type combineStatus int

const (
	combineNone combineStatus = iota
	combineReplaced
	combineMutated
)

// combineOne returns a simpler replacement value for in (combineReplaced),
// or rewrites it in place (combineMutated).
func combineOne(f *ir.Func, in *ir.Instr) (ir.Value, combineStatus) {
	// Canonicalize: constants to the right of commutative ops. The swap is a
	// mutation in its own right and must be reported even when no folding
	// rule fires afterwards.
	canon := false
	if in.Op.IsBinary() && in.Op.IsCommutative() {
		if _, lc := ir.IsConst(in.Args[0]); lc {
			if _, rc := ir.IsConst(in.Args[1]); !rc {
				in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
				canon = true
			}
		}
	}
	v, st := combineRules(f, in)
	if st == combineNone && canon {
		return nil, combineMutated
	}
	return v, st
}

// combineRules holds the per-opcode rewrite rules; combineOne wraps it with
// the commutative canonicalization.
func combineRules(f *ir.Func, in *ir.Instr) (ir.Value, combineStatus) {
	x := func() ir.Value { return in.Args[0] }
	zero := func() ir.Value { return ir.ConstInt(in.Ty, 0) }

	switch in.Op {
	case ir.OpAdd:
		if ir.IsConstVal(in.Args[1], 0) {
			return x(), combineReplaced
		}
		// (y + c1) + c2 -> y + (c1+c2)
		if c2, ok := ir.IsConst(in.Args[1]); ok {
			if inner, ok := in.Args[0].(*ir.Instr); ok && inner.Op == ir.OpAdd && inner.Ty.Equal(in.Ty) {
				if c1, ok := ir.IsConst(inner.Args[1]); ok {
					in.Args[0] = inner.Args[0]
					in.Args[1] = ir.ConstInt(in.Ty, c1+c2)
					return nil, combineMutated
				}
			}
		}
	case ir.OpSub:
		if ir.IsConstVal(in.Args[1], 0) {
			return x(), combineReplaced
		}
		if in.Args[0] == in.Args[1] {
			return zero(), combineReplaced
		}
	case ir.OpMul:
		if ir.IsConstVal(in.Args[1], 1) {
			return x(), combineReplaced
		}
		if ir.IsConstVal(in.Args[1], 0) {
			return zero(), combineReplaced
		}
		// x * 2^k -> x << k (the scheduler treats constant shifts as free
		// wiring, so this is a genuine HLS win).
		if c, ok := ir.IsConst(in.Args[1]); ok && c > 1 && c&(c-1) == 0 {
			k := int64(0)
			for v := c; v > 1; v >>= 1 {
				k++
			}
			in.Op = ir.OpShl
			in.Args[1] = ir.ConstInt(in.Ty, k)
			return nil, combineMutated
		}
	case ir.OpSDiv:
		if ir.IsConstVal(in.Args[1], 1) {
			return x(), combineReplaced
		}
	case ir.OpSRem:
		if ir.IsConstVal(in.Args[1], 1) {
			return zero(), combineReplaced
		}
	case ir.OpAnd:
		if ir.IsConstVal(in.Args[1], 0) {
			return zero(), combineReplaced
		}
		if in.Args[0] == in.Args[1] {
			return x(), combineReplaced
		}
		if c, ok := ir.IsConst(in.Args[1]); ok && in.Ty.IsInt() &&
			uint64(c)&in.Ty.Mask() == in.Ty.Mask() {
			return x(), combineReplaced
		}
	case ir.OpOr:
		if ir.IsConstVal(in.Args[1], 0) {
			return x(), combineReplaced
		}
		if in.Args[0] == in.Args[1] {
			return x(), combineReplaced
		}
	case ir.OpXor:
		if ir.IsConstVal(in.Args[1], 0) {
			return x(), combineReplaced
		}
		if in.Args[0] == in.Args[1] {
			return zero(), combineReplaced
		}
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		if ir.IsConstVal(in.Args[1], 0) {
			return x(), combineReplaced
		}
	case ir.OpICmp:
		if in.Args[0] == in.Args[1] {
			switch in.Pred {
			case ir.CmpEQ, ir.CmpSLE, ir.CmpSGE, ir.CmpULE, ir.CmpUGE:
				return ir.ConstInt(ir.I1, 1), combineReplaced
			default:
				return ir.ConstInt(ir.I1, 0), combineReplaced
			}
		}
	case ir.OpSelect:
		if in.Args[1] == in.Args[2] {
			return in.Args[1], combineReplaced
		}
	case ir.OpGEP:
		if ir.IsConstVal(in.Args[1], 0) {
			return in.Args[0], combineReplaced
		}
		// gep(gep(p, a), b) -> gep(p, a+b) when a and b are constants.
		if inner, ok := in.Args[0].(*ir.Instr); ok && inner.Op == ir.OpGEP {
			a, aok := ir.IsConst(inner.Args[1])
			b, bok := ir.IsConst(in.Args[1])
			if aok && bok {
				in.Args[0] = inner.Args[0]
				in.Args[1] = ir.ConstInt(ir.I64, a+b)
				return nil, combineMutated
			}
		}
	case ir.OpTrunc, ir.OpZExt, ir.OpSExt, ir.OpBitCast:
		if in.Ty.Equal(in.Args[0].Type()) && in.Op != ir.OpTrunc {
			return x(), combineReplaced
		}
		// zext(zext x) and sext(sext x) collapse to one wider cast.
		if inner, ok := in.Args[0].(*ir.Instr); ok && inner.Op == in.Op &&
			(in.Op == ir.OpZExt || in.Op == ir.OpSExt) {
			in.Args[0] = inner.Args[0]
			return nil, combineMutated
		}
	case ir.OpPhi:
		// Phi whose incomings are all the same value (ignoring self-loops)
		// is that value; equal constants count as the same value.
		var uniq ir.Value
		ok := true
		for _, a := range in.Args {
			if a == in {
				continue
			}
			if uniq == nil {
				uniq = a
			} else if uniq != a && !sameConst(uniq, a) {
				ok = false
				break
			}
		}
		if ok && uniq != nil {
			if _, isInstr := uniq.(*ir.Instr); !isInstr || phiReplacementSafe(f, in, uniq) {
				return uniq, combineReplaced
			}
		}
	}
	return nil, combineNone
}

// sameConst reports whether two values are equal integer constants of the
// same type.
func sameConst(a, b ir.Value) bool {
	ca, aok := a.(*ir.Const)
	cb, bok := b.(*ir.Const)
	return aok && bok && ca.Val == cb.Val && ca.Ty.Equal(cb.Ty)
}

// phiReplacementSafe checks the dominance condition for folding a
// same-incoming phi: the value must dominate the phi's block.
func phiReplacementSafe(f *ir.Func, phi *ir.Instr, v ir.Value) bool {
	def, ok := v.(*ir.Instr)
	if !ok {
		return true
	}
	return f.Dom().StrictlyDominates(def.Parent(), phi.Parent())
}

// reassociate flattens single-use chains of one associative operator,
// gathers the constant leaves into a single folded constant, and rebuilds
// the tree with the constant last — exposing redundancy for CSE/GVN and
// loop-invariant subtrees for LICM.
func reassociate(f *ir.Func) bool {
	changed := false
	uses := buildUseCounts(f)
	var snap []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range instrsOf(&snap, b) {
			if !in.Op.IsAssociative() || !in.Op.IsBinary() {
				continue
			}
			// Only rebuild at chain roots (avoid rewriting interior nodes).
			if isChainInterior(in, uses) {
				continue
			}
			leaves := flattenChain(in, in.Op, uses, b)
			if len(leaves) < 3 {
				continue
			}
			var consts []int64
			var vals []ir.Value
			for _, l := range leaves {
				if c, ok := ir.IsConst(l); ok {
					consts = append(consts, c)
				} else {
					vals = append(vals, l)
				}
			}
			if len(consts) < 2 {
				continue
			}
			acc := consts[0]
			for _, c := range consts[1:] {
				acc = ir.EvalBinary(in.Op, in.Ty, acc, c)
			}
			cv := ir.ConstInt(in.Ty, acc)
			// Rebuild: ((v0 op v1) op v2 ...) op c
			var tree ir.Value
			if len(vals) == 0 {
				tree = cv
			} else {
				tree = vals[0]
				for _, v := range vals[1:] {
					n := &ir.Instr{Op: in.Op, Ty: in.Ty, Args: []ir.Value{tree, v}}
					b.InsertBefore(n, in)
					tree = n
				}
				n := &ir.Instr{Op: in.Op, Ty: in.Ty, Args: []ir.Value{tree, cv}}
				b.InsertBefore(n, in)
				tree = n
			}
			f.ReplaceAllUses(in, tree)
			b.Remove(in)
			changed = true
			uses = buildUseCounts(f)
		}
	}
	if changed {
		removeTriviallyDead(f)
		foldConstants(f)
	}
	return changed
}

func isChainInterior(in *ir.Instr, uses useCounts) bool {
	if uses.get(in) != 1 {
		return false
	}
	u := soleUser(in.Parent().Parent(), in)
	return u != nil && u.Op == in.Op && u.Parent() == in.Parent()
}

// flattenChain collects the leaves of the same-op single-use tree rooted at
// in, restricted to instructions in block b.
func flattenChain(in *ir.Instr, op ir.Op, uses useCounts, b *ir.Block) []ir.Value {
	var leaves []ir.Value
	var walk func(v ir.Value)
	walk = func(v ir.Value) {
		if n, ok := v.(*ir.Instr); ok && n.Op == op && n.Parent() == b && (n == in || uses.get(n) == 1) {
			walk(n.Args[0])
			walk(n.Args[1])
			return
		}
		leaves = append(leaves, v)
	}
	walk(in)
	return leaves
}
