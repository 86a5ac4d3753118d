package ir

// EvalBinary computes a binary integer operation over 64-bit values and
// truncates the result to ty's width with two's-complement semantics. It is
// the single evaluation rule shared by the interpreter, SCCP and the
// constant folders, so they cannot disagree. Division by zero saturates to
// 0 here (the interpreter traps instead; folders must not fold a division
// whose divisor may be zero).
func EvalBinary(op Op, ty *Type, a, b int64) int64 {
	var r int64
	switch op {
	case OpAdd:
		r = a + b
	case OpSub:
		r = a - b
	case OpMul:
		r = a * b
	case OpSDiv:
		if b == 0 || (a == minOf(ty) && b == -1) {
			return 0
		}
		r = a / b
	case OpSRem:
		if b == 0 || (a == minOf(ty) && b == -1) {
			return 0
		}
		r = a % b
	case OpAnd:
		r = a & b
	case OpOr:
		r = a | b
	case OpXor:
		r = a ^ b
	case OpShl:
		r = a << shiftAmt(ty, b)
	case OpLShr:
		r = int64((uint64(a) & ty.Mask()) >> shiftAmt(ty, b))
	case OpAShr:
		r = ty.TruncVal(a) >> shiftAmt(ty, b)
	default:
		return 0
	}
	return ty.TruncVal(r)
}

func minOf(ty *Type) int64 {
	if !ty.IsInt() || ty.Bits >= 64 {
		return -1 << 63
	}
	return -(int64(1) << uint(ty.Bits-1))
}

// shiftAmt clamps the shift amount modulo the bit width, mirroring hardware
// shifters (LLVM leaves over-shift as poison; a fixed modulo rule keeps the
// interpreter and folders consistent).
func shiftAmt(ty *Type, b int64) uint {
	bits := 64
	if ty.IsInt() && ty.Bits > 0 {
		bits = ty.Bits
	}
	return uint(uint64(b) % uint64(bits))
}

// EvalCast computes a cast of v from fromTy to toTy.
func EvalCast(op Op, fromTy, toTy *Type, v int64) int64 {
	switch op {
	case OpTrunc:
		return toTy.TruncVal(v)
	case OpZExt:
		return int64(uint64(v) & fromTy.Mask())
	case OpSExt:
		return fromTy.TruncVal(v)
	case OpBitCast:
		return v
	}
	return v
}

// FoldInstr attempts to constant-fold in when all value operands are
// constants, returning the folded constant.
func FoldInstr(in *Instr) (*Const, bool) {
	if !in.Op.IsBinary() && in.Op != OpICmp && !in.Op.IsCast() && in.Op != OpSelect {
		return nil, false
	}
	var buf [3]int64 // the foldable ops take at most three operands
	cv := buf[:0]
	if len(in.Args) > len(buf) {
		cv = make([]int64, 0, len(in.Args))
	}
	cv = cv[:len(in.Args)]
	for i, a := range in.Args {
		c, ok := IsConst(a)
		if !ok {
			return nil, false
		}
		cv[i] = c
	}
	v, ok := FoldValues(in, cv)
	if !ok {
		return nil, false
	}
	if in.Op == OpICmp {
		return ConstInt(I1, v), true
	}
	return ConstInt(in.Ty, v), true
}

// FoldValues folds in as if its operands were the constants cv, returning
// the value FoldInstr's constant would hold (an i1 true is -1). It reports
// false for an op that does not fold or a division that would trap.
func FoldValues(in *Instr, cv []int64) (int64, bool) {
	switch {
	case in.Op.IsBinary():
		if (in.Op == OpSDiv || in.Op == OpSRem) && cv[1] == 0 {
			return 0, false // would trap; leave for the interpreter
		}
		return in.Ty.TruncVal(EvalBinary(in.Op, in.Ty, cv[0], cv[1])), true
	case in.Op == OpICmp:
		bits := 64
		if t := in.Args[0].Type(); t.IsInt() {
			bits = t.Bits
		}
		if in.Pred.Eval(cv[0], cv[1], bits) {
			return I1.TruncVal(1), true
		}
		return 0, true
	case in.Op.IsCast():
		return in.Ty.TruncVal(EvalCast(in.Op, in.Args[0].Type(), in.Ty, cv[0])), true
	case in.Op == OpSelect:
		if cv[0] != 0 {
			return in.Ty.TruncVal(cv[1]), true
		}
		return in.Ty.TruncVal(cv[2]), true
	}
	return 0, false
}
