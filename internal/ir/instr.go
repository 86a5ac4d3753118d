package ir

import "fmt"

// Op enumerates the instruction opcodes. The set mirrors the LLVM subset
// that the paper's feature extractor (Table 2) counts.
type Op uint8

// Instruction opcodes.
const (
	// Binary integer arithmetic.
	OpAdd Op = iota
	OpSub
	OpMul
	OpSDiv
	OpSRem
	// Bitwise.
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr
	// Comparison and selection.
	OpICmp
	OpSelect
	OpPhi
	// Memory.
	OpAlloca
	OpLoad
	OpStore
	OpGEP
	OpMemset // loop-idiom intrinsic: memset(ptr, val, len)
	// Casts.
	OpTrunc
	OpZExt
	OpSExt
	OpBitCast
	// Calls and terminators.
	OpCall
	OpPrint // observable output intrinsic (used for semantic equivalence)
	OpRet
	OpBr
	OpSwitch
	OpUnreachable
	numOps
)

var opNames = [numOps]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpSRem: "srem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpLShr: "lshr",
	OpAShr: "ashr", OpICmp: "icmp", OpSelect: "select", OpPhi: "phi",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpGEP: "getelementptr",
	OpMemset: "memset", OpTrunc: "trunc", OpZExt: "zext", OpSExt: "sext",
	OpBitCast: "bitcast", OpCall: "call", OpPrint: "print", OpRet: "ret",
	OpBr: "br", OpSwitch: "switch", OpUnreachable: "unreachable",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsBinary reports whether the op is a two-operand integer operation.
func (o Op) IsBinary() bool { return o <= OpAShr }

// IsCommutative reports whether the binary op commutes.
func (o Op) IsCommutative() bool {
	switch o {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor:
		return true
	}
	return false
}

// IsAssociative reports whether the binary op associates (used by
// -reassociate).
func (o Op) IsAssociative() bool {
	switch o {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor:
		return true
	}
	return false
}

// IsCast reports whether the op is a cast.
func (o Op) IsCast() bool {
	switch o {
	case OpTrunc, OpZExt, OpSExt, OpBitCast:
		return true
	}
	return false
}

// IsTerminator reports whether the op terminates a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case OpRet, OpBr, OpSwitch, OpUnreachable:
		return true
	}
	return false
}

// CmpPred is an icmp predicate.
type CmpPred uint8

// Signed/unsigned comparison predicates (unsigned ones compare the
// zero-extended bit patterns, as in LLVM).
const (
	CmpEQ CmpPred = iota
	CmpNE
	CmpSLT
	CmpSLE
	CmpSGT
	CmpSGE
	CmpULT
	CmpULE
	CmpUGT
	CmpUGE
)

var predNames = []string{"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}

// String returns the predicate mnemonic.
func (p CmpPred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return "?"
}

// Invert returns the logical negation of the predicate.
func (p CmpPred) Invert() CmpPred {
	switch p {
	case CmpEQ:
		return CmpNE
	case CmpNE:
		return CmpEQ
	case CmpSLT:
		return CmpSGE
	case CmpSLE:
		return CmpSGT
	case CmpSGT:
		return CmpSLE
	case CmpSGE:
		return CmpSLT
	case CmpULT:
		return CmpUGE
	case CmpULE:
		return CmpUGT
	case CmpUGT:
		return CmpULE
	case CmpUGE:
		return CmpULT
	}
	return p
}

// Swap returns the predicate with operand order reversed (a p b == b Swap(p) a).
func (p CmpPred) Swap() CmpPred {
	switch p {
	case CmpSLT:
		return CmpSGT
	case CmpSLE:
		return CmpSGE
	case CmpSGT:
		return CmpSLT
	case CmpSGE:
		return CmpSLE
	case CmpULT:
		return CmpUGT
	case CmpULE:
		return CmpUGE
	case CmpUGT:
		return CmpULT
	case CmpUGE:
		return CmpULE
	}
	return p
}

// Eval evaluates the predicate over two (sign-extended) integers of the
// given width.
func (p CmpPred) Eval(a, b int64, bits int) bool {
	mask := ^uint64(0)
	if bits < 64 {
		mask = (uint64(1) << uint(bits)) - 1
	}
	ua, ub := uint64(a)&mask, uint64(b)&mask
	switch p {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpSLT:
		return a < b
	case CmpSLE:
		return a <= b
	case CmpSGT:
		return a > b
	case CmpSGE:
		return a >= b
	case CmpULT:
		return ua < ub
	case CmpULE:
		return ua <= ub
	case CmpUGT:
		return ua > ub
	case CmpUGE:
		return ua >= ub
	}
	return false
}

// Instr is a single IR instruction. Operand layout by opcode:
//
//	binary ops:  Args = [lhs, rhs]
//	icmp:        Args = [lhs, rhs], Pred set; result type i1
//	select:      Args = [cond, tval, fval]
//	phi:         Args = incoming values, Blocks = incoming blocks (parallel)
//	alloca:      AllocTy set; result is pointer to AllocTy
//	load:        Args = [ptr]
//	store:       Args = [val, ptr]
//	gep:         Args = [base, index]; result has base's pointer type
//	memset:      Args = [ptr, val, len]
//	casts:       Args = [v]; Ty is destination type
//	call:        Args = actual arguments, Callee set
//	print:       Args = [v]
//	ret:         Args = [v] or empty
//	br:          unconditional: Blocks = [dest]; conditional: Args = [cond], Blocks = [then, else]
//	switch:      Args = [v], Blocks = [default, case0, ...], Cases = [v0, ...]
//
// The small fields share the first word, so an instruction is 128 bytes
// on 64-bit targets (DESIGN "Allocation in the IR"; TestInstrSize).
type Instr struct {
	Op   Op
	Pred CmpPred
	// BranchWeight is -lower-expect metadata: >0 means the true edge of a
	// conditional branch is expected (stripped by the lower-expect pass).
	BranchWeight int8
	id           int32 // position in the function's block order as of its last Func.Number

	Ty      *Type // result type; Void for non-value instructions
	Name    string
	Args    []Value
	Callee  *Func
	Blocks  []*Block
	Cases   []int64
	AllocTy *Type

	parent *Block
}

// Type implements Value.
func (in *Instr) Type() *Type { return in.Ty }

// Ref implements Value.
func (in *Instr) Ref() string {
	if in.Name != "" {
		return "%" + in.Name
	}
	// Unnamed values print as pure numeric locals (LLVM style), which can
	// never collide with user-provided identifiers.
	return fmt.Sprintf("%%%d", in.id)
}

// Num returns the instruction's number: its position in its function's
// block order as of the last Func.Number, zero if it was never numbered.
// Only a table that checks the slot's own instruction may trust it.
func (in *Instr) Num() int { return int(in.id) }

// Parent returns the containing basic block (nil if detached).
func (in *Instr) Parent() *Block { return in.parent }

// IsTerminator reports whether the instruction terminates its block.
func (in *Instr) IsTerminator() bool { return in.Op.IsTerminator() }

// IsConditionalBr reports whether the instruction is a conditional branch.
func (in *Instr) IsConditionalBr() bool { return in.Op == OpBr && len(in.Blocks) == 2 }

// HasSideEffects reports whether removing the instruction (when its result
// is unused) could change observable behaviour.
func (in *Instr) HasSideEffects() bool {
	switch in.Op {
	case OpStore, OpMemset, OpPrint, OpRet, OpBr, OpSwitch, OpUnreachable:
		return true
	case OpSDiv, OpSRem:
		// Division can trap on zero; keep unless the divisor is a non-zero
		// constant.
		if c, ok := IsConst(in.Args[1]); ok && c != 0 {
			return false
		}
		return true
	case OpCall:
		if in.Callee != nil && in.Callee.Attrs.ReadNone {
			return false
		}
		return true
	case OpLoad:
		// Loads are removable when dead: our IR has no volatile loads.
		return false
	}
	return false
}

// Targets returns the successor blocks of a terminator (nil otherwise).
func (in *Instr) Targets() []*Block {
	if !in.IsTerminator() {
		return nil
	}
	return in.Blocks
}

// ReplaceTarget rewrites every successor edge from old to new.
func (in *Instr) ReplaceTarget(old, new *Block) {
	for i, b := range in.Blocks {
		if b == old {
			in.Blocks[i] = new
		}
	}
}

// PhiIncoming returns the incoming value for predecessor pred of a phi.
func (in *Instr) PhiIncoming(pred *Block) (Value, bool) {
	for i, b := range in.Blocks {
		if b == pred {
			return in.Args[i], true
		}
	}
	return nil, false
}

// SetPhiIncoming sets (or adds) the incoming value for predecessor pred.
func (in *Instr) SetPhiIncoming(pred *Block, v Value) {
	for i, b := range in.Blocks {
		if b == pred {
			in.Args[i] = v
			return
		}
	}
	in.Blocks = append(in.Blocks, pred)
	in.Args = append(in.Args, v)
}

// RemovePhiIncoming deletes the incoming entry for pred, if present.
func (in *Instr) RemovePhiIncoming(pred *Block) {
	for i, b := range in.Blocks {
		if b == pred {
			in.Blocks = append(in.Blocks[:i], in.Blocks[i+1:]...)
			in.Args = append(in.Args[:i], in.Args[i+1:]...)
			return
		}
	}
}

// ReplaceUses rewrites every operand equal to old with new.
func (in *Instr) ReplaceUses(old, new Value) {
	for i, a := range in.Args {
		if a == old {
			in.Args[i] = new
		}
	}
}
