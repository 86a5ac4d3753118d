package vm

import (
	"errors"
	"fmt"
	"slices"

	"autophase/internal/ir"
)

// ErrDecline wraps every lowering refusal: IR the lowerer cannot prove it
// reproduces bit-exactly (unterminated blocks, foreign operands, widths
// outside the encodable range, dominance violations, ...). Callers fall
// back to the tree-walking interpreter, which defines the semantics for
// those cases; declining is always safe, only slower.
var ErrDecline = errors.New("vm: lowering declined")

func declinef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrDecline, fmt.Sprintf(format, args...))
}

// Lower flattens mod to bytecode, folding weight(b) — the HLS schedule's
// per-block FSM state count — into each block's entry instruction so the
// profile is accumulated by the dispatch loop itself. The returned Program
// is self-contained (no live ir pointers) and bound to the schedule whose
// weights it folded.
//
// Every function is lowered independently; a function that declines is
// stubbed, and the module declines only if a stubbed function is reachable
// from main through lowered call sites (dead helpers with unloweable
// bodies don't block the fast path, exactly as the interpreter never
// executes them).
func Lower(mod *ir.Module, weight func(*ir.Block) int) (*Program, error) {
	p := &Program{main: -1}
	for _, g := range mod.Globals {
		n := g.NumElems()
		if n < 0 {
			return nil, declinef("global @%s has negative size", g.Name)
		}
		p.globals = append(p.globals, globalInit{
			cells: n,
			init:  append([]int64(nil), g.Init...),
		})
	}

	errs := make([]error, len(mod.Funcs))
	p.funcs = make([]funcCode, len(mod.Funcs))
	for i, f := range mod.Funcs {
		fc, err := lowerFunc(mod, f, weight)
		if err != nil {
			errs[i] = err
			// Never-executed stub: reachability below declines the module
			// before a call could land here. Parameter count is kept real
			// so call-site arg copies verify against it.
			p.funcs[i] = funcCode{
				name:    f.Name,
				code:    []inst{{op: opUnreachable, dst: -1, a: -1, b: -1, c: -1}},
				nparams: len(f.Params),
				numRegs: len(f.Params),
			}
			continue
		}
		p.funcs[i] = fc
	}
	for i, f := range mod.Funcs {
		if f.Name == "main" {
			p.main = i
			break
		}
	}
	if p.main >= 0 {
		// BFS over lowered call sites from main: every function the VM
		// could actually invoke must have lowered.
		seen := make([]bool, len(p.funcs))
		queue := []int{p.main}
		seen[p.main] = true
		for len(queue) > 0 {
			fi := queue[0]
			queue = queue[1:]
			if errs[fi] != nil {
				return nil, errs[fi]
			}
			for _, cd := range p.funcs[fi].calls {
				if !seen[cd.fn] {
					seen[cd.fn] = true
					queue = append(queue, int(cd.fn))
				}
			}
		}
	}
	return p, nil
}

// Width encodings. The inst.w byte must make the VM's trunc/maskOf/minOf
// helpers agree exactly with ir's TruncVal/Mask/minOf and shiftAmt for the
// type in question; widths that cannot be encoded exactly decline.

// widthBin encodes a binary op's result type: shiftAmt, TruncVal and the
// division saturation threshold all key off it, so only 1..64-bit ints (and
// non-int types, where all three degrade to 64-bit behaviour) are exact.
func widthBin(t *ir.Type) (uint8, bool) {
	if !t.IsInt() {
		return 64, true
	}
	if t.Bits < 1 || t.Bits > 64 {
		return 0, false
	}
	return uint8(t.Bits), true
}

// widthTrunc encodes TruncVal semantics: identity at >=64 bits or non-int,
// sign-truncation below (0 bits collapses to 0, which trunc reproduces).
func widthTrunc(t *ir.Type) (uint8, bool) {
	if !t.IsInt() || t.Bits >= 64 {
		return 64, true
	}
	if t.Bits < 0 {
		return 0, false
	}
	return uint8(t.Bits), true
}

// widthMask encodes Mask semantics for zext (full mask at >=64 or non-int).
func widthMask(t *ir.Type) (uint8, bool) {
	if !t.IsInt() || t.Bits >= 64 {
		return 64, true
	}
	if t.Bits < 0 {
		return 0, false
	}
	return uint8(t.Bits), true
}

// widthICmp encodes the comparison width CmpPred.Eval derives from the
// left operand's type.
func widthICmp(t *ir.Type) (uint8, bool) {
	if !t.IsInt() || t.Bits >= 64 {
		return 64, true
	}
	if t.Bits < 0 {
		return 0, false
	}
	return uint8(t.Bits), true
}

type blockInfo struct {
	b     *ir.Block
	phis  []*ir.Instr
	term  int      // index of the terminator (always last, or the block declined)
	head  int32    // pc of the block's opEnter
	edges []edgePC // the stub of each edge out of the block, once emitted
}

// edgePC is the pc of the stub for the edge into succ.
type edgePC struct {
	succ *ir.Block
	pc   int32
}

// edge returns the stub pc of the edge into succ, once emitted.
func (bi *blockInfo) edge(succ *ir.Block) (int32, bool) {
	for _, e := range bi.edges {
		if e.succ == succ {
			return e.pc, true
		}
	}
	return 0, false
}

// lowerSlot is what lowering knows about one instruction: its register
// and, for a lowered block's terminator, that block's record (each one
// more than the register or the index in infos; zero is none).
type lowerSlot struct {
	in  *ir.Instr
	reg int32
	blk int32
}

// constPool numbers a function's distinct constants in first-use order:
// an open-addressing index over vals.
type constPool struct {
	vals  []int64
	index []int32 // one more than a position in vals, zero for free; a power of two long
}

// of returns v's position in vals, appending v when it is new.
func (cp *constPool) of(v int64) int32 {
	if 2*(len(cp.vals)+1) > len(cp.index) {
		cp.grow()
	}
	mask := uint64(len(cp.index) - 1)
	for h := (uint64(v) * 0x9e3779b97f4a7c15) >> 32 & mask; ; h = (h + 1) & mask {
		k := cp.index[h]
		if k == 0 {
			cp.vals = append(cp.vals, v)
			cp.index[h] = int32(len(cp.vals))
			return int32(len(cp.vals) - 1)
		}
		if cp.vals[k-1] == v {
			return k - 1
		}
	}
}

func (cp *constPool) grow() {
	n := max(16, 2*len(cp.index))
	cp.index = make([]int32, n)
	mask := uint64(n - 1)
	for i, v := range cp.vals {
		h := (uint64(v) * 0x9e3779b97f4a7c15) >> 32 & mask
		for cp.index[h] != 0 {
			h = (h + 1) & mask
		}
		cp.index[h] = int32(i + 1)
	}
}

func lowerFunc(mod *ir.Module, f *ir.Func, weight func(*ir.Block) int) (funcCode, error) {
	fail := func(err error) (funcCode, error) { return funcCode{}, err }
	if len(f.Blocks) == 0 {
		return fail(declinef("%s: empty function", f.Name))
	}
	if f.Entry().NumPhis() > 0 {
		return fail(declinef("%s: phi in entry block", f.Name))
	}
	dt := ir.NewDomTree(f)

	// Pass 1: shape checks and register assignment. Every value-producing
	// instruction of a reachable block gets a dense register; uses of
	// anything else (dead blocks, post-terminator code) decline via the
	// missing register. Iteration follows f.Blocks order throughout, so
	// the emitted code and pool layout are deterministic. Registers and
	// block records live in one table indexed by instruction number
	// (ir.Func.Number, which only reads a published function), each slot
	// checked against its own instruction; a block's record is found
	// through its terminator's slot.
	nparams := len(f.Params)
	slots := make([]lowerSlot, f.Number())
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			slots[in.Num()].in = in
		}
	}
	slotOf := func(in *ir.Instr) *lowerSlot {
		if k := in.Num(); k < len(slots) && slots[k].in == in {
			return &slots[k]
		}
		return nil
	}
	var infos []blockInfo
	infoOf := func(b *ir.Block) *blockInfo {
		if len(b.Instrs) == 0 {
			return nil
		}
		if s := slotOf(b.Instrs[len(b.Instrs)-1]); s != nil && s.blk > 0 && infos[s.blk-1].b == b {
			return &infos[s.blk-1]
		}
		return nil
	}
	var rblocks []*ir.Block
	ncode := 0 // the code's length, unless phi moves need staging
	next := int32(nparams)
	maxPhis := 0
	for _, b := range f.Blocks {
		if !dt.Reachable(b) {
			continue
		}
		term := -1
		for i, in := range b.Instrs {
			if in.IsTerminator() {
				term = i
				break
			}
		}
		if term < 0 {
			return fail(declinef("%s/%s: no terminator", f.Name, b.Name))
		}
		if term != len(b.Instrs)-1 {
			// The interpreter branches at the first terminator, but Succs()
			// (hence reachability and dominance) reads the last instruction:
			// the analyses would describe a different CFG than the one
			// executed. Decline rather than trust either.
			return fail(declinef("%s/%s: instructions after terminator", f.Name, b.Name))
		}
		np := b.NumPhis()
		phis := b.Instrs[:np:np]
		for _, in := range b.Instrs[np:term] {
			if in.Op == ir.OpPhi {
				return fail(declinef("%s/%s: phi after non-phi", f.Name, b.Name))
			}
		}
		if len(phis) > maxPhis {
			maxPhis = len(phis)
		}
		// The block's opEnter and one inst per non-phi instruction, and
		// for each edge into its phis a move per phi and a goto unless the
		// moves go through staging.
		ncode += 1 + len(b.Instrs) - np
		if np > 0 {
			ncode += len(dt.Preds(b)) * (np + 1)
		}
		for _, in := range b.Instrs {
			if !in.Ty.IsVoid() {
				slotOf(in).reg = next + 1
				next++
			}
		}
		rblocks = append(rblocks, b)
		infos = append(infos, blockInfo{b: b, phis: phis, term: term})
		slotOf(b.Instrs[term]).blk = int32(len(infos))
	}

	// Register file layout: [params | results | phi staging | consts].
	// Staging sits before the pool because the pool keeps growing while
	// code (including edge stubs that need staging indices) is emitted.
	stagingBase := next
	constBase := stagingBase + int32(maxPhis)
	var consts constPool
	constRegFor := func(v int64) int32 { return constBase + consts.of(v) }
	operand := func(v ir.Value) (int32, error) {
		switch x := v.(type) {
		case *ir.Const:
			return constRegFor(x.Val), nil
		case *ir.Undef:
			return constRegFor(0), nil
		case *ir.Global:
			gi := slices.Index(mod.Globals, x)
			if gi < 0 {
				return 0, declinef("%s: foreign global %s", f.Name, x.Ref())
			}
			// Address of global i is a compile-time constant under the
			// interpreter's allocation scheme: objects are numbered in
			// module order starting at 0, and encodePtr(i, 0) == (i+1)<<offBits.
			return constRegFor(int64(gi+1) << offBits), nil
		case *ir.Param:
			if x.Index < 0 || x.Index >= nparams || f.Params[x.Index] != x {
				return 0, declinef("%s: foreign param %s", f.Name, x.Ref())
			}
			return int32(x.Index), nil
		case *ir.Instr:
			s := slotOf(x)
			if s == nil || s.reg == 0 {
				return 0, declinef("%s: use of unlowered value %s", f.Name, x.Ref())
			}
			return s.reg - 1, nil
		default:
			return 0, declinef("%s: unknown operand kind %T", f.Name, v)
		}
	}
	// arg resolves an operand of use and proves its definition reaches it;
	// dominance is what lets the dispatch loop read registers without
	// definedness tracking (the interpreter errors on undefined values).
	arg := func(v ir.Value, use *ir.Instr) (int32, error) {
		if !dt.DominatesInstr(v, use) {
			return 0, declinef("%s: operand %s does not dominate its use", f.Name, v.Ref())
		}
		return operand(v)
	}
	mustDst := func(in *ir.Instr) (int32, error) {
		s := slotOf(in)
		if s == nil || s.reg == 0 {
			return 0, declinef("%s: value instruction %s with void type", f.Name, in.Op)
		}
		return s.reg - 1, nil
	}

	// Phase A: block bodies. Terminator targets can't resolve until the
	// edge stubs exist, so they are recorded as patches against (pred,
	// succ) and filled in phase C.
	type patch struct {
		pc    int
		field int // 0 = a, 1 = b, 2 = c
		pred  *ir.Block
		succ  *ir.Block
	}
	type swPatch struct {
		desc int
		idx  int // case index; -1 = default
		pred *ir.Block
		succ *ir.Block
	}
	var (
		code      = make([]inst, 0, ncode)
		patches   []patch
		swPatches []swPatch
		calls     []callDesc
		switches  []switchDesc
	)
	emit := func(i inst) int {
		code = append(code, i)
		return len(code) - 1
	}
	for i, b := range rblocks {
		bi := &infos[i]
		w := weight(b)
		if w < 0 {
			return fail(declinef("%s/%s: negative block weight", f.Name, b.Name))
		}
		bi.head = int32(len(code))
		emit(inst{op: opEnter, dst: -1, a: int32(len(bi.phis)), b: -1, c: -1, imm: int64(w)})
		for _, in := range b.Instrs[len(bi.phis):] {
			switch {
			case in.Op.IsBinary():
				if len(in.Args) < 2 {
					return fail(declinef("%s: %s with %d operands", f.Name, in.Op, len(in.Args)))
				}
				w, ok := widthBin(in.Ty)
				if !ok {
					return fail(declinef("%s: %s at unencodable width %s", f.Name, in.Op, in.Ty))
				}
				a, err := arg(in.Args[0], in)
				if err != nil {
					return fail(err)
				}
				bb, err := arg(in.Args[1], in)
				if err != nil {
					return fail(err)
				}
				d, err := mustDst(in)
				if err != nil {
					return fail(err)
				}
				emit(inst{op: opAdd + op(in.Op-ir.OpAdd), w: w, dst: d, a: a, b: bb, c: -1})
			case in.Op == ir.OpICmp:
				if len(in.Args) < 2 {
					return fail(declinef("%s: icmp with %d operands", f.Name, len(in.Args)))
				}
				if in.Pred > ir.CmpUGE {
					return fail(declinef("%s: icmp with unknown predicate", f.Name))
				}
				w, ok := widthICmp(in.Args[0].Type())
				if !ok {
					return fail(declinef("%s: icmp at unencodable width", f.Name))
				}
				a, err := arg(in.Args[0], in)
				if err != nil {
					return fail(err)
				}
				bb, err := arg(in.Args[1], in)
				if err != nil {
					return fail(err)
				}
				d, err := mustDst(in)
				if err != nil {
					return fail(err)
				}
				emit(inst{op: opEq + op(in.Pred), w: w, dst: d, a: a, b: bb, c: -1})
			case in.Op == ir.OpSelect:
				if len(in.Args) < 3 {
					return fail(declinef("%s: select with %d operands", f.Name, len(in.Args)))
				}
				a, err := arg(in.Args[0], in)
				if err != nil {
					return fail(err)
				}
				bb, err := arg(in.Args[1], in)
				if err != nil {
					return fail(err)
				}
				cc, err := arg(in.Args[2], in)
				if err != nil {
					return fail(err)
				}
				d, err := mustDst(in)
				if err != nil {
					return fail(err)
				}
				emit(inst{op: opSelect, dst: d, a: a, b: bb, c: cc})
			case in.Op == ir.OpAlloca:
				if in.AllocTy == nil {
					return fail(declinef("%s: alloca without allocated type", f.Name))
				}
				n := 1
				if in.AllocTy.Kind == ir.ArrayKind {
					n = in.AllocTy.Len
				}
				if n < 0 {
					return fail(declinef("%s: alloca of negative size", f.Name))
				}
				d, err := mustDst(in)
				if err != nil {
					return fail(err)
				}
				emit(inst{op: opAlloca, dst: d, a: -1, b: -1, c: -1, imm: int64(n)})
			case in.Op == ir.OpLoad:
				if len(in.Args) < 1 {
					return fail(declinef("%s: load without address", f.Name))
				}
				w, ok := widthTrunc(in.Ty)
				if !ok {
					return fail(declinef("%s: load at unencodable width %s", f.Name, in.Ty))
				}
				a, err := arg(in.Args[0], in)
				if err != nil {
					return fail(err)
				}
				d, err := mustDst(in)
				if err != nil {
					return fail(err)
				}
				emit(inst{op: opLoad, w: w, dst: d, a: a, b: -1, c: -1})
			case in.Op == ir.OpStore:
				if len(in.Args) < 2 {
					return fail(declinef("%s: store with %d operands", f.Name, len(in.Args)))
				}
				a, err := arg(in.Args[0], in)
				if err != nil {
					return fail(err)
				}
				bb, err := arg(in.Args[1], in)
				if err != nil {
					return fail(err)
				}
				emit(inst{op: opStore, dst: -1, a: a, b: bb, c: -1})
			case in.Op == ir.OpGEP:
				if len(in.Args) < 2 {
					return fail(declinef("%s: gep with %d operands", f.Name, len(in.Args)))
				}
				a, err := arg(in.Args[0], in)
				if err != nil {
					return fail(err)
				}
				bb, err := arg(in.Args[1], in)
				if err != nil {
					return fail(err)
				}
				d, err := mustDst(in)
				if err != nil {
					return fail(err)
				}
				emit(inst{op: opGEP, dst: d, a: a, b: bb, c: -1})
			case in.Op == ir.OpMemset:
				if len(in.Args) < 3 {
					return fail(declinef("%s: memset with %d operands", f.Name, len(in.Args)))
				}
				a, err := arg(in.Args[0], in)
				if err != nil {
					return fail(err)
				}
				bb, err := arg(in.Args[1], in)
				if err != nil {
					return fail(err)
				}
				cc, err := arg(in.Args[2], in)
				if err != nil {
					return fail(err)
				}
				emit(inst{op: opMemset, dst: -1, a: a, b: bb, c: cc})
			case in.Op.IsCast():
				if len(in.Args) < 1 {
					return fail(declinef("%s: cast without operand", f.Name))
				}
				var (
					o  op
					w  uint8
					ok bool
				)
				switch in.Op {
				case ir.OpTrunc:
					o = opTrunc
					w, ok = widthTrunc(in.Ty)
				case ir.OpZExt:
					o = opZExt
					w, ok = widthMask(in.Args[0].Type())
				case ir.OpSExt:
					o = opSExt
					w, ok = widthTrunc(in.Args[0].Type())
				default: // bitcast
					o, w, ok = opCopy, 64, true
				}
				if !ok {
					return fail(declinef("%s: %s at unencodable width", f.Name, in.Op))
				}
				a, err := arg(in.Args[0], in)
				if err != nil {
					return fail(err)
				}
				d, err := mustDst(in)
				if err != nil {
					return fail(err)
				}
				emit(inst{op: o, w: w, dst: d, a: a, b: -1, c: -1})
			case in.Op == ir.OpCall:
				callee := in.Callee
				if callee == nil {
					return fail(declinef("%s: call without callee", f.Name))
				}
				ci := int32(slices.Index(mod.Funcs, callee))
				if ci < 0 {
					return fail(declinef("%s: call to foreign function %s", f.Name, callee.Name))
				}
				np := len(callee.Params)
				if len(in.Args) < np {
					// The interpreter leaves the missing parameters
					// undefined; registers can't represent that.
					return fail(declinef("%s: call to %s with %d of %d args", f.Name, callee.Name, len(in.Args), np))
				}
				// The interpreter evaluates every actual, including extras
				// beyond the parameter list, so all must resolve; only the
				// bound prefix is passed.
				args := make([]int32, 0, np)
				for k, av := range in.Args {
					r, err := arg(av, in)
					if err != nil {
						return fail(err)
					}
					if k < np {
						args = append(args, r)
					}
				}
				d := int32(-1)
				if !in.Ty.IsVoid() {
					var err error
					if d, err = mustDst(in); err != nil {
						return fail(err)
					}
				}
				calls = append(calls, callDesc{fn: ci, args: args})
				emit(inst{op: opCall, dst: d, a: int32(len(calls) - 1), b: -1, c: -1})
			case in.Op == ir.OpPrint:
				if len(in.Args) < 1 {
					return fail(declinef("%s: print without operand", f.Name))
				}
				a, err := arg(in.Args[0], in)
				if err != nil {
					return fail(err)
				}
				emit(inst{op: opPrint, dst: -1, a: a, b: -1, c: -1})
			case in.Op == ir.OpRet:
				a := int32(-1)
				if len(in.Args) > 0 {
					var err error
					if a, err = arg(in.Args[0], in); err != nil {
						return fail(err)
					}
				}
				emit(inst{op: opRet, dst: -1, a: a, b: -1, c: -1})
			case in.Op == ir.OpBr:
				switch len(in.Blocks) {
				case 1:
					pc := emit(inst{op: opJmp, dst: -1, a: -1, b: -1, c: -1})
					patches = append(patches, patch{pc, 0, b, in.Blocks[0]})
				case 2:
					if len(in.Args) < 1 {
						return fail(declinef("%s: conditional br without condition", f.Name))
					}
					cond, err := arg(in.Args[0], in)
					if err != nil {
						return fail(err)
					}
					pc := emit(inst{op: opBr, dst: -1, a: cond, b: -1, c: -1})
					patches = append(patches,
						patch{pc, 1, b, in.Blocks[0]},
						patch{pc, 2, b, in.Blocks[1]})
				default:
					return fail(declinef("%s: br with %d targets", f.Name, len(in.Blocks)))
				}
			case in.Op == ir.OpSwitch:
				if len(in.Args) < 1 {
					return fail(declinef("%s: switch without operand", f.Name))
				}
				if len(in.Blocks) < len(in.Cases)+1 {
					return fail(declinef("%s: switch with %d targets for %d cases", f.Name, len(in.Blocks), len(in.Cases)))
				}
				v, err := arg(in.Args[0], in)
				if err != nil {
					return fail(err)
				}
				si := len(switches)
				switches = append(switches, switchDesc{
					cases:   append([]int64(nil), in.Cases...),
					targets: make([]int32, len(in.Cases)),
				})
				emit(inst{op: opSwitch, dst: -1, a: v, b: int32(si), c: -1})
				swPatches = append(swPatches, swPatch{si, -1, b, in.Blocks[0]})
				for k := range in.Cases {
					swPatches = append(swPatches, swPatch{si, k, b, in.Blocks[k+1]})
				}
			case in.Op == ir.OpUnreachable:
				emit(inst{op: opUnreachable, dst: -1, a: -1, b: -1, c: -1})
			default:
				return fail(declinef("%s: unhandled op %s", f.Name, in.Op))
			}
		}
	}

	// Phase B: one stub per executed (pred, succ) edge. Edges into phi-free
	// blocks jump straight to the head; phi edges copy the incoming values
	// with the interpreter's read-all-then-write-all atomicity (via staging
	// registers when a destination doubles as a source).
	for i, b := range rblocks {
		bi := &infos[i]
		t := b.Instrs[bi.term]
		var targets []*ir.Block
		switch t.Op {
		case ir.OpBr:
			targets = t.Blocks
		case ir.OpSwitch:
			// Blocks beyond Cases+1 are never dispatched to; don't force
			// their phi edges to lower.
			targets = t.Blocks[:len(t.Cases)+1]
		}
		for _, succ := range targets {
			if _, seen := bi.edge(succ); seen {
				continue
			}
			sbi := infoOf(succ)
			if sbi == nil {
				return fail(declinef("%s/%s: edge into unlowered block", f.Name, b.Name))
			}
			if len(sbi.phis) == 0 {
				bi.edges = append(bi.edges, edgePC{succ, sbi.head})
				continue
			}
			stub := int32(len(code))
			srcs := make([]int32, len(sbi.phis))
			dsts := make([]int32, len(sbi.phis))
			for j, phi := range sbi.phis {
				v, ok := phi.PhiIncoming(b)
				if !ok {
					return fail(declinef("%s/%s: phi missing incoming for pred %s", f.Name, succ.Name, b.Name))
				}
				r, err := arg(v, phi)
				if err != nil {
					return fail(err)
				}
				srcs[j] = r
				d, err := mustDst(phi)
				if err != nil {
					return fail(err)
				}
				dsts[j] = d
			}
			overlap := false
			for _, d := range dsts {
				for _, s := range srcs {
					if d == s {
						overlap = true
					}
				}
			}
			if overlap {
				for j := range srcs {
					emit(inst{op: opMove, dst: stagingBase + int32(j), a: srcs[j], b: -1, c: -1})
				}
				for j := range dsts {
					emit(inst{op: opMove, dst: dsts[j], a: stagingBase + int32(j), b: -1, c: -1})
				}
			} else {
				for j := range dsts {
					if dsts[j] != srcs[j] {
						emit(inst{op: opMove, dst: dsts[j], a: srcs[j], b: -1, c: -1})
					}
				}
			}
			emit(inst{op: opGoto, dst: -1, a: sbi.head, b: -1, c: -1})
			bi.edges = append(bi.edges, edgePC{succ, stub})
		}
	}

	// Phase C: resolve the recorded branch targets to stub addresses.
	for _, pt := range patches {
		pc, ok := infoOf(pt.pred).edge(pt.succ)
		if !ok {
			return fail(declinef("%s: unresolved branch edge", f.Name))
		}
		switch pt.field {
		case 0:
			code[pt.pc].a = pc
		case 1:
			code[pt.pc].b = pc
		case 2:
			code[pt.pc].c = pc
		}
	}
	for _, sp := range swPatches {
		pc, ok := infoOf(sp.pred).edge(sp.succ)
		if !ok {
			return fail(declinef("%s: unresolved switch edge", f.Name))
		}
		if sp.idx < 0 {
			switches[sp.desc].deflt = pc
		} else {
			switches[sp.desc].targets[sp.idx] = pc
		}
	}

	return funcCode{
		name:      f.Name,
		code:      code,
		consts:    consts.vals,
		constBase: constBase,
		nparams:   nparams,
		numRegs:   int(constBase) + len(consts.vals),
		calls:     calls,
		switches:  switches,
	}, nil
}
