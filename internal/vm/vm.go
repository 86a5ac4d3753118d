// Package vm executes IR modules lowered once to a flat register-based
// bytecode. It is the fast engine for the dynamic (non-static) fragment of
// the reward path: where hls.StaticProfile declines, the tree-walking
// interpreter in internal/interp used to be the only option, paying a map
// lookup per operand and a map increment per block. The lowered form
// preresolves every operand to a dense register index, folds the per-block
// FSM-state weights of the HLS schedule directly into the instruction
// stream (profiling is a counter bump, not a map), and dispatches through
// one dense opcode switch.
//
// The dispatch loop reproduces interp.Run's observable semantics exactly —
// step accounting, limit checks, pointer encoding, trap behaviour, the
// strided deadline/fault-injection poll — and shares interp's error
// sentinels so errors.Is-based policies (deadline retries, quarantine
// classification) treat both engines identically. Lowering declines any
// construct whose interpretation it cannot reproduce bit-exactly (see
// lower.go); callers fall back to the interpreter.
package vm

import (
	"fmt"
	"sync"
	"time"

	"autophase/internal/faults"
	"autophase/internal/interp"
)

// op is a bytecode opcode. Order matters: every op after opGoto charges one
// interpreter step before executing, mirroring the tree-walker's uniform
// per-instruction accounting; the three ops at the front are synthetic
// bookkeeping (block entry, phi edge copies) with their own step rules.
type op uint8

const (
	opEnter op = iota // block head: a = #phis, imm = folded FSM-state weight
	opMove            // dst = regs[a]; phi edge copy, charged via opEnter's phi count
	opGoto            // pc = a; edge-stub tail jump, no step (the branch already charged one)

	// Binary arithmetic/bitwise ops: dst = trunc(regs[a] ⊙ regs[b], w).
	// The block must stay parallel to ir.OpAdd..ir.OpAShr (lowering maps by
	// offset).
	opAdd
	opSub
	opMul
	opSDiv
	opSRem
	opAnd
	opOr
	opXor
	opShl
	opLShr
	opAShr

	// Comparisons, one opcode per predicate: dst = 0/1. w is the compared
	// width; unsigned predicates mask to it, signed ones compare the
	// canonical sign-extended values raw (as ir.CmpPred.Eval does).
	opEq
	opNe
	opSlt
	opSle
	opSgt
	opSge
	opUlt
	opUle
	opUgt
	opUge

	opSelect // dst = regs[a]!=0 ? regs[b] : regs[c]
	opAlloca // dst = new object of imm cells
	opLoad   // dst = trunc(mem[regs[a]], w)
	opStore  // mem[regs[b]] = regs[a]
	opGEP    // dst = regs[a] advanced by regs[b] cells (28-bit offset wrap)
	opMemset // memset(ptr=regs[a], val=regs[b], len=regs[c])

	opTrunc // dst = sign-trunc(regs[a], w); w = destination bits
	opZExt  // dst = regs[a] & mask(w);      w = source bits
	opSExt  // dst = sign-trunc(regs[a], w); w = source bits
	opCopy  // dst = regs[a]; bitcast (charged a step, unlike opMove)

	opCall  // invoke calls[a]; dst = return value (-1 for void)
	opPrint // append regs[a] to the trace
	opRet   // return regs[a] (a = -1: return 0)

	opJmp         // pc = a
	opBr          // pc = regs[a] != 0 ? b : c
	opSwitch      // pc = switches[b] dispatched on regs[a]
	opUnreachable // trap

	numOps
)

var opNames = [numOps]string{
	opEnter: "enter", opMove: "move", opGoto: "goto",
	opAdd: "add", opSub: "sub", opMul: "mul", opSDiv: "sdiv", opSRem: "srem",
	opAnd: "and", opOr: "or", opXor: "xor", opShl: "shl", opLShr: "lshr",
	opAShr: "ashr",
	opEq:   "eq", opNe: "ne", opSlt: "slt", opSle: "sle", opSgt: "sgt",
	opSge: "sge", opUlt: "ult", opUle: "ule", opUgt: "ugt", opUge: "uge",
	opSelect: "select", opAlloca: "alloca", opLoad: "load", opStore: "store",
	opGEP: "gep", opMemset: "memset",
	opTrunc: "trunc", opZExt: "zext", opSExt: "sext", opCopy: "copy",
	opCall: "call", opPrint: "print", opRet: "ret",
	opJmp: "jmp", opBr: "br", opSwitch: "switch", opUnreachable: "unreachable",
}

func (o op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// inst is one lowered instruction. Operand slots are register indices into
// the frame's register file, preresolved at lowering time; -1 marks an
// unused slot.
type inst struct {
	op      op
	w       uint8 // operand bit width where the op needs one (64 = full width)
	dst     int32 // result register (-1 = none)
	a, b, c int32 // operand registers or jump targets, per op
	imm     int64 // alloca cell count / opEnter cycle weight
}

// callDesc is one preresolved call site: callee index and argument
// registers in the caller's frame. Lowering guarantees len(args) equals the
// callee's parameter count.
type callDesc struct {
	fn   int32
	args []int32
}

// switchDesc is one preresolved switch table: case values and their stub
// targets, scanned in source order exactly like the interpreter.
type switchDesc struct {
	cases   []int64
	targets []int32
	deflt   int32
}

// funcCode is one function's lowered body. The frame register file is laid
// out [params | instruction results | phi staging | constant pool]; the
// constant pool is copied in at frame entry so operand fetch never
// branches on operand kind.
type funcCode struct {
	name      string
	code      []inst
	consts    []int64
	constBase int32
	nparams   int
	numRegs   int
	calls     []callDesc
	switches  []switchDesc
}

// globalInit is one module global's storage shape, captured at lowering so
// the Program is self-contained (no live ir pointers).
type globalInit struct {
	cells int
	init  []int64
}

// Program is one module lowered to bytecode, bound to a specific HLS
// schedule: the per-block cycle weights are folded into the instruction
// stream, so a Program is only valid under the hls.Config it was lowered
// with.
type Program struct {
	funcs   []funcCode
	globals []globalInit
	main    int // index into funcs; -1 when the module has no main

	// Area is the schedule's functional-unit area estimate, carried
	// alongside the folded weights so a profile needs no re-schedule.
	Area int
}

// Result is the outcome of executing a lowered module's main function,
// mirroring the fields of interp.Result that the profiler and the
// cross-check consume. Cycles is already the full HLS estimate
// (Σ weight·entries + memset cells + one handshake per call, main
// included) — the weights were folded at lowering.
type Result struct {
	Cycles int64
	Steps  int
	Exit   int64
	Trace  []int64
}

// Pointer encoding and poll stride are the interpreter's, bit for bit.
const (
	offBits    = 28
	offMask    = 1<<offBits - 1
	pollStride = 4096
)

type object struct{ cells []int64 }

type machine struct {
	p        *Program
	lim      interp.Limits
	regs     []int64 // frame windows carved at [base, base+numRegs)
	objs     []object
	cells    int
	steps    int
	nextPoll int
	deadline time.Time
	cycles   int64
	mset     int64
	trace    []int64
}

// Run executes p's main function under the given limits. Errors are the
// interp package's sentinels (wrapped where the interpreter wraps), so one
// errors.Is policy covers both engines.
// regPool recycles register stacks across runs: the search loop profiles
// millions of modules and a fresh 32 KiB zeroed stack per run dominated
// the allocation profile. Reuse is sound because lowering proves every
// non-parameter register is written before it is read (operand dominance),
// parameters of called functions are always copied in, and only main's
// parameter window — which no caller fills — needs explicit zeroing.
var regPool = sync.Pool{New: func() any {
	s := make([]int64, 4096)
	return &s
}}

func Run(p *Program, lim interp.Limits) (*Result, error) {
	if p.main < 0 {
		return nil, interp.ErrNoMain
	}
	if faults.Hit(faults.VMPanic) {
		panic("vm: injected dispatch panic")
	}
	rp := regPool.Get().(*[]int64)
	m := &machine{p: p, lim: lim, regs: *rp}
	defer func() {
		*rp = m.regs
		regPool.Put(rp)
	}()
	mainFc := &p.funcs[p.main]
	for i := 0; i < mainFc.nparams && i < len(m.regs); i++ {
		m.regs[i] = 0
	}
	if lim.Deadline > 0 {
		//contractvet:allow nondeterminism -- deadline anchor for the opt-in wall-clock bound; never read when Deadline is 0
		m.deadline = time.Now().Add(lim.Deadline)
	}
	for _, g := range p.globals {
		if m.cells+g.cells > lim.MaxCells {
			return nil, interp.ErrMemLimit
		}
		cells := make([]int64, g.cells)
		copy(cells, g.init)
		m.objs = append(m.objs, object{cells: cells})
		m.cells += g.cells
	}
	exit, err := m.exec(mainFc, 0, 0)
	if err != nil {
		return nil, err
	}
	return &Result{
		Cycles: m.cycles + m.mset,
		Steps:  m.steps,
		Exit:   exit,
		Trace:  m.trace,
	}, nil
}

// poll is the strided liveness check, identical to the interpreter's: the
// injection draw cadence and the deadline read match interp.Run exactly.
func (m *machine) poll() error {
	m.nextPoll = m.steps + pollStride
	if faults.Hit(faults.InterpStall) {
		return fmt.Errorf("%w (injected stall)", interp.ErrDeadline)
	}
	//contractvet:allow nondeterminism -- Limits.Deadline is opt-in (default 0 = off) and polled exactly as in interp
	if !m.deadline.IsZero() && time.Now().After(m.deadline) {
		return interp.ErrDeadline
	}
	return nil
}

func oob(obj int, off int64) error {
	return fmt.Errorf("%w: obj=%d off=%d", interp.ErrOOB, obj, off)
}

// trunc sign-truncates v to the given width (ir.Type.TruncVal over a plain
// bit count).
func trunc(v int64, bits uint8) int64 {
	if bits >= 64 {
		return v
	}
	s := 64 - uint(bits)
	return int64(uint64(v)<<s) >> s
}

func maskOf(bits uint8) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<bits - 1
}

func minOf(bits uint8) int64 {
	if bits >= 64 {
		return -1 << 63
	}
	return -(int64(1) << (bits - 1))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// exec runs one frame. The register window is [base, base+fc.numRegs) of
// m.regs; growth may reallocate m.regs, but the captured slice stays valid
// because callee windows always live strictly above the caller's.
func (m *machine) exec(fc *funcCode, base, depth int) (int64, error) {
	if depth > m.lim.MaxDepth {
		return 0, interp.ErrDepthLimit
	}
	m.cycles++ // return handshake, one per invocation (main included)
	if need := base + fc.numRegs; need > len(m.regs) {
		m.regs = append(m.regs, make([]int64, need-len(m.regs))...)
	}
	regs := m.regs[base : base+fc.numRegs]
	copy(regs[fc.constBase:], fc.consts)
	code := fc.code
	maxSteps := m.lim.MaxSteps
	pc := 0
	for {
		in := &code[pc]
		if in.op > opGoto {
			m.steps++
			if m.steps > maxSteps {
				return 0, interp.ErrStepLimit
			}
		}
		switch in.op {
		case opEnter:
			m.cycles += in.imm
			if m.steps >= m.nextPoll {
				if err := m.poll(); err != nil {
					return 0, err
				}
			}
			// The interpreter charges one step per phi after the poll and
			// checks the limit once the whole edge has been copied.
			if k := int(in.a); k > 0 {
				m.steps += k
				if m.steps > maxSteps {
					return 0, interp.ErrStepLimit
				}
			}
			pc++
		case opMove:
			regs[in.dst] = regs[in.a]
			pc++
		case opGoto:
			pc = int(in.a)

		case opAdd:
			regs[in.dst] = trunc(regs[in.a]+regs[in.b], in.w)
			pc++
		case opSub:
			regs[in.dst] = trunc(regs[in.a]-regs[in.b], in.w)
			pc++
		case opMul:
			regs[in.dst] = trunc(regs[in.a]*regs[in.b], in.w)
			pc++
		case opSDiv:
			b := regs[in.b]
			if b == 0 {
				return 0, interp.ErrDivByZero
			}
			if a := regs[in.a]; a == minOf(in.w) && b == -1 {
				regs[in.dst] = 0 // ir.EvalBinary saturates MinInt/-1 to 0
			} else {
				regs[in.dst] = trunc(a/b, in.w)
			}
			pc++
		case opSRem:
			b := regs[in.b]
			if b == 0 {
				return 0, interp.ErrDivByZero
			}
			if a := regs[in.a]; a == minOf(in.w) && b == -1 {
				regs[in.dst] = 0
			} else {
				regs[in.dst] = trunc(a%b, in.w)
			}
			pc++
		case opAnd:
			regs[in.dst] = trunc(regs[in.a]&regs[in.b], in.w)
			pc++
		case opOr:
			regs[in.dst] = trunc(regs[in.a]|regs[in.b], in.w)
			pc++
		case opXor:
			regs[in.dst] = trunc(regs[in.a]^regs[in.b], in.w)
			pc++
		case opShl:
			sh := uint(uint64(regs[in.b]) % uint64(in.w))
			regs[in.dst] = trunc(regs[in.a]<<sh, in.w)
			pc++
		case opLShr:
			sh := uint(uint64(regs[in.b]) % uint64(in.w))
			regs[in.dst] = trunc(int64((uint64(regs[in.a])&maskOf(in.w))>>sh), in.w)
			pc++
		case opAShr:
			sh := uint(uint64(regs[in.b]) % uint64(in.w))
			regs[in.dst] = trunc(trunc(regs[in.a], in.w)>>sh, in.w)
			pc++

		case opEq:
			regs[in.dst] = b2i(regs[in.a] == regs[in.b])
			pc++
		case opNe:
			regs[in.dst] = b2i(regs[in.a] != regs[in.b])
			pc++
		case opSlt:
			regs[in.dst] = b2i(regs[in.a] < regs[in.b])
			pc++
		case opSle:
			regs[in.dst] = b2i(regs[in.a] <= regs[in.b])
			pc++
		case opSgt:
			regs[in.dst] = b2i(regs[in.a] > regs[in.b])
			pc++
		case opSge:
			regs[in.dst] = b2i(regs[in.a] >= regs[in.b])
			pc++
		case opUlt:
			mk := maskOf(in.w)
			regs[in.dst] = b2i(uint64(regs[in.a])&mk < uint64(regs[in.b])&mk)
			pc++
		case opUle:
			mk := maskOf(in.w)
			regs[in.dst] = b2i(uint64(regs[in.a])&mk <= uint64(regs[in.b])&mk)
			pc++
		case opUgt:
			mk := maskOf(in.w)
			regs[in.dst] = b2i(uint64(regs[in.a])&mk > uint64(regs[in.b])&mk)
			pc++
		case opUge:
			mk := maskOf(in.w)
			regs[in.dst] = b2i(uint64(regs[in.a])&mk >= uint64(regs[in.b])&mk)
			pc++

		case opSelect:
			if regs[in.a] != 0 {
				regs[in.dst] = regs[in.b]
			} else {
				regs[in.dst] = regs[in.c]
			}
			pc++
		case opAlloca:
			n := int(in.imm)
			if m.cells+n > m.lim.MaxCells {
				return 0, interp.ErrMemLimit
			}
			m.objs = append(m.objs, object{cells: make([]int64, n)})
			m.cells += n
			regs[in.dst] = int64(len(m.objs)) << offBits
			pc++
		case opLoad:
			p := regs[in.a]
			obj, off := int(p>>offBits)-1, p&offMask
			if obj < 0 || obj >= len(m.objs) || off >= int64(len(m.objs[obj].cells)) {
				return 0, oob(obj, off)
			}
			regs[in.dst] = trunc(m.objs[obj].cells[off], in.w)
			pc++
		case opStore:
			p := regs[in.b]
			obj, off := int(p>>offBits)-1, p&offMask
			if obj < 0 || obj >= len(m.objs) || off >= int64(len(m.objs[obj].cells)) {
				return 0, oob(obj, off)
			}
			m.objs[obj].cells[off] = regs[in.a]
			pc++
		case opGEP:
			p := regs[in.a]
			regs[in.dst] = p>>offBits<<offBits | (p+regs[in.b])&offMask
			pc++
		case opMemset:
			p, v, n := regs[in.a], regs[in.b], regs[in.c]
			obj, off := int(p>>offBits)-1, p&offMask
			m.mset += n
			// One step per written cell, no step-limit check inside the
			// loop, per-cell bounds with 28-bit offset wrap — exactly the
			// interpreter's store(encodePtr(obj, off+i), v) loop.
			for i := int64(0); i < n; i++ {
				m.steps++
				eff := (off + i) & offMask
				if obj < 0 || obj >= len(m.objs) || eff >= int64(len(m.objs[obj].cells)) {
					return 0, oob(obj, eff)
				}
				m.objs[obj].cells[eff] = v
			}
			pc++

		case opTrunc, opSExt:
			regs[in.dst] = trunc(regs[in.a], in.w)
			pc++
		case opZExt:
			regs[in.dst] = int64(uint64(regs[in.a]) & maskOf(in.w))
			pc++
		case opCopy:
			regs[in.dst] = regs[in.a]
			pc++

		case opCall:
			cd := &fc.calls[in.a]
			child := &m.p.funcs[cd.fn]
			childBase := base + fc.numRegs
			if need := childBase + child.numRegs; need > len(m.regs) {
				m.regs = append(m.regs, make([]int64, need-len(m.regs))...)
			}
			for i, r := range cd.args {
				m.regs[childBase+i] = regs[r]
			}
			rv, err := m.exec(child, childBase, depth+1)
			if err != nil {
				return 0, err
			}
			if in.dst >= 0 {
				regs[in.dst] = rv
			}
			pc++
		case opPrint:
			m.trace = append(m.trace, regs[in.a])
			pc++
		case opRet:
			if in.a < 0 {
				return 0, nil
			}
			return regs[in.a], nil

		case opJmp:
			pc = int(in.a)
		case opBr:
			if regs[in.a] != 0 {
				pc = int(in.b)
			} else {
				pc = int(in.c)
			}
		case opSwitch:
			v := regs[in.a]
			sd := &fc.switches[in.b]
			pc = int(sd.deflt)
			for i, cv := range sd.cases {
				if cv == v {
					pc = int(sd.targets[i])
					break
				}
			}
		case opUnreachable:
			return 0, interp.ErrUnreach
		default:
			return 0, fmt.Errorf("vm: invalid opcode %d at %s+%d", in.op, fc.name, pc)
		}
	}
}
