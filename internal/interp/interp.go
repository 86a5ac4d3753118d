// Package interp executes IR modules directly. It stands in for the LegUp
// software-trace profiler from Huang et al. 2013: running the program yields
// per-basic-block execution counts, which the HLS cycle profiler multiplies
// by per-block FSM state counts to estimate the circuit's clock cycles. It
// also provides the semantic ground truth the pass property tests compare
// against (exit value plus observable print trace).
package interp

import (
	"errors"
	"fmt"
	"time"

	"autophase/internal/faults"
	"autophase/internal/ir"
)

// Limits bound an execution so that generated programs which loop too long
// are filtered out, mirroring the paper's "filter out programs that take
// more than five minutes" step.
type Limits struct {
	MaxSteps int // total instructions executed
	MaxDepth int // call depth
	MaxCells int // total memory cells allocated
	// Deadline bounds the wall-clock time of one Run; zero means unbounded.
	// Unlike the step limit it also catches stalls whose per-step cost is
	// pathological rather than whose step count is. It is polled every
	// pollStride steps, so enforcement is approximate by up to one stride.
	// A wall-clock bound is inherently nondeterministic; leave it zero when
	// bit-identical results across runs matter more than liveness.
	Deadline time.Duration
}

// DefaultLimits are generous enough for all bundled benchmarks.
var DefaultLimits = Limits{MaxSteps: 4_000_000, MaxDepth: 256, MaxCells: 1 << 20}

// Result is the outcome of executing a module's main function.
type Result struct {
	Exit        int64               // return value of main
	Trace       []int64             // values printed via the print intrinsic
	Steps       int                 // instructions executed
	Blocks      map[*ir.Block]int64 // per-block execution counts (the profile)
	Calls       map[*ir.Func]int64  // per-function invocation counts
	MemsetCells int64               // total cells written by memset intrinsics
}

// Errors reported by the interpreter.
var (
	ErrStepLimit  = errors.New("interp: step limit exceeded")
	ErrDepthLimit = errors.New("interp: call depth exceeded")
	ErrMemLimit   = errors.New("interp: memory limit exceeded")
	ErrDivByZero  = errors.New("interp: division by zero")
	ErrOOB        = errors.New("interp: out-of-bounds memory access")
	ErrNoMain     = errors.New("interp: module has no main function")
	ErrUnreach    = errors.New("interp: executed unreachable")
	ErrDeadline   = errors.New("interp: wall-clock deadline exceeded")
)

// pollStride is how many interpreter steps may pass between deadline (and
// fault-injection) polls: frequent enough to bound overruns, rare enough
// that the poll branch is invisible in the hot loop.
const pollStride = 4096

type object struct{ cells []int64 }

type machine struct {
	lim      Limits
	steps    int
	cells    int
	nextPoll int       // step count of the next deadline/injection poll
	deadline time.Time // zero when Limits.Deadline is unset
	objs     []*object
	gaddrs   map[*ir.Global]int64
	res      *Result
	funcs    map[*ir.Func][]*ir.Instr // each called function's instructions by number
	frames   [][]slot                 // frame storage by call depth, reused
	phiVals  []int64                  // phi values read before any is written
}

// poll is the strided liveness check: an injected stall and a blown
// wall-clock deadline both surface as ErrDeadline. The first poll runs on
// the first executed block so a sub-stride program still honours a tiny
// deadline.
func (m *machine) poll() error {
	m.nextPoll = m.steps + pollStride
	if faults.Hit(faults.InterpStall) {
		return fmt.Errorf("%w (injected stall)", ErrDeadline)
	}
	//contractvet:allow nondeterminism -- Limits.Deadline is opt-in (default 0 = off) and documented as trading determinism for a wall-clock bound
	if !m.deadline.IsZero() && time.Now().After(m.deadline) {
		return ErrDeadline
	}
	return nil
}

const offBits = 28 // low bits of a pointer hold the (signed-wrapped) offset

func encodePtr(obj int, off int64) int64 {
	return int64(obj+1)<<offBits | (off & ((1 << offBits) - 1))
}

func decodePtr(p int64) (obj int, off int64) {
	return int(p>>offBits) - 1, p & ((1 << offBits) - 1)
}

// Run executes mod's main function under the given limits.
func Run(mod *ir.Module, lim Limits) (*Result, error) {
	main := mod.Func("main")
	if main == nil {
		return nil, ErrNoMain
	}
	m := &machine{
		lim:    lim,
		gaddrs: make(map[*ir.Global]int64),
		funcs:  make(map[*ir.Func][]*ir.Instr),
		res: &Result{
			Blocks: make(map[*ir.Block]int64),
			Calls:  make(map[*ir.Func]int64),
		},
	}
	if lim.Deadline > 0 {
		//contractvet:allow nondeterminism -- deadline anchor for the opt-in wall-clock bound; never read when Deadline is 0
		m.deadline = time.Now().Add(lim.Deadline)
	}
	for _, g := range mod.Globals {
		n := g.NumElems()
		if m.cells+n > lim.MaxCells {
			return nil, ErrMemLimit
		}
		obj := &object{cells: make([]int64, n)}
		copy(obj.cells, g.Init)
		m.objs = append(m.objs, obj)
		m.cells += n
		m.gaddrs[g] = encodePtr(len(m.objs)-1, 0)
	}
	var args []int64
	for range main.Params {
		args = append(args, 0)
	}
	exit, err := m.call(main, args, 0)
	if err != nil {
		return m.res, err
	}
	m.res.Exit = exit
	m.res.Steps = m.steps
	return m.res, nil
}

func (m *machine) alloc(n int) (int64, error) {
	if m.cells+n > m.lim.MaxCells {
		return 0, ErrMemLimit
	}
	m.objs = append(m.objs, &object{cells: make([]int64, n)})
	m.cells += n
	return encodePtr(len(m.objs)-1, 0), nil
}

func (m *machine) load(p int64) (int64, error) {
	obj, off := decodePtr(p)
	if obj < 0 || obj >= len(m.objs) || off < 0 || off >= int64(len(m.objs[obj].cells)) {
		return 0, fmt.Errorf("%w: obj=%d off=%d", ErrOOB, obj, off)
	}
	return m.objs[obj].cells[off], nil
}

func (m *machine) store(p, v int64) error {
	obj, off := decodePtr(p)
	if obj < 0 || obj >= len(m.objs) || off < 0 || off >= int64(len(m.objs[obj].cells)) {
		return fmt.Errorf("%w: obj=%d off=%d", ErrOOB, obj, off)
	}
	m.objs[obj].cells[off] = v
	return nil
}

// slot is one value of a frame: an instruction's result or a parameter.
type slot struct {
	v   int64
	def bool
}

// frame holds a call's values: slots[k] for the instruction numbered k
// (ir.Func.Number), then one slot per parameter. Each instruction slot is
// checked against instrs, the function's instructions by number, so an
// instruction from elsewhere never reads another's value; those (only in
// malformed IR) live in outside.
type frame struct {
	f       *ir.Func
	instrs  []*ir.Instr
	slots   []slot
	outside map[*ir.Instr]int64
}

// frameOf returns an empty frame for a call of f at the given depth, its
// storage reused from the last call at that depth.
func (m *machine) frameOf(f *ir.Func, depth int) frame {
	instrs, ok := m.funcs[f]
	if !ok {
		instrs = make([]*ir.Instr, f.Number()) // only reads a published function
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				instrs[in.Num()] = in
			}
		}
		m.funcs[f] = instrs
	}
	for len(m.frames) <= depth {
		m.frames = append(m.frames, nil)
	}
	n := len(instrs) + len(f.Params)
	buf := m.frames[depth]
	if cap(buf) < n {
		buf = make([]slot, n)
		m.frames[depth] = buf
	}
	buf = buf[:n]
	clear(buf)
	return frame{f: f, instrs: instrs, slots: buf}
}

// set defines in's value.
func (fr *frame) set(in *ir.Instr, v int64) {
	if k := in.Num(); k < len(fr.instrs) && fr.instrs[k] == in {
		fr.slots[k] = slot{v, true}
		return
	}
	if fr.outside == nil {
		fr.outside = make(map[*ir.Instr]int64)
	}
	fr.outside[in] = v
}

func (fr *frame) get(m *machine, v ir.Value) (int64, error) {
	switch x := v.(type) {
	case *ir.Const:
		return x.Val, nil
	case *ir.Undef:
		return 0, nil
	case *ir.Global:
		return m.gaddrs[x], nil
	case *ir.Instr:
		if k := x.Num(); k < len(fr.instrs) && fr.instrs[k] == x {
			if s := fr.slots[k]; s.def {
				return s.v, nil
			}
		} else if val, ok := fr.outside[x]; ok {
			return val, nil
		}
	case *ir.Param:
		if x.Parent == fr.f && x.Index >= 0 && x.Index < len(fr.f.Params) && fr.f.Params[x.Index] == x {
			if s := fr.slots[len(fr.instrs)+x.Index]; s.def {
				return s.v, nil
			}
		}
	}
	return 0, fmt.Errorf("interp: undefined value %s", v.Ref())
}

func (m *machine) call(f *ir.Func, args []int64, depth int) (int64, error) {
	if depth > m.lim.MaxDepth {
		return 0, ErrDepthLimit
	}
	m.res.Calls[f]++
	fr := m.frameOf(f, depth)
	for i := range f.Params {
		if i < len(args) {
			fr.slots[len(fr.instrs)+i] = slot{args[i], true}
		}
	}
	blk := f.Entry()
	var prev *ir.Block
	for {
		m.res.Blocks[blk]++
		if m.steps >= m.nextPoll {
			if err := m.poll(); err != nil {
				return 0, err
			}
		}
		// Phis evaluate atomically against the incoming edge.
		phis := blk.Instrs[:blk.NumPhis()]
		if len(phis) > 0 {
			tmp := m.phiVals[:0]
			for _, phi := range phis {
				v, ok := phi.PhiIncoming(prev)
				if !ok {
					return 0, fmt.Errorf("interp: phi in %s missing incoming for pred", f.Name)
				}
				x, err := fr.get(m, v)
				if err != nil {
					return 0, err
				}
				tmp = append(tmp, x)
				m.steps++
			}
			for i, phi := range phis {
				fr.set(phi, tmp[i])
			}
			m.phiVals = tmp
		}
		if m.steps > m.lim.MaxSteps {
			return 0, ErrStepLimit
		}
		for _, in := range blk.Instrs[len(phis):] {
			m.steps++
			if m.steps > m.lim.MaxSteps {
				return 0, ErrStepLimit
			}
			switch {
			case in.Op.IsBinary():
				a, err := fr.get(m, in.Args[0])
				if err != nil {
					return 0, err
				}
				b, err := fr.get(m, in.Args[1])
				if err != nil {
					return 0, err
				}
				if (in.Op == ir.OpSDiv || in.Op == ir.OpSRem) && b == 0 {
					return 0, ErrDivByZero
				}
				fr.set(in, ir.EvalBinary(in.Op, in.Ty, a, b))
			case in.Op == ir.OpICmp:
				a, err := fr.get(m, in.Args[0])
				if err != nil {
					return 0, err
				}
				b, err := fr.get(m, in.Args[1])
				if err != nil {
					return 0, err
				}
				bits := 64
				if t := in.Args[0].Type(); t.IsInt() {
					bits = t.Bits
				}
				if in.Pred.Eval(a, b, bits) {
					fr.set(in, 1)
				} else {
					fr.set(in, 0)
				}
			case in.Op == ir.OpSelect:
				c, err := fr.get(m, in.Args[0])
				if err != nil {
					return 0, err
				}
				var v int64
				if c != 0 {
					v, err = fr.get(m, in.Args[1])
				} else {
					v, err = fr.get(m, in.Args[2])
				}
				if err != nil {
					return 0, err
				}
				fr.set(in, v)
			case in.Op == ir.OpAlloca:
				n := 1
				if in.AllocTy.Kind == ir.ArrayKind {
					n = in.AllocTy.Len
				}
				p, err := m.alloc(n)
				if err != nil {
					return 0, err
				}
				fr.set(in, p)
			case in.Op == ir.OpLoad:
				p, err := fr.get(m, in.Args[0])
				if err != nil {
					return 0, err
				}
				v, err := m.load(p)
				if err != nil {
					return 0, err
				}
				fr.set(in, in.Ty.TruncVal(v))
			case in.Op == ir.OpStore:
				v, err := fr.get(m, in.Args[0])
				if err != nil {
					return 0, err
				}
				p, err := fr.get(m, in.Args[1])
				if err != nil {
					return 0, err
				}
				if err := m.store(p, v); err != nil {
					return 0, err
				}
			case in.Op == ir.OpGEP:
				p, err := fr.get(m, in.Args[0])
				if err != nil {
					return 0, err
				}
				idx, err := fr.get(m, in.Args[1])
				if err != nil {
					return 0, err
				}
				obj, off := decodePtr(p)
				fr.set(in, encodePtr(obj, off+idx))
			case in.Op == ir.OpMemset:
				p, err := fr.get(m, in.Args[0])
				if err != nil {
					return 0, err
				}
				v, err := fr.get(m, in.Args[1])
				if err != nil {
					return 0, err
				}
				n, err := fr.get(m, in.Args[2])
				if err != nil {
					return 0, err
				}
				obj, off := decodePtr(p)
				m.res.MemsetCells += n
				for i := int64(0); i < n; i++ {
					m.steps++
					if err := m.store(encodePtr(obj, off+i), v); err != nil {
						return 0, err
					}
				}
			case in.Op.IsCast():
				v, err := fr.get(m, in.Args[0])
				if err != nil {
					return 0, err
				}
				fr.set(in, ir.EvalCast(in.Op, in.Args[0].Type(), in.Ty, v))
			case in.Op == ir.OpCall:
				cargs := make([]int64, len(in.Args))
				for i, a := range in.Args {
					v, err := fr.get(m, a)
					if err != nil {
						return 0, err
					}
					cargs[i] = v
				}
				rv, err := m.call(in.Callee, cargs, depth+1)
				if err != nil {
					return 0, err
				}
				if !in.Ty.IsVoid() {
					fr.set(in, rv)
				}
			case in.Op == ir.OpPrint:
				v, err := fr.get(m, in.Args[0])
				if err != nil {
					return 0, err
				}
				m.res.Trace = append(m.res.Trace, v)
			case in.Op == ir.OpRet:
				if len(in.Args) == 0 {
					return 0, nil
				}
				return fr.get(m, in.Args[0])
			case in.Op == ir.OpBr:
				if len(in.Blocks) == 1 {
					prev, blk = blk, in.Blocks[0]
				} else {
					c, err := fr.get(m, in.Args[0])
					if err != nil {
						return 0, err
					}
					if c != 0 {
						prev, blk = blk, in.Blocks[0]
					} else {
						prev, blk = blk, in.Blocks[1]
					}
				}
			case in.Op == ir.OpSwitch:
				v, err := fr.get(m, in.Args[0])
				if err != nil {
					return 0, err
				}
				target := in.Blocks[0]
				for i, cv := range in.Cases {
					if cv == v {
						target = in.Blocks[i+1]
						break
					}
				}
				prev, blk = blk, target
			case in.Op == ir.OpUnreachable:
				return 0, ErrUnreach
			default:
				return 0, fmt.Errorf("interp: unhandled op %s", in.Op)
			}
			if in.IsTerminator() {
				break
			}
		}
	}
}
