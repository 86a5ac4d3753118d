package vm

import "fmt"

// Verify checks the structural safety of a lowered Program: every register
// field in range, every jump target inside the code, every call and switch
// descriptor well formed, every block of code ending in a control transfer.
// A verified program cannot index out of the register file or run off the
// end of its code no matter what values flow at runtime, so the dispatch
// loop needs no bounds checks of its own. Lowering is expected to always
// produce verifiable code; Verify is the cheap independent proof of that,
// run once per lowering.
func Verify(p *Program) error {
	if p.main >= len(p.funcs) {
		return fmt.Errorf("vm: verify: main index %d out of range", p.main)
	}
	for _, g := range p.globals {
		if g.cells < 0 {
			return fmt.Errorf("vm: verify: global with negative size")
		}
		if len(g.init) > g.cells {
			// Run copies min(len(init), cells); longer init data would be
			// silently dropped, which lowering never produces.
			return fmt.Errorf("vm: verify: global initializer longer than storage")
		}
	}
	for fi := range p.funcs {
		if err := verifyFunc(p, &p.funcs[fi]); err != nil {
			return fmt.Errorf("vm: verify: %s: %w", p.funcs[fi].name, err)
		}
	}
	return nil
}

func verifyFunc(p *Program, fc *funcCode) error {
	n := len(fc.code)
	if n == 0 {
		return fmt.Errorf("empty code")
	}
	if fc.nparams < 0 || fc.numRegs < fc.nparams {
		return fmt.Errorf("register file smaller than parameter list")
	}
	if fc.constBase < 0 || int(fc.constBase)+len(fc.consts) > fc.numRegs {
		return fmt.Errorf("constant pool outside register file")
	}
	reg := func(r int32) error {
		if r < 0 || int(r) >= fc.numRegs {
			return fmt.Errorf("register %d out of range [0,%d)", r, fc.numRegs)
		}
		return nil
	}
	target := func(t int32) error {
		if t < 0 || int(t) >= n {
			return fmt.Errorf("jump target %d out of range [0,%d)", t, n)
		}
		return nil
	}
	for pc := range fc.code {
		in := &fc.code[pc]
		var err error
		switch in.op {
		case opEnter:
			if in.a < 0 || in.imm < 0 {
				err = fmt.Errorf("enter with negative phi count or weight")
			}
		case opMove:
			err = firstErr(reg(in.dst), reg(in.a))
		case opGoto, opJmp:
			err = target(in.a)
		case opSelect:
			err = firstErr(reg(in.dst), reg(in.a), reg(in.b), reg(in.c))
		case opAlloca:
			if in.imm < 0 {
				err = fmt.Errorf("alloca of negative size")
			} else {
				err = reg(in.dst)
			}
		case opLoad, opTrunc, opZExt, opSExt, opCopy:
			err = firstErr(reg(in.dst), reg(in.a))
		case opStore:
			err = firstErr(reg(in.a), reg(in.b))
		case opGEP:
			err = firstErr(reg(in.dst), reg(in.a), reg(in.b))
		case opMemset:
			err = firstErr(reg(in.a), reg(in.b), reg(in.c))
		case opCall:
			if in.a < 0 || int(in.a) >= len(fc.calls) {
				err = fmt.Errorf("call descriptor %d out of range", in.a)
				break
			}
			cd := &fc.calls[in.a]
			if cd.fn < 0 || int(cd.fn) >= len(p.funcs) {
				err = fmt.Errorf("callee index %d out of range", cd.fn)
				break
			}
			callee := &p.funcs[cd.fn]
			if len(cd.args) != callee.nparams {
				err = fmt.Errorf("call passes %d args to %d-param %s", len(cd.args), callee.nparams, callee.name)
				break
			}
			for _, r := range cd.args {
				if err = reg(r); err != nil {
					break
				}
			}
			if err == nil && in.dst >= 0 {
				err = reg(in.dst)
			}
		case opPrint:
			err = reg(in.a)
		case opRet:
			if in.a >= 0 {
				err = reg(in.a)
			}
		case opBr:
			err = firstErr(reg(in.a), target(in.b), target(in.c))
		case opSwitch:
			if in.b < 0 || int(in.b) >= len(fc.switches) {
				err = fmt.Errorf("switch descriptor %d out of range", in.b)
				break
			}
			sd := &fc.switches[in.b]
			if len(sd.targets) != len(sd.cases) {
				err = fmt.Errorf("switch with %d targets for %d cases", len(sd.targets), len(sd.cases))
				break
			}
			err = firstErr(reg(in.a), target(sd.deflt))
			for _, t := range sd.targets {
				if err != nil {
					break
				}
				err = target(t)
			}
		case opUnreachable:
			// no operands
		default:
			if in.op >= opAdd && in.op <= opUge {
				err = firstErr(reg(in.dst), reg(in.a), reg(in.b))
				if err == nil && in.op >= opShl && in.op <= opAShr && in.w == 0 {
					// The shift-amount modulus divides by w.
					err = fmt.Errorf("shift at width 0")
				}
			} else {
				err = fmt.Errorf("invalid opcode %d", in.op)
			}
		}
		if err != nil {
			return fmt.Errorf("pc %d (%s): %w", pc, in.op, err)
		}
		// Execution must never fall off the end of the code array.
		if pc == n-1 {
			switch in.op {
			case opGoto, opJmp, opBr, opSwitch, opRet, opUnreachable:
			default:
				return fmt.Errorf("pc %d (%s): code falls off the end", pc, in.op)
			}
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
