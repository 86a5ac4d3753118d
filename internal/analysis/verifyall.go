package analysis

import (
	"autophase/internal/ir"
)

// Check IDs emitted by VerifyAll. Structural checks mirror ir.Verify (same
// invariants, collect-all instead of first-error); the dataflow.* and mem.*
// checks are the sanitizer's independent cross-validation layer, computed
// with the dataflow engine rather than the verifier's dominance walk.
const (
	CheckNoBlocks      = "verify.no-blocks"       // function with no blocks
	CheckEmptyBlock    = "verify.empty-block"     // block without instructions
	CheckWrongParent   = "verify.wrong-parent"    // instruction parent mismatch
	CheckTerminator    = "verify.terminator"      // missing/misplaced terminator
	CheckPhiPlacement  = "verify.phi-placement"   // phi after a non-phi
	CheckEntryPhi      = "verify.entry-phi"       // phi in the entry block
	CheckNilOperand    = "verify.nil-operand"     // nil operand slot
	CheckDetachedValue = "verify.detached-value"  // operand defined outside the function
	CheckNilTarget     = "verify.nil-target"      // nil branch target
	CheckDetachedBlock = "verify.detached-block"  // branch to a block not in the function
	CheckPhiShape      = "verify.phi-shape"       // phi arg/block count mismatch
	CheckBrShape       = "verify.br-shape"        // conditional br without condition
	CheckSwitchShape   = "verify.switch-shape"    // switch case/target mismatch
	CheckPhiDupPred    = "verify.phi-dup-pred"    // duplicate incoming block
	CheckPhiNonPred    = "verify.phi-non-pred"    // incoming from a non-predecessor
	CheckPhiMissing    = "verify.phi-missing"     // missing incoming for a predecessor
	CheckDominance     = "verify.dominance"       // use not dominated by def
	CheckNilCallee     = "verify.nil-callee"      // call without callee
	CheckDetachedFunc  = "verify.detached-callee" // call to a function not in the module
	CheckCallArity     = "verify.call-arity"      // call arg/param count mismatch
	CheckForeignParam  = "verify.foreign-param"   // use of another function's parameter

	CheckDataflowReach = "dataflow.reach"     // a cross-block use the def does not reach (reaching-defs cross-check)
	CheckDeadDefUse    = "dataflow.dead-def"  // a same-block use before the def point (the def is not yet live)
	CheckUnknownMemObj = "mem.unknown-object" // load/store/memset through a pointer with no known root
	CheckUndefMemObj   = "mem.undef-object"   // reachable load/store/memset through an undef pointer

	// Range-analysis lints (Warning severity: the module still executes,
	// but the flagged operation is provably broken when reached).
	CheckRangeGEPOOB  = "range.gep-out-of-bounds" // access offset provably outside the object's cells
	CheckRangeDivZero = "range.div-by-zero"       // divisor is provably always zero
	CheckRangeShift   = "range.shift-oversized"   // shift amount provably >= width or negative
	CheckRangeInfLoop = "range.infinite-loop"     // loop exit condition provably never fires

	// Interprocedural lints (Warning severity except attr-overclaim),
	// computed over the call graph and effect summaries. They only run on
	// structurally clean modules — a broken CFG would make the call graph
	// and the summaries nonsense.
	CheckUnreachableFunc   = "ipa.unreachable-func"   // function unreachable from main through call edges
	CheckInfiniteRecursion = "ipa.infinite-recursion" // every path from entry recurses before any return
	CheckPureResultUnused  = "ipa.pure-result-unused" // call to a pure function whose result is never used
	CheckGlobalNeverRead   = "ipa.global-never-read"  // global no function ever provably reads
	CheckAttrOverclaim     = "ipa.attr-overclaim"     // derived attribute stronger than the effect summary allows (Error)
)

// VerifyAll checks every structural invariant ir.Verify enforces, plus the
// dataflow-consistency and memory-rooting checks, and returns every finding
// rather than the first. A module is healthy when the result has no
// Error-severity diagnostics.
func VerifyAll(m *ir.Module) Diagnostics {
	var c collector
	for _, f := range m.Funcs {
		// Diagnostics spell unnamed values by number; a freshly parsed
		// module would render every one as %0 without this.
		f.Number()
		c.fn = f
		verifyFuncAll(&c, m, f)
	}
	c.fn = nil
	if !c.diags.HasErrors() {
		verifyIPA(&c, m)
	}
	return c.diags
}

// verifyFuncAll runs all per-function checks, appending to c.
func verifyFuncAll(c *collector, m *ir.Module, f *ir.Func) {
	if len(f.Blocks) == 0 {
		c.errf(CheckNoBlocks, nil, nil, "function has no blocks")
		return
	}
	if f.Entry().NumPhis() > 0 {
		c.errf(CheckEntryPhi, f.Entry(), nil, "phi in entry block")
	}
	inFunc := make(map[*ir.Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		inFunc[b] = true
	}
	structOK := true // gates the dataflow layer: it needs a well-formed CFG
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			c.errf(CheckEmptyBlock, b, nil, "block has no instructions")
			structOK = false
			continue
		}
		for i, in := range b.Instrs {
			if in.Parent() != b {
				c.errf(CheckWrongParent, b, in, "instruction has wrong parent")
			}
			isLast := i == len(b.Instrs)-1
			if in.IsTerminator() != isLast {
				c.errf(CheckTerminator, b, in, "terminator misplacement at %d", i)
				structOK = false
			}
			if in.Op == ir.OpPhi && i > 0 && b.Instrs[i-1].Op != ir.OpPhi {
				c.errf(CheckPhiPlacement, b, in, "phi not at block head")
			}
			for ai, a := range in.Args {
				if a == nil {
					c.errf(CheckNilOperand, b, in, "operand %d is nil", ai)
					structOK = false
					continue
				}
				if def, ok := a.(*ir.Instr); ok {
					if def.Parent() == nil || !inFunc[def.Parent()] {
						c.errf(CheckDetachedValue, b, in, "uses detached value %s", def.Ref())
					}
				}
				if p, ok := a.(*ir.Param); ok && p.Parent != f {
					owner := "<detached>"
					if p.Parent != nil {
						owner = "@" + p.Parent.Name
					}
					c.errf(CheckForeignParam, b, in, "uses parameter %s of foreign function %s", p.Ref(), owner)
				}
			}
			for _, t := range in.Blocks {
				if t == nil {
					c.errf(CheckNilTarget, b, in, "nil branch target")
					structOK = false
					continue
				}
				if !inFunc[t] {
					c.errf(CheckDetachedBlock, b, in, "targets detached block %s", t.Label())
					structOK = false
				}
			}
			switch in.Op {
			case ir.OpPhi:
				if len(in.Args) != len(in.Blocks) {
					c.errf(CheckPhiShape, b, in, "phi has %d values for %d blocks", len(in.Args), len(in.Blocks))
				}
			case ir.OpBr:
				if len(in.Blocks) == 2 && len(in.Args) != 1 {
					c.errf(CheckBrShape, b, in, "conditional br without condition")
				}
			case ir.OpSwitch:
				if len(in.Blocks) != len(in.Cases)+1 {
					c.errf(CheckSwitchShape, b, in, "switch has %d targets for %d cases", len(in.Blocks), len(in.Cases))
				}
			case ir.OpCall:
				if in.Callee == nil {
					c.errf(CheckNilCallee, b, in, "call with nil callee")
				} else {
					if m.Func(in.Callee.Name) != in.Callee {
						c.errf(CheckDetachedFunc, b, in, "call to detached function @%s", in.Callee.Name)
					}
					if len(in.Args) != len(in.Callee.Params) {
						c.errf(CheckCallArity, b, in, "call to @%s with %d args, want %d",
							in.Callee.Name, len(in.Args), len(in.Callee.Params))
					}
				}
			}
		}
	}
	if !structOK {
		// A broken CFG would make Preds/Succs, the dominator tree and the
		// dataflow solver report nonsense; the structural findings above
		// already fail the module.
		return
	}
	reach := f.ReachableBlocks()
	for _, b := range f.Blocks {
		if !reach[b] {
			continue
		}
		preds := b.Preds()
		predSet := make(map[*ir.Block]bool, len(preds))
		for _, p := range preds {
			predSet[p] = true
		}
		for _, phi := range b.Phis() {
			seen := make(map[*ir.Block]bool)
			for _, pb := range phi.Blocks {
				if pb == nil {
					continue
				}
				if seen[pb] {
					c.errf(CheckPhiDupPred, b, phi, "duplicate incoming block %s", pb.Label())
				}
				seen[pb] = true
				if !predSet[pb] {
					c.errf(CheckPhiNonPred, b, phi, "incoming from non-pred %s", pb.Label())
				}
			}
			for _, p := range preds {
				if !seen[p] {
					c.errf(CheckPhiMissing, b, phi, "missing incoming for pred %s", p.Label())
				}
			}
		}
	}
	dt := ir.NewDomTree(f)
	for _, b := range f.Blocks {
		if !reach[b] {
			continue
		}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == nil {
					continue
				}
				if !dt.DominatesInstr(a, in) {
					c.errf(CheckDominance, b, in, "use of %s does not satisfy dominance", a.Ref())
				}
			}
		}
	}
	verifyDataflow(c, f, reach)
	verifyRanges(c, f, reach)
}

// verifyRanges is the range-powered lint layer: interval facts strong
// enough to prove an operation broken on every execution that reaches it.
// All findings are warnings — the module is still structurally valid and
// executable (the interpreter will trap or spin at runtime).
func verifyRanges(c *collector, f *ir.Func, reach map[*ir.Block]bool) {
	r := ComputeRanges(f)
	for _, b := range f.Blocks {
		if !reach[b] {
			continue
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpSDiv, ir.OpSRem:
				if r.At(in.Args[1], b) == Point(0) {
					c.warnf(CheckRangeDivZero, b, in, "divisor %s is provably always zero", in.Args[1].Ref())
				}
			case ir.OpShl, ir.OpLShr, ir.OpAShr:
				width := int64(64)
				if in.Ty.IsInt() && in.Ty.Bits > 0 {
					width = int64(in.Ty.Bits)
				}
				amt := r.At(in.Args[1], b)
				if amt.Lo >= width || amt.Hi < 0 {
					c.warnf(CheckRangeShift, b, in, "shift amount %s is provably %s (width %d)",
						in.Args[1].Ref(), amt.String(), width)
				}
			case ir.OpLoad, ir.OpStore:
				checkAccessBounds(c, r, b, in)
			}
		}
	}
	for _, l := range r.SCEV().Loops() {
		if !reach[l.Header] || r.SCEV().TripsOf(l).Kind != TripInfinite {
			continue
		}
		if loopEscapes(l) {
			continue
		}
		c.warnf(CheckRangeInfLoop, l.Header, l.Header.Term(),
			"loop at %s: exit condition provably never fires", l.Header.Label())
	}
}

// ptrOffBits mirrors the interpreter's pointer encoding: offsets live in a
// 28-bit signed field, so offset arithmetic is only faithful (and an
// out-of-bounds proof only valid) while every intermediate sum stays inside
// that field.
const ptrOffBits = 28

// checkAccessBounds warns when a load/store address provably lands outside
// its object. The address must resolve through a GEP/bitcast chain to an
// alloca or global with a known cell count, and the accumulated offset
// interval must avoid the interpreter's pointer-offset wraparound.
func checkAccessBounds(c *collector, r *Ranges, b *ir.Block, in *ir.Instr) {
	addr := in.Args[len(in.Args)-1] // load: [ptr]; store: [val, ptr]
	off := Point(0)
	lim := Interval{-(1 << (ptrOffBits - 1)), 1<<(ptrOffBits-1) - 1}
	v := addr
	for {
		instr, ok := v.(*ir.Instr)
		if !ok {
			break
		}
		switch instr.Op {
		case ir.OpGEP:
			off = evalBinaryIvl(ir.OpAdd, ir.I64, off, r.At(instr.Args[1], b))
			if !lim.ContainsIvl(off) {
				return // offset may wrap in the 28-bit field; no proof
			}
			v = instr.Args[0]
			continue
		case ir.OpBitCast:
			v = instr.Args[0]
			continue
		}
		break
	}
	cells := int64(-1)
	switch obj := v.(type) {
	case *ir.Instr:
		if obj.Op == ir.OpAlloca {
			cells = 1
			if obj.AllocTy != nil && obj.AllocTy.Kind == ir.ArrayKind {
				cells = int64(obj.AllocTy.Len)
			}
		}
	case *ir.Global:
		cells = int64(obj.NumElems())
	}
	if cells < 0 {
		return
	}
	if off.Hi < 0 || off.Lo >= cells {
		c.warnf(CheckRangeGEPOOB, b, in, "access offset %s provably outside object of %d cells",
			off.String(), cells)
	}
}

// loopEscapes reports whether l's body can leave the loop without taking
// the recognized exit edge — a ret leaves the function, an unreachable (or
// a possibly-trapping division) aborts execution.
func loopEscapes(l *ir.Loop) bool {
	for _, b := range l.Body {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpRet, ir.OpUnreachable, ir.OpCall:
				return true
			case ir.OpSDiv, ir.OpSRem:
				if cv, ok := ir.IsConst(in.Args[1]); !ok || cv == 0 {
					return true
				}
			}
		}
	}
	return false
}

// verifyDataflow is the sanitizer's independent consistency layer: the
// reaching-definitions and liveness solutions must agree with the uses the
// code actually performs, and memory operations must address a known
// object. It assumes a structurally valid CFG.
func verifyDataflow(c *collector, f *ir.Func, reach map[*ir.Block]bool) {
	rd := ComputeReaching(f)
	al := ComputeAliases(f)
	for _, b := range f.Blocks {
		if !reach[b] {
			continue
		}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				def, ok := a.(*ir.Instr)
				if !ok || def.Parent() == nil {
					continue
				}
				if in.Op != ir.OpPhi && def.Parent() == b {
					if !defPrecedesUse(b, def, in) {
						c.errf(CheckDeadDefUse, b, in, "use of %s before its definition point", def.Ref())
					}
				} else if !rd.ReachesUse(def, in) {
					c.errf(CheckDataflowReach, b, in, "use of %s not reached by its definition", def.Ref())
				}
			}
			if addr := addrOperand(in); addr != nil {
				rs := al.RootsOf(addr)
				for _, r := range rs {
					switch r.Kind {
					case RootUnknown:
						c.errf(CheckUnknownMemObj, b, in, "memory access through pointer with unknown object")
					case RootUndef:
						c.warnf(CheckUndefMemObj, b, in, "memory access through undef pointer")
					}
				}
			}
		}
	}
}

// defPrecedesUse reports whether def appears strictly before use in block b.
func defPrecedesUse(b *ir.Block, def, use *ir.Instr) bool {
	for _, in := range b.Instrs {
		if in == def {
			return true
		}
		if in == use {
			return false
		}
	}
	return false
}
