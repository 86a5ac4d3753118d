package passes

import "autophase/internal/ir"

// Lattice values for SCCP.
type latState uint8

const (
	latUndef latState = iota // no information yet (bottom)
	latConst                 // known constant
	latOver                  // overdefined (top)
)

type latVal struct {
	state latState
	c     int64
}

// sccp is sparse conditional constant propagation: it tracks constants and
// block reachability simultaneously, so constants flowing around
// never-taken branches are still discovered. Discovered constants replace
// their instructions; branch conditions become constants that -simplifycfg
// subsequently folds (the classic sccp → simplifycfg phase interaction).
func sccp(f *ir.Func) bool {
	lat := newInstrMap[latVal](f)
	execEdge := make(map[[2]*ir.Block]bool)
	execBlock := make(map[*ir.Block]bool)
	uses := newUseIndex(f) // the solve reads the IR without changing it

	valOf := func(v ir.Value) latVal {
		switch x := v.(type) {
		case *ir.Const:
			return latVal{latConst, x.Val}
		case *ir.Undef:
			// This IR defines undef as zero (the interpreter zero-fills), so
			// the lattice must agree — LLVM's any-value undef would let SCCP
			// fold a phi to a value the program never computes.
			return latVal{latConst, 0}
		case *ir.Param, *ir.Global:
			return latVal{latOver, 0}
		case *ir.Instr:
			return *lat.ref(x)
		default:
			return latVal{}
		}
	}

	var blockWL []*ir.Block
	var instrWL []*ir.Instr

	markEdge := func(from, to *ir.Block) {
		e := [2]*ir.Block{from, to}
		if execEdge[e] {
			return
		}
		execEdge[e] = true
		if !execBlock[to] {
			execBlock[to] = true
			blockWL = append(blockWL, to)
		} else {
			// New edge into an executed block: phis must re-evaluate.
			instrWL = append(instrWL, to.Instrs[:to.NumPhis()]...)
		}
	}

	raise := func(in *ir.Instr, nv latVal) {
		old := *lat.ref(in)
		if old.state == nv.state && (nv.state != latConst || old.c == nv.c) {
			return
		}
		// Monotonic: undef -> const -> over.
		if old.state == latOver {
			return
		}
		if old.state == latConst && nv.state == latConst && old.c != nv.c {
			nv = latVal{latOver, 0}
		}
		*lat.ref(in) = nv
		instrWL = append(instrWL, uses.of(in)...)
	}

	visit := func(in *ir.Instr) {
		b := in.Parent()
		if !execBlock[b] {
			return
		}
		switch {
		case in.Op == ir.OpPhi:
			res := latVal{latUndef, 0}
			for i, a := range in.Args {
				if !execEdge[[2]*ir.Block{in.Blocks[i], b}] {
					continue
				}
				av := valOf(a)
				switch {
				case av.state == latUndef:
				case res.state == latUndef:
					res = av
				case av.state == latOver || (res.state == latConst && av.state == latConst && av.c != res.c):
					res = latVal{latOver, 0}
				}
			}
			raise(in, res)
		case in.Op.IsBinary(), in.Op == ir.OpICmp, in.Op.IsCast(), in.Op == ir.OpSelect:
			var buf [3]latVal // the folded ops take at most three operands
			args := buf[:0]
			if len(in.Args) > len(buf) {
				args = make([]latVal, 0, len(in.Args))
			}
			args = args[:len(in.Args)]
			anyOver, anyUndef := false, false
			for i, a := range in.Args {
				args[i] = valOf(a)
				anyOver = anyOver || args[i].state == latOver
				anyUndef = anyUndef || args[i].state == latUndef
			}
			switch {
			case anyUndef:
				// keep undef (optimistic)
			case anyOver:
				// Select with a constant condition can still be constant.
				if in.Op == ir.OpSelect && args[0].state == latConst {
					pick := args[2]
					if args[0].c != 0 {
						pick = args[1]
					}
					raise(in, pick)
					return
				}
				raise(in, latVal{latOver, 0})
			default:
				// Fold as FoldInstr would over constants of the operands'
				// types, without building them.
				var cbuf [3]int64
				cv := cbuf[:0]
				if len(args) > len(cbuf) {
					cv = make([]int64, 0, len(args))
				}
				cv = cv[:len(args)]
				for i, a := range in.Args {
					cv[i] = a.Type().TruncVal(args[i].c)
				}
				if c, ok := ir.FoldValues(in, cv); ok {
					raise(in, latVal{latConst, c})
				} else {
					raise(in, latVal{latOver, 0})
				}
			}
		case in.Op == ir.OpBr:
			if len(in.Blocks) == 1 {
				markEdge(b, in.Blocks[0])
				return
			}
			cv := valOf(in.Args[0])
			switch cv.state {
			case latConst:
				if cv.c != 0 {
					markEdge(b, in.Blocks[0])
				} else {
					markEdge(b, in.Blocks[1])
				}
			case latOver:
				markEdge(b, in.Blocks[0])
				markEdge(b, in.Blocks[1])
			}
		case in.Op == ir.OpSwitch:
			cv := valOf(in.Args[0])
			switch cv.state {
			case latConst:
				dest := in.Blocks[0]
				for i, c := range in.Cases {
					if c == cv.c {
						dest = in.Blocks[i+1]
						break
					}
				}
				markEdge(b, dest)
			case latOver:
				for _, t := range in.Blocks {
					markEdge(b, t)
				}
			}
		default:
			// Loads, calls, allocas, geps: overdefined.
			if !in.Ty.IsVoid() {
				raise(in, latVal{latOver, 0})
			}
		}
	}

	execBlock[f.Entry()] = true
	blockWL = append(blockWL, f.Entry())
	for len(blockWL) > 0 || len(instrWL) > 0 {
		if len(blockWL) > 0 {
			b := blockWL[len(blockWL)-1]
			blockWL = blockWL[:len(blockWL)-1]
			for _, in := range b.Instrs {
				visit(in)
			}
			continue
		}
		in := instrWL[len(instrWL)-1]
		instrWL = instrWL[:len(instrWL)-1]
		visit(in)
	}

	// Materialize discovered constants.
	changed := false
	for _, b := range f.Blocks {
		if !execBlock[b] {
			continue
		}
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			lv := *lat.ref(in)
			if lv.state != latConst || in.Ty.IsVoid() || in.HasSideEffects() {
				continue
			}
			f.ReplaceAllUses(in, ir.ConstInt(in.Ty, lv.c))
			b.Remove(in)
			i--
			changed = true
		}
	}
	if removeTriviallyDead(f) {
		changed = true
	}
	return changed
}

// ipsccp extends sccp interprocedurally: parameters that receive the same
// constant from every call site become that constant, and functions that
// always return one constant have their call results folded.
func ipsccp(m *ir.Module) bool {
	changed := false
	for {
		once := false
		for _, f := range m.Funcs {
			if f.Name == "main" {
				continue // invoked externally
			}
			sites := callSites(m, f)
			if len(sites) == 0 {
				continue
			}
			for pi, p := range f.Params {
				c, ok := commonConstArg(sites, pi)
				if !ok {
					continue
				}
				if f.UseCount(p) == 0 {
					continue
				}
				f.ReplaceAllUses(p, ir.ConstInt(p.Ty, c))
				once = true
			}
		}
		// Fold constant returns into call sites.
		for _, f := range m.Funcs {
			c, ok := constantReturn(f)
			if !ok {
				continue
			}
			for _, g := range m.Funcs {
				for _, b := range g.Blocks {
					for _, in := range b.Instrs {
						if in.Op == ir.OpCall && in.Callee == f && !in.Ty.IsVoid() {
							if g.UseCount(in) > 0 {
								g.ReplaceAllUses(in, ir.ConstInt(in.Ty, c))
								once = true
							}
						}
					}
				}
			}
		}
		for _, f := range m.Funcs {
			if foldConstants(f) {
				once = true
			}
		}
		if !once {
			break
		}
		changed = true
	}
	return changed
}

func callSites(m *ir.Module, f *ir.Func) []*ir.Instr {
	var sites []*ir.Instr
	for _, g := range m.Funcs {
		for _, b := range g.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee == f {
					sites = append(sites, in)
				}
			}
		}
	}
	return sites
}

func commonConstArg(sites []*ir.Instr, pi int) (int64, bool) {
	var c int64
	have := false
	for _, s := range sites {
		if pi >= len(s.Args) {
			return 0, false
		}
		v, ok := ir.IsConst(s.Args[pi])
		if !ok {
			return 0, false
		}
		if have && v != c {
			return 0, false
		}
		c, have = v, true
	}
	return c, have
}

// constantReturn reports whether every return of f yields the same constant.
func constantReturn(f *ir.Func) (int64, bool) {
	var c int64
	have := false
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpRet {
			continue
		}
		if len(t.Args) == 0 {
			return 0, false
		}
		v, ok := ir.IsConst(t.Args[0])
		if !ok {
			return 0, false
		}
		if have && v != c {
			return 0, false
		}
		c, have = v, true
	}
	return c, have
}

// correlatedPropagation exploits branch conditions: on the true edge of
// `br (icmp eq x, c)` (and the false edge of ne), x is known to be c, so
// dominated uses are rewritten to the constant.
func correlatedPropagation(f *ir.Func) bool {
	changed := false
	dt := f.Dom()
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || !t.IsConditionalBr() {
			continue
		}
		cmp, ok := t.Args[0].(*ir.Instr)
		if !ok || cmp.Op != ir.OpICmp {
			continue
		}
		c, isC := ir.IsConst(cmp.Args[1])
		if !isC {
			continue
		}
		x := cmp.Args[0]
		var target *ir.Block
		switch cmp.Pred {
		case ir.CmpEQ:
			target = t.Blocks[0]
		case ir.CmpNE:
			target = t.Blocks[1]
		default:
			continue
		}
		if target == t.Blocks[0] && target == t.Blocks[1] {
			continue
		}
		// The rewrite is valid in blocks dominated by the edge; requiring
		// target's only pred edge to be this one makes block dominance by
		// target equivalent to edge dominance.
		if target.NumPredEdges() != 1 {
			continue
		}
		cv := ir.ConstInt(x.Type(), c)
		for _, ub := range f.Blocks {
			if !dt.Dominates(target, ub) {
				continue
			}
			for _, in := range ub.Instrs {
				if in.Op == ir.OpPhi {
					continue
				}
				for i, a := range in.Args {
					if a == x {
						in.Args[i] = cv
						changed = true
					}
				}
			}
		}
	}
	if changed {
		foldConstants(f)
		removeTriviallyDead(f)
	}
	return changed
}
