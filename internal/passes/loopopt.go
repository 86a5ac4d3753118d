package passes

import (
	"autophase/internal/analysis"
	"autophase/internal/ir"
)

// ivInfo describes an affine induction variable: phi = [init, preheader],
// [phi + step, latch] with constant init and step.
type ivInfo struct {
	phi    *ir.Instr
	next   *ir.Instr // the add feeding the backedge (nil when not affine)
	init   int64
	step   int64
	affine bool // init and step constant
}

// analyzeIVs inspects the phis of the block carrying the loop-carried values
// (l.Header) given the canonical preheader and latch.
func analyzeIVs(l *ir.Loop, ph, latch *ir.Block) []ivInfo {
	var ivs []ivInfo
	for _, phi := range l.Header.Instrs[:l.Header.NumPhis()] {
		info := ivInfo{phi: phi}
		vp, okP := phi.PhiIncoming(ph)
		vl, okL := phi.PhiIncoming(latch)
		if !okP || !okL {
			continue
		}
		if c, ok := ir.IsConst(vp); ok {
			info.init = c
			if add, isI := vl.(*ir.Instr); isI && add.Op == ir.OpAdd && l.Contains(add.Parent()) {
				var stepV ir.Value
				switch {
				case add.Args[0] == phi:
					stepV = add.Args[1]
				case add.Args[1] == phi:
					stepV = add.Args[0]
				}
				if stepV != nil {
					if sc, ok := ir.IsConst(stepV); ok {
						info.next = add
						info.step = sc
						info.affine = true
					}
				}
			}
		}
		ivs = append(ivs, info)
	}
	return ivs
}

// exitTest describes a rotated loop's latch-exit condition icmp(pred, X, C)
// where X is an affine IV's phi or next value.
type exitTest struct {
	iv       ivInfo
	onNext   bool // test is applied to iv.next rather than the phi
	pred     ir.CmpPred
	bound    int64
	bits     int
	exitWhen bool // branch leaves the loop when the condition equals this
}

// latchExitTest matches the canonical rotated-loop exit in latch:
// `br (icmp pred X, C), a, b` with exactly one target outside the loop.
func latchExitTest(l *ir.Loop, latch *ir.Block, ivs []ivInfo) (exitTest, bool) {
	t := latch.Term()
	if t == nil || !t.IsConditionalBr() {
		return exitTest{}, false
	}
	in0, in1 := l.Contains(t.Blocks[0]), l.Contains(t.Blocks[1])
	if in0 == in1 {
		return exitTest{}, false
	}
	cmp, ok := t.Args[0].(*ir.Instr)
	if !ok || cmp.Op != ir.OpICmp {
		return exitTest{}, false
	}
	c, ok := ir.IsConst(cmp.Args[1])
	if !ok {
		return exitTest{}, false
	}
	for _, iv := range ivs {
		if !iv.affine {
			continue
		}
		et := exitTest{iv: iv, pred: cmp.Pred, bound: c, exitWhen: !in0}
		if t := cmp.Args[0].Type(); t.IsInt() {
			et.bits = t.Bits
		} else {
			et.bits = 64
		}
		switch cmp.Args[0] {
		case ir.Value(iv.phi):
			et.onNext = false
			return et, true
		case ir.Value(iv.next):
			et.onNext = true
			return et, true
		}
	}
	return exitTest{}, false
}

// tripCountSimLimit caps the exit-test simulation fallback used when the
// closed form does not apply. All trip-count queries share this single
// bound (callers with tighter thresholds, e.g. the unroller, apply their
// own on top of the returned count).
const tripCountSimLimit = 1 << 16

// tripCount returns the rotated (do-while) loop's number of body
// executions. The count comes from the SCEV closed form in O(1) when one
// exists; otherwise it falls back to simulating the exit test, capped at
// tripCountSimLimit iterations.
func (et exitTest) tripCount() (int64, bool) {
	n, kind := analysis.ExitCount(et.iv.init, et.iv.step, et.bound, et.bits, et.pred, et.onNext, et.exitWhen)
	switch kind {
	case analysis.TripFinite:
		return n, true
	case analysis.TripInfinite:
		return 0, false
	}
	return et.simTripCount(tripCountSimLimit)
}

// simTripCount simulates the exit test for up to max body executions — the
// pre-SCEV implementation, kept as the fallback and as the differential
// oracle for the closed form.
func (et exitTest) simTripCount(max int64) (int64, bool) {
	ty := ir.IntType(et.bits)
	cur := ty.TruncVal(et.iv.init)
	for n := int64(1); n <= max; n++ {
		next := ir.EvalBinary(ir.OpAdd, ty, cur, et.iv.step)
		x := cur
		if et.onNext {
			x = next
		}
		if et.pred.Eval(x, et.bound, et.bits) == et.exitWhen {
			return n, true
		}
		cur = next
	}
	return 0, false
}

// ivValueAtExit returns the value an affine IV's phi (and next) hold when a
// rotated loop with trip count n exits.
func ivValueAtExit(iv ivInfo, n int64, ty *ir.Type) (phiVal, nextVal int64) {
	phiVal = ty.TruncVal(iv.init + (n-1)*iv.step)
	nextVal = ty.TruncVal(iv.init + n*iv.step)
	return
}

// licm hoists loop-invariant computation into the preheader: pure
// arithmetic always; loads and readonly/readnone calls when the loop body
// is free of writes — this is what moves the paper's mag() call out of the
// normalization loop once functionattrs has proven it pure.
func licm(f *ir.Func) bool {
	// Loop passes require canonical loops; LLVM's pass manager schedules
	// -loop-simplify implicitly, and so do we.
	loops, changed := simplifiedLoops(f)
	var snap []*ir.Instr
	for _, l := range loops {
		ph := l.Preheader()
		if ph == nil {
			continue
		}
		lw := analyzeLoopWrites(l)
		for again := true; again; {
			again = false
			for _, b := range l.Body {
				for _, in := range instrsOf(&snap, b) {
					if !hoistable(in, l, lw) {
						continue
					}
					inv := true
					for _, a := range in.Args {
						if !isLoopInvariant(a, l) {
							inv = false
							break
						}
					}
					if !inv {
						continue
					}
					b.Remove(in)
					ph.InsertBeforeTerm(in)
					again, changed = true, true
				}
			}
		}
	}
	return changed
}

// loopWrites summarizes a loop body's memory effects for hoisting
// decisions: whether anything writes, and the set of written address roots
// (globals and allocas; nil roots with unknown=true means any address may
// be written).
type loopWrites struct {
	any     bool
	unknown bool
	roots   map[ir.Value]bool
}

func analyzeLoopWrites(l *ir.Loop) loopWrites {
	lw := loopWrites{roots: make(map[ir.Value]bool)}
	addRoot := func(ptr ir.Value) {
		if r, ok := addrRoot(ptr); ok {
			lw.roots[r] = true
		} else {
			lw.unknown = true
		}
	}
	for _, b := range l.Body {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				lw.any = true
				addRoot(in.Args[1])
			case ir.OpMemset:
				lw.any = true
				addRoot(in.Args[0])
			case ir.OpCall:
				if in.Callee == nil || (!in.Callee.Attrs.ReadNone && !in.Callee.Attrs.ReadOnly) {
					lw.any = true
					lw.unknown = true
				}
			}
		}
	}
	return lw
}

// addrRoot walks gep/bitcast chains to the underlying object.
func addrRoot(v ir.Value) (ir.Value, bool) {
	for {
		switch x := v.(type) {
		case *ir.Global:
			return x, true
		case *ir.Instr:
			switch x.Op {
			case ir.OpAlloca:
				return x, true
			case ir.OpGEP, ir.OpBitCast:
				v = x.Args[0]
			default:
				return nil, false
			}
		default:
			return nil, false
		}
	}
}

// calleeReadRoots returns the set of globals f (transitively) loads from;
// ok=false when a load's root cannot be identified. Callees cannot observe
// the caller's allocas (calls pass integer values only), so globals are the
// whole aliasing surface.
func calleeReadRoots(f *ir.Func, seen map[*ir.Func]bool) (map[*ir.Global]bool, bool) {
	if seen[f] {
		return map[*ir.Global]bool{}, true
	}
	seen[f] = true
	roots := make(map[*ir.Global]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				r, ok := addrRoot(in.Args[0])
				if !ok {
					return nil, false
				}
				if g, isG := r.(*ir.Global); isG {
					roots[g] = true
				}
			case ir.OpCall:
				if in.Callee == nil {
					return nil, false
				}
				sub, ok := calleeReadRoots(in.Callee, seen)
				if !ok {
					return nil, false
				}
				for g := range sub {
					roots[g] = true
				}
			}
		}
	}
	return roots, true
}

// hoistable reports whether the instruction may move to the preheader,
// where it executes unconditionally (so it must be safe to speculate).
func hoistable(in *ir.Instr, l *ir.Loop, lw loopWrites) bool {
	switch {
	case in.Op.IsBinary():
		// Speculating a division needs a known-nonzero divisor.
		if in.Op == ir.OpSDiv || in.Op == ir.OpSRem {
			c, ok := ir.IsConst(in.Args[1])
			return ok && c != 0
		}
		return true
	case in.Op == ir.OpICmp, in.Op == ir.OpSelect, in.Op.IsCast(), in.Op == ir.OpGEP:
		return true
	case in.Op == ir.OpLoad:
		// Safe when nothing in the loop writes memory: the loaded value is
		// the same every iteration, and the program's own execution proves
		// dereferenceability only if the load always ran — we additionally
		// require the load's block to be the header or the single latch to
		// avoid speculating a guarded load.
		if lw.any {
			return false
		}
		b := in.Parent()
		return b == l.Header || (len(l.Latches) == 1 && b == l.Latches[0])
	case in.Op == ir.OpCall:
		callee := in.Callee
		if callee == nil || !callee.Attrs.NoTrap {
			return false
		}
		if callee.Attrs.ReadNone {
			return true
		}
		// ReadOnly calls hoist when the loop's writes cannot touch what the
		// callee reads (the paper's mag() example once -functionattrs has
		// certified the callee).
		if !callee.Attrs.ReadOnly || lw.unknown {
			return false
		}
		reads, ok := calleeReadRoots(callee, map[*ir.Func]bool{})
		if !ok {
			return false
		}
		for g := range reads {
			if lw.roots[ir.Value(g)] {
				return false
			}
		}
		return true
	}
	return false
}

// loopDeletion removes loops that compute nothing observable: no stores,
// calls or prints, no values used outside, and a provably finite trip
// count. indvars' exit-value rewriting is what typically makes a loop's
// results dead and exposes it to this pass.
func loopDeletion(f *ir.Func) bool { return rewriteLoops(f, deleteOne) }

// deleteOne removes l when it computes nothing observable.
func deleteOne(f *ir.Func, l *ir.Loop) bool {
	ph := l.Preheader()
	latch := l.SingleLatch()
	if ph == nil || latch == nil {
		return false
	}
	exits := l.Exits()
	if len(exits) != 1 {
		return false
	}
	pure := true
	for _, b := range l.Body {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore, ir.OpMemset, ir.OpPrint, ir.OpCall:
				pure = false
			case ir.OpSDiv, ir.OpSRem:
				if c, ok := ir.IsConst(in.Args[1]); !ok || c == 0 {
					pure = false
				}
			}
		}
	}
	if !pure {
		return false
	}
	usedOutside := false
	inLoop := make(map[*ir.Block]bool)
	for _, b := range l.Body {
		inLoop[b] = true
	}
	for _, b := range l.Body {
		for _, in := range b.Instrs {
			if in.Ty.IsVoid() {
				continue
			}
			for _, u := range f.Uses(in) {
				if !inLoop[u.Parent()] {
					usedOutside = true
				}
			}
		}
	}
	if usedOutside {
		return false
	}
	// Termination: a computable trip count proves it; the latch
	// must be the only exiting block for the test to be exact.
	if ex := l.ExitingBlocks(); len(ex) != 1 || ex[0] != latch {
		return false
	}
	ivs := analyzeIVs(l, ph, latch)
	et, ok := latchExitTest(l, latch, ivs)
	if !ok {
		return false
	}
	if _, ok := et.tripCount(); !ok {
		return false
	}
	// Retarget the preheader straight to the exit. Exit phis that
	// merged a value carried out through the latch now receive that
	// value (a non-loop value, per the used-outside check) along
	// the preheader edge instead.
	exit := exits[0]
	for _, phi := range exit.Phis() {
		for _, pb := range append([]*ir.Block(nil), phi.Blocks...) {
			if l.Contains(pb) {
				if v, ok := phi.PhiIncoming(pb); ok {
					phi.RemovePhiIncoming(pb)
					phi.SetPhiIncoming(ph, v)
				}
			}
		}
	}
	ph.Term().ReplaceTarget(l.Header, exit)
	// The loop blocks are now unreachable.
	removeUnreachableBlocks(f)
	return true
}

// indvars canonicalizes induction variables; its observable work here is
// exit-value rewriting: uses of an affine IV outside a loop with computable
// trip count are replaced by the closed-form final value, breaking the
// dependence on the loop (and often leaving it dead for -loop-deletion).
func indvars(f *ir.Func) bool {
	loops, changed := simplifiedLoops(f)
	for _, l := range loops {
		ph := l.Preheader()
		latch := l.SingleLatch()
		if ph == nil || latch == nil {
			continue
		}
		if ex := l.ExitingBlocks(); len(ex) != 1 || ex[0] != latch {
			continue
		}
		ivs := analyzeIVs(l, ph, latch)
		et, ok := latchExitTest(l, latch, ivs)
		if !ok {
			continue
		}
		n, ok := et.tripCount()
		if !ok {
			continue
		}
		inLoop := make(map[*ir.Block]bool)
		for _, b := range l.Body {
			inLoop[b] = true
		}
		// The latch is the only exiting block, so any use of an IV outside
		// the loop — direct, or carried through exit phis and forwarding
		// blocks — observes exactly the value at loop exit.
		rewrite := func(old ir.Value, ty *ir.Type, exitVal int64) {
			cv := ir.ConstInt(ty, exitVal)
			for _, u := range f.Uses(old) {
				if inLoop[u.Parent()] {
					continue
				}
				u.ReplaceUses(old, cv)
				changed = true
			}
		}
		for _, iv := range ivs {
			if !iv.affine {
				continue
			}
			phiV, nextV := ivValueAtExit(iv, n, iv.phi.Ty)
			rewrite(iv.phi, iv.phi.Ty, phiV)
			if iv.next != nil {
				rewrite(iv.next, iv.next.Ty, nextV)
			}
		}
	}
	if changed {
		foldConstants(f)
		removeTriviallyDead(f)
	}
	return changed
}

// loopIdiom recognizes memset loops — a rotated counted loop whose body
// only stores one invariant value through a unit-stride address — and
// replaces them with the burst memset intrinsic the HLS backend maps to a
// streaming write engine.
func loopIdiom(f *ir.Func) bool { return rewriteLoops(f, idiomOne) }

func idiomOne(f *ir.Func, l *ir.Loop) bool {
	ph := l.Preheader()
	latch := l.SingleLatch()
	if ph == nil || latch == nil {
		return false
	}
	// Single-block rotated loop: header == latch.
	if l.Header != latch || len(l.Body) != 1 {
		return false
	}
	ivs := analyzeIVs(l, ph, latch)
	et, ok := latchExitTest(l, latch, ivs)
	if !ok || !et.iv.affine || et.iv.step != 1 {
		return false
	}
	n, ok := et.tripCount()
	if !ok {
		return false
	}
	// Body must be exactly: phi(s), gep(base, iv), store val -> gep,
	// iv.next, icmp, br.
	var store, gep *ir.Instr
	for _, in := range latch.Instrs {
		switch in.Op {
		case ir.OpPhi:
			if in != et.iv.phi {
				return false // extra loop-carried state
			}
		case ir.OpGEP:
			if gep != nil {
				return false
			}
			gep = in
		case ir.OpStore:
			if store != nil {
				return false
			}
			store = in
		case ir.OpAdd:
			if in != et.iv.next {
				return false
			}
		case ir.OpICmp, ir.OpBr:
		default:
			return false
		}
	}
	if store == nil || gep == nil {
		return false
	}
	if gep.Args[0] == nil || !isLoopInvariant(gep.Args[0], l) || gep.Args[1] != ir.Value(et.iv.phi) {
		return false
	}
	if store.Args[1] != ir.Value(gep) || !isLoopInvariant(store.Args[0], l) {
		return false
	}
	// No outside uses of loop values.
	for _, in := range latch.Instrs {
		if in.Ty.IsVoid() {
			continue
		}
		for _, u := range f.Uses(in) {
			if u.Parent() != latch {
				return false
			}
		}
	}
	exits := l.Exits()
	if len(exits) != 1 {
		return false
	}
	// Build: base' = gep(base, init); memset(base', val, n); br exit.
	t := ph.Term()
	base := gep.Args[0]
	if et.iv.init != 0 {
		ng := &ir.Instr{Op: ir.OpGEP, Ty: base.Type(),
			Args: []ir.Value{base, ir.ConstInt(ir.I64, et.iv.init)}}
		ph.InsertBefore(ng, t)
		base = ng
	}
	ms := &ir.Instr{Op: ir.OpMemset, Ty: ir.Void,
		Args: []ir.Value{base, store.Args[0], ir.ConstInt(ir.I64, n)}}
	ph.InsertBefore(ms, t)
	t.ReplaceTarget(l.Header, exits[0])
	removeUnreachableBlocks(f)
	return true
}

// loopReduce is strength reduction: multiplications of an affine IV by a
// loop-invariant constant become a second accumulator IV updated by
// addition — trading the multiplier's long delay for an adder.
func loopReduce(f *ir.Func) bool {
	loops, changed := simplifiedLoops(f)
	for _, l := range loops {
		ph := l.Preheader()
		latch := l.SingleLatch()
		if ph == nil || latch == nil {
			continue
		}
		ivs := analyzeIVs(l, ph, latch)
		for _, iv := range ivs {
			if !iv.affine {
				continue
			}
			for _, u := range append([]*ir.Instr(nil), f.Uses(iv.phi)...) {
				if u.Op != ir.OpMul || !l.Contains(u.Parent()) {
					continue
				}
				var k int64
				var ok bool
				switch {
				case u.Args[0] == ir.Value(iv.phi):
					k, ok = ir.IsConst(u.Args[1])
				case u.Args[1] == ir.Value(iv.phi):
					k, ok = ir.IsConst(u.Args[0])
				}
				if !ok {
					continue
				}
				// acc = phi [init*k, ph], [acc + step*k, latch]
				acc := &ir.Instr{Op: ir.OpPhi, Ty: u.Ty}
				accNext := &ir.Instr{Op: ir.OpAdd, Ty: u.Ty,
					Args: []ir.Value{acc, ir.ConstInt(u.Ty, iv.step*k)}}
				acc.SetPhiIncoming(ph, ir.ConstInt(u.Ty, iv.init*k))
				acc.SetPhiIncoming(latch, accNext)
				l.Header.Prepend(acc)
				latch.InsertBeforeTerm(accNext)
				f.ReplaceAllUses(u, acc)
				u.Parent().Remove(u)
				changed = true
			}
		}
	}
	if changed {
		removeTriviallyDead(f)
	}
	return changed
}

// loopUnswitch hoists a loop-invariant conditional out of the loop by
// cloning the loop body for each side of the branch, so each version runs
// branch-free. Guarded to loops whose values never escape.
func loopUnswitch(f *ir.Func) bool {
	loops, changed := simplifiedLoops(f)
	for _, l := range loops {
		if unswitchOne(f, l) {
			return true // one unswitch per run (exponential growth guard)
		}
	}
	return changed
}

func unswitchOne(f *ir.Func, l *ir.Loop) bool {
	ph := l.Preheader()
	if ph == nil || len(l.Body) > 24 {
		return false
	}
	// Find an invariant conditional branch inside the loop.
	var swb *ir.Block
	var cond ir.Value
	for _, b := range l.Body {
		t := b.Term()
		if t == nil || !t.IsConditionalBr() {
			continue
		}
		if l.Contains(t.Blocks[0]) && l.Contains(t.Blocks[1]) &&
			isLoopInvariant(t.Args[0], l) {
			if _, isConst := ir.IsConst(t.Args[0]); isConst {
				continue // simplifycfg's job
			}
			swb, cond = b, t.Args[0]
			break
		}
	}
	if swb == nil {
		return false
	}
	// Loop values must not escape, and exits must be phi-free, so cloning
	// requires no fix-ups beyond the CFG itself.
	inLoop := make(map[*ir.Block]bool)
	for _, b := range l.Body {
		inLoop[b] = true
	}
	for _, b := range l.Body {
		for _, in := range b.Instrs {
			if in.Ty.IsVoid() {
				continue
			}
			for _, u := range f.Uses(in) {
				if !inLoop[u.Parent()] {
					return false
				}
			}
		}
	}
	for _, e := range l.Exits() {
		if e.NumPhis() > 0 {
			return false
		}
	}
	// Clone the loop body.
	bmap := make(map[*ir.Block]*ir.Block, len(l.Body))
	imap := make(map[*ir.Instr]*ir.Instr)
	for _, b := range l.Body {
		nb := &ir.Block{Name: b.Name + ".us"}
		f.AddBlockAfter(nb, l.Body[len(l.Body)-1])
		bmap[b] = nb
	}
	for _, b := range l.Body {
		nb := bmap[b]
		for _, in := range b.Instrs {
			ni := in.Copy()
			ni.Name = ""
			for k, tb := range ni.Blocks {
				if ntb, ok := bmap[tb]; ok {
					ni.Blocks[k] = ntb
				}
			}
			imap[in] = ni
			nb.Append(ni)
		}
	}
	for _, b := range l.Body {
		for _, in := range b.Instrs {
			ni := imap[in]
			for ai, a := range ni.Args {
				if d, ok := a.(*ir.Instr); ok {
					if nd, ok := imap[d]; ok {
						ni.Args[ai] = nd
					}
				}
			}
		}
	}
	// Specialize: original takes the true side, clone the false side.
	origT := swb.Term()
	tTrue, tFalse := origT.Blocks[0], origT.Blocks[1]
	swb.Remove(origT)
	if tFalse != tTrue {
		for _, phi := range tFalse.Phis() {
			phi.RemovePhiIncoming(swb)
		}
	}
	swb.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{tTrue}})

	cswb := bmap[swb]
	cT := cswb.Term()
	cTrue := cT.Blocks[0]
	cFalseT := cT.Blocks[1]
	cswb.Remove(cT)
	if cTrue != cFalseT {
		for _, phi := range cTrue.Phis() {
			phi.RemovePhiIncoming(cswb)
		}
	}
	cswb.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{cFalseT}})

	// Branch on the invariant condition in the preheader.
	pt := ph.Term()
	ph.Remove(pt)
	ph.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Args: []ir.Value{cond},
		Blocks: []*ir.Block{l.Header, bmap[l.Header]}})
	// Dead halves of each specialized loop disappear here.
	removeUnreachableBlocks(f)
	return true
}
