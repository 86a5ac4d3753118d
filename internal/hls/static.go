package hls

import (
	"math"

	"autophase/internal/analysis"
	"autophase/internal/interp"
	"autophase/internal/ir"
)

// This file is the static cycle estimator: for programs whose basic-block
// execution frequencies are fully determined by closed-form loop trip counts
// and statically decided branches, the interpreter run in Profile can be
// replaced by arithmetic over the SCEV results. The accounting reproduces
// interp.Run exactly — same per-block counts, step totals, memset cell
// counter and per-call handshakes — so that wherever StaticProfile claims
// applicability its Report agrees with the interpreter's to the cycle.
// Every construct it cannot model exactly (data-dependent branches,
// unprovable memory accesses, possible traps, limit overruns, recursion)
// makes it decline, and callers fall back to the interpreter.

// ptrOffField is the unsigned width of the pointer offset field in the
// interpreter's pointer encoding (interp's offBits). An access is provably
// in bounds only when every intermediate GEP offset stays inside the field,
// so that encode/decode round-trips are lossless along the whole chain.
const ptrOffField = 1<<28 - 1

// funcStatic is the per-invocation summary of one function analyzed in one
// calling context (a vector of parameter intervals): how often each block
// runs, what the run costs, and whom it calls. Within a context the counts
// must be invocation-independent — any branch whose outcome the value
// ranges cannot pin down makes the analysis fail — but the same function
// may admit summaries in one context and not another, which is what lets
// call-heavy programs stay static: the callee is re-analyzed per call site
// with the argument ranges that site actually supplies.
type funcStatic struct {
	fn         *ir.Func
	key        ctxKey
	freq       map[*ir.Block]int64   // block executions per invocation
	steps      int64                 // interpreter steps per invocation (own frame only)
	msetCells  int64                 // memset cell-counter delta per invocation
	allocCells int64                 // memory cells allocated per invocation
	calls      map[*funcStatic]int64 // callee-context invocations per invocation
	ret        analysis.Interval     // range of the returned value
}

// ctxKey identifies one (function, parameter-interval-vector) analysis
// context; the hints render canonically so equal contexts share a summary.
type ctxKey struct {
	fn    *ir.Func
	hints string
}

// staticAnalyzer memoizes per-context summaries while walking the call
// graph; a nil memo entry records an analysis failure in that context.
// visiting is keyed by function, not context: a cycle through any contexts
// of the same function is recursion, and recursion depth is data-dependent.
type staticAnalyzer struct {
	memo     map[ctxKey]*funcStatic
	visiting map[*ir.Func]bool
}

// canonHints pads or trims hints to exactly one interval per parameter
// (missing entries are Full), so context keys are canonical.
func canonHints(f *ir.Func, hints []analysis.Interval) []analysis.Interval {
	out := make([]analysis.Interval, len(f.Params))
	for i := range out {
		if i < len(hints) {
			out[i] = hints[i]
		} else {
			out[i] = analysis.Full
		}
	}
	return out
}

func hintString(hints []analysis.Interval) string {
	s := ""
	for _, h := range hints {
		s += h.String()
	}
	return s
}

// StaticProfile computes the Report of Profile without running the
// interpreter, when the module lies in the statically-determined fragment:
// all executed loops have closed-form finite trip counts, all other branch
// decisions follow from the value ranges, every executed memory access and
// division is provably safe, there is no recursion, and the execution fits
// the limits. It reports ok=false otherwise; it never guesses.
func StaticProfile(m *ir.Module, cfg Config, lim interp.Limits) (*Report, bool) {
	main := m.Func("main")
	if main == nil {
		return nil, false
	}
	sa := &staticAnalyzer{
		memo:     make(map[ctxKey]*funcStatic),
		visiting: make(map[*ir.Func]bool),
	}
	// The interpreter invokes main with zero arguments.
	hints := make([]analysis.Interval, len(main.Params))
	for i := range hints {
		hints[i] = analysis.Point(0)
	}
	fsMain, ok := sa.analyze(main, hints)
	if !ok {
		return nil, false
	}
	// Invocation counts over the (acyclic) context DAG, callers first. A
	// function analyzed under two different argument contexts appears as two
	// nodes, each carrying its own frequencies and costs.
	order := sa.topo(fsMain)
	inv := map[*funcStatic]int64{fsMain: 1}
	for _, fs := range order {
		n := inv[fs]
		if n == 0 {
			continue
		}
		for cs, c := range fs.calls {
			nc, ok1 := mulChk(n, c)
			t, ok2 := addChk(inv[cs], nc)
			if !ok1 || !ok2 {
				return nil, false
			}
			inv[cs] = t
		}
	}
	// Call depth: the longest invocation chain must fit MaxDepth (main runs
	// at depth 0).
	if sa.height(fsMain, make(map[*funcStatic]int64)) > int64(lim.MaxDepth) {
		return nil, false
	}
	// Steps, cells and the memset counter, scaled by invocation counts.
	var steps, cells, mset int64
	for _, g := range m.Globals {
		cells += int64(g.NumElems())
	}
	for _, fs := range order {
		n := inv[fs]
		if n == 0 {
			continue
		}
		var ok1, ok2, ok3 bool
		var d int64
		if d, ok1 = mulChk(n, fs.steps); ok1 {
			steps, ok1 = addChk(steps, d)
		}
		if d, ok2 = mulChk(n, fs.allocCells); ok2 {
			cells, ok2 = addChk(cells, d)
		}
		if d, ok3 = mulChk(n, fs.msetCells); ok3 {
			mset, ok3 = addChk(mset, d)
		}
		if !ok1 || !ok2 || !ok3 {
			return nil, false
		}
	}
	if steps > int64(lim.MaxSteps) || cells > int64(lim.MaxCells) {
		return nil, false // the interpreter would trip a limit; let it
	}
	// cycles = Σ freq(b)·states(b) + memset cells + one handshake per call.
	sched := Schedule(m, cfg)
	cycles := mset
	for _, fs := range order {
		n := inv[fs]
		if n == 0 {
			continue
		}
		per := int64(0)
		okAll := true
		for b, c := range fs.freq {
			var d int64
			var ok bool
			if d, ok = mulChk(c, int64(sched.StatesOf(b))); ok {
				per, ok = addChk(per, d)
			}
			okAll = okAll && ok
		}
		var d int64
		var ok bool
		if d, ok = mulChk(n, per); ok {
			cycles, ok = addChk(cycles, d)
		}
		if c, ok2 := addChk(cycles, n); ok && ok2 {
			cycles = c // return handshake per invocation, main included
		} else {
			okAll = false
		}
		if !okAll {
			return nil, false
		}
	}
	rep := &Report{
		Cycles:  cycles,
		AreaLUT: sched.Area(),
		Steps:   int(steps),
		Engine:  EngineStatic,
	}
	// Exit is populated only when the returned value is itself a static
	// point; frequency-exactness does not require value-exactness.
	if fsMain.ret.IsPoint() {
		rep.Exit = fsMain.ret.Lo
	}
	return rep, true
}

// analyze returns f's memoized summary in the given calling context,
// failing on recursion.
func (sa *staticAnalyzer) analyze(f *ir.Func, hints []analysis.Interval) (*funcStatic, bool) {
	hints = canonHints(f, hints)
	k := ctxKey{fn: f, hints: hintString(hints)}
	if fs, seen := sa.memo[k]; seen {
		return fs, fs != nil
	}
	if sa.visiting[f] {
		return nil, false // recursion: depth is data-dependent
	}
	sa.visiting[f] = true
	fs := sa.analyzeFunc(f, hints)
	delete(sa.visiting, f)
	if fs != nil {
		fs.key = k
	}
	sa.memo[k] = fs
	return fs, fs != nil
}

// topo returns main's context-DAG closure callers-first (the DAG is
// acyclic: analyze rejected recursion).
func (sa *staticAnalyzer) topo(root *funcStatic) []*funcStatic {
	var order []*funcStatic
	seen := make(map[*funcStatic]bool)
	var visit func(fs *funcStatic)
	visit = func(fs *funcStatic) {
		if seen[fs] {
			return
		}
		seen[fs] = true
		for cs := range fs.calls {
			visit(cs)
		}
		order = append(order, fs)
	}
	visit(root)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// height is the longest call chain below fs, in edges.
func (sa *staticAnalyzer) height(fs *funcStatic, memo map[*funcStatic]int64) int64 {
	if h, ok := memo[fs]; ok {
		return h
	}
	var h int64
	for cs, c := range fs.calls {
		if c == 0 {
			continue
		}
		if ch := sa.height(cs, memo) + 1; ch > h {
			h = ch
		}
	}
	memo[fs] = h
	return h
}

// retRounds bounds the callee-return refinement iteration of analyzeFunc:
// each round threads the callee return intervals discovered so far back
// into the caller's range analysis, which can narrow the argument hints of
// other call sites. Chains of call-result-into-call-argument deeper than
// this are declined rather than analyzed with unstable ranges.
const retRounds = 4

// analyzeFunc computes the per-invocation summary in one calling context,
// or nil when any executed construct escapes the static model.
//
// Call sites are resolved interprocedurally: every callee is analyzed in
// the context of the argument intervals the site supplies (rng.At at the
// call block), and the summarized return interval feeds back into this
// function's range analysis through the ComputeRangesCtx hook. Because the
// hints depend on the ranges and the ranges depend on the callee returns,
// the two are iterated to a fixpoint: starting from Full returns (always
// sound), each round can only use argument hints that were themselves
// derived from sound ranges, so the final, stable round is sound too.
func (sa *staticAnalyzer) analyzeFunc(f *ir.Func, hints []analysis.Interval) *funcStatic {
	if len(f.Blocks) == 0 {
		return nil
	}
	siteRet := make(map[*ir.Instr]analysis.Interval)
	siteCtx := make(map[*ir.Instr]*funcStatic)
	var rng *analysis.Ranges
	converged := false
	for round := 0; round < retRounds && !converged; round++ {
		rng = analysis.ComputeRangesCtx(f, hints, func(site *ir.Instr) analysis.Interval {
			if iv, ok := siteRet[site]; ok {
				return iv
			}
			return analysis.Full
		})
		converged = true
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall || in.Callee == nil ||
					len(in.Args) != len(in.Callee.Params) {
					continue
				}
				argHints := make([]analysis.Interval, len(in.Args))
				for i, a := range in.Args {
					argHints[i] = rng.At(a, b)
				}
				cs, okc := sa.analyze(in.Callee, argHints)
				ret := analysis.Full
				if okc {
					ret = cs.ret
				}
				siteCtx[in] = cs // nil records failure in this context
				if old, seen := siteRet[in]; !seen || old != ret {
					siteRet[in] = ret
					converged = false
				}
			}
		}
	}
	if !converged {
		return nil // unstable hint/return feedback: let the interpreter decide
	}
	scev := rng.SCEV()
	rpo := scev.Dom().RPO()
	idx := make(map[*ir.Block]int, len(rpo))
	for i, b := range rpo {
		idx[b] = i
	}
	fs := &funcStatic{
		fn:    f,
		freq:  make(map[*ir.Block]int64),
		calls: make(map[*funcStatic]int64),
	}
	flow := map[*ir.Block]int64{f.Entry(): 1}
	entries := make(map[*ir.Loop]int64)
	// addFlow routes n executions along the edge from -> to. Back edges are
	// dropped: re-entries are what the header's trip multiplication models.
	// Any other edge to an already-processed block means the propagation
	// order cannot express the CFG, so the analysis declines.
	addFlow := func(from, to *ir.Block, n int64) bool {
		if n == 0 {
			return true
		}
		for l := scev.InnermostLoop(from); l != nil; l = l.Parent {
			if l.Header == to {
				return true
			}
		}
		if j, ok := idx[to]; !ok || j <= idx[from] {
			return false
		}
		var ok bool
		flow[to], ok = addChk(flow[to], n)
		return ok
	}
	retFlow := int64(0)
	for _, b := range rpo {
		n := flow[b]
		l := scev.InnermostLoop(b)
		if l != nil && l.Header == b {
			if n == 0 {
				continue // the loop is never entered; its body stays at 0
			}
			tr := scev.TripsOf(l)
			if tr.Kind != analysis.TripFinite {
				return nil // unknown or infinite: the interpreter must decide
			}
			entries[l] = n
			var ok bool
			if n, ok = mulChk(n, tr.HeaderExecs); !ok {
				return nil
			}
		}
		if n == 0 {
			continue
		}
		fs.freq[b] = n
		if !sa.scanBlock(fs, rng, siteCtx, b, n) {
			return nil
		}
		t := b.Term()
		if t == nil || t != b.Instrs[len(b.Instrs)-1] {
			return nil
		}
		switch {
		case t.Op == ir.OpRet:
			// A return inside a loop would cut the modeled trips short, and
			// a frequency other than 1 cannot happen in a real invocation.
			if n != 1 || l != nil {
				return nil
			}
			retFlow += n
			if len(t.Args) == 1 {
				fs.ret = rng.At(t.Args[0], b)
			} else {
				fs.ret = analysis.Point(0)
			}
		case t.Op == ir.OpUnreachable:
			return nil // executing it is a trap
		case t.Op == ir.OpBr && len(t.Blocks) == 1:
			if !addFlow(b, t.Blocks[0], n) {
				return nil
			}
		case t.IsConditionalBr():
			if t.Blocks[0] == t.Blocks[1] {
				if !addFlow(b, t.Blocks[0], n) {
					return nil
				}
				break
			}
			if ok, done := sa.loopExitFlow(scev, entries, addFlow, b, l, n); done {
				if !ok {
					return nil
				}
				break
			}
			// Not a recognized loop exit: the ranges must decide the branch
			// outright (every execution takes the same edge).
			c := rng.At(t.Args[0], b)
			switch {
			case !c.Contains(0):
				if !addFlow(b, t.Blocks[0], n) {
					return nil
				}
			case c.IsPoint(): // the point is 0
				if !addFlow(b, t.Blocks[1], n) {
					return nil
				}
			default:
				return nil
			}
		case t.Op == ir.OpSwitch:
			c := rng.At(t.Args[0], b)
			if !c.IsPoint() {
				return nil
			}
			target := t.Blocks[0]
			for i, cv := range t.Cases {
				if cv == c.Lo {
					target = t.Blocks[i+1]
					break
				}
			}
			if !addFlow(b, target, n) {
				return nil
			}
		default:
			return nil
		}
	}
	if retFlow != 1 {
		return nil // the invocation must return exactly once
	}
	return fs
}

// loopExitFlow handles b's conditional branch when b is the recognized
// exiting block of a loop on its nest chain: each loop entry exits exactly
// once, the rest of the flow stays inside. done reports whether b was such
// an exit (ok is only meaningful then).
func (sa *staticAnalyzer) loopExitFlow(scev *analysis.SCEV, entries map[*ir.Loop]int64,
	addFlow func(from, to *ir.Block, n int64) bool, b *ir.Block, l *ir.Loop, n int64) (ok, done bool) {
	for x := l; x != nil; x = x.Parent {
		tr := scev.TripsOf(x)
		if tr.Kind != analysis.TripFinite || tr.Exiting != b {
			continue
		}
		e := entries[x]
		// Consistency: in both rotated and while form the exiting block runs
		// once per header execution, entries(x)·HeaderExecs times in total.
		if want, okm := mulChk(e, tr.HeaderExecs); !okm || want != n {
			return false, true
		}
		t := b.Term()
		exitTo, stayTo := t.Blocks[0], t.Blocks[1]
		if x.Contains(exitTo) {
			exitTo, stayTo = stayTo, exitTo
		}
		return addFlow(b, exitTo, e) && addFlow(b, stayTo, n-e), true
	}
	return false, false
}

// scanBlock accumulates the per-invocation costs of block b at frequency n
// and proves every instruction in it safe: no trap the interpreter could
// take, no op outside the model. siteCtx carries the per-call-site callee
// contexts resolved by analyzeFunc's interprocedural pre-pass.
func (sa *staticAnalyzer) scanBlock(fs *funcStatic, rng *analysis.Ranges,
	siteCtx map[*ir.Instr]*funcStatic, b *ir.Block, n int64) bool {
	var ok bool
	if d, okm := mulChk(n, int64(len(b.Instrs))); okm {
		fs.steps, ok = addChk(fs.steps, d)
	}
	if !ok {
		return false
	}
	for _, in := range b.Instrs {
		switch {
		case in.Op == ir.OpSDiv || in.Op == ir.OpSRem:
			if rng.At(in.Args[1], b).Contains(0) {
				return false // possible division-by-zero trap
			}
		case in.Op == ir.OpAlloca:
			cells := int64(1)
			if in.AllocTy.Kind == ir.ArrayKind {
				cells = int64(in.AllocTy.Len)
			}
			var d int64
			if d, ok = mulChk(n, cells); ok {
				fs.allocCells, ok = addChk(fs.allocCells, d)
			}
			if !ok {
				return false
			}
		case in.Op == ir.OpLoad:
			if !proveAccess(rng, in.Args[0], b, 1) {
				return false
			}
		case in.Op == ir.OpStore:
			if !proveAccess(rng, in.Args[1], b, 1) {
				return false
			}
		case in.Op == ir.OpMemset:
			c := rng.At(in.Args[2], b)
			if !c.IsPoint() {
				return false // the cell counter needs the exact length
			}
			var d int64
			if d, ok = mulChk(n, c.Lo); ok {
				fs.msetCells, ok = addChk(fs.msetCells, d)
			}
			if !ok {
				return false
			}
			if c.Lo > 0 {
				// One step per written cell, and the writes must be in
				// bounds (a non-positive length writes nothing).
				if d, ok = mulChk(n, c.Lo); ok {
					fs.steps, ok = addChk(fs.steps, d)
				}
				if !ok || !proveAccess(rng, in.Args[0], b, c.Lo) {
					return false
				}
			}
		case in.Op == ir.OpCall:
			if in.Callee == nil || len(in.Args) != len(in.Callee.Params) {
				return false // a short call leaves params unbound
			}
			cs := siteCtx[in]
			if cs == nil {
				return false // callee not static under this site's arguments
			}
			fs.calls[cs], ok = addChk(fs.calls[cs], n)
			if !ok {
				return false
			}
		case in.Op.IsBinary() || in.Op.IsCast() || in.Op.IsTerminator() ||
			in.Op == ir.OpICmp || in.Op == ir.OpSelect || in.Op == ir.OpPhi ||
			in.Op == ir.OpGEP || in.Op == ir.OpPrint:
			// Cannot trap; costs are covered by the per-instruction step.
		default:
			return false // unknown op: the interpreter may reject it
		}
	}
	return true
}

// proveAccess shows that the n cells at p are inside p's object: the
// pointer must chain through GEPs/bitcasts to an alloca or global root,
// every intermediate offset must stay inside the interpreter's unsigned
// pointer offset field (so the encoding round-trips), and the final window
// [off, off+n-1] must lie within the root's cell count.
func proveAccess(rng *analysis.Ranges, p ir.Value, b *ir.Block, n int64) bool {
	var idxs []analysis.Interval
	cells := int64(-1)
walk:
	for {
		switch v := p.(type) {
		case *ir.Global:
			cells = int64(v.NumElems())
			break walk
		case *ir.Instr:
			switch v.Op {
			case ir.OpAlloca:
				cells = 1
				if v.AllocTy.Kind == ir.ArrayKind {
					cells = int64(v.AllocTy.Len)
				}
				break walk
			case ir.OpGEP:
				idxs = append(idxs, rng.At(v.Args[1], b))
				p = v.Args[0]
			case ir.OpBitCast:
				p = v.Args[0]
			default:
				return false
			}
		default:
			return false
		}
	}
	off := analysis.Point(0)
	for i := len(idxs) - 1; i >= 0; i-- {
		var ok bool
		if off, ok = addIvl(off, idxs[i]); !ok {
			return false
		}
		if off.Lo < 0 || off.Hi > ptrOffField {
			return false
		}
	}
	// cells - off.Hi cannot overflow: both operands are small non-negatives.
	return off.Lo >= 0 && n <= cells-off.Hi
}

// addIvl adds two intervals with overflow detection.
func addIvl(a, b analysis.Interval) (analysis.Interval, bool) {
	lo, ok1 := addChk(a.Lo, b.Lo)
	hi, ok2 := addChk(a.Hi, b.Hi)
	return analysis.Interval{Lo: lo, Hi: hi}, ok1 && ok2
}

// addChk and mulChk are int64 arithmetic with overflow reporting; the
// static profiler declines rather than miscounting.
func addChk(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func mulChk(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		if a == 1 || b == 1 {
			return math.MinInt64, true
		}
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}
