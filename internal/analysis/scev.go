package analysis

import (
	"math/big"

	"autophase/internal/ir"
)

// This file is the scalar-evolution layer: it recognizes affine
// add-recurrences {start,+,step} among loop-header phis and derives
// closed-form exit counts for counted loops, replacing the O(n) exit-test
// simulation the loop passes used with an O(1) query. The closed form is
// exact with respect to the interpreter's two's-complement semantics
// (ir.Type.TruncVal wraparound, ir.CmpPred.Eval mixed signed/unsigned
// comparison), which the randomized differential tests pin down.

// TripKind classifies an exit-count query.
type TripKind int

// Exit-count results.
const (
	TripUnknown  TripKind = iota // no closed form; the caller may simulate
	TripFinite                   // the exit is taken at a known evaluation
	TripInfinite                 // the exit condition provably never holds
)

// String renders the kind.
func (k TripKind) String() string {
	switch k {
	case TripFinite:
		return "finite"
	case TripInfinite:
		return "infinite"
	}
	return "unknown"
}

// maxWrapEpochs bounds how many times ExitCount follows the recurrence
// around the 2^bits torus before giving up. Each epoch is O(1); real loops
// flip their exit condition within the first wrap.
const maxWrapEpochs = 4

// ExitCount computes the smallest n >= 1 at which a loop exit test on an
// affine recurrence fires. The tested value at evaluation n is
//
//	x_n = TruncVal(start + (n-1+off)*step), off = 0 (phi) or 1 (onNext),
//
// and the exit fires when pred.Eval(x_n, bound, bits) == exitWhen — exactly
// the semantics of iterating cur = EvalBinary(OpAdd, ty, cur, step) from
// TruncVal(start) and testing cur (or its successor) each round.
//
// Returns (n, TripFinite) when the exit fires at evaluation n, (0,
// TripInfinite) when it provably never fires, and (0, TripUnknown) when no
// closed form was derived (the caller may fall back to bounded simulation).
func ExitCount(start, step, bound int64, bits int, pred ir.CmpPred, onNext, exitWhen bool) (int64, TripKind) {
	if bits <= 0 || bits > 64 {
		bits = 64
	}
	ty := ir.IntType(bits)
	s := ty.TruncVal(step)
	off := int64(0)
	if onNext {
		off = 1
	}
	// First tested value. int64 addition wraps mod 2^64 and TruncVal reduces
	// mod 2^bits, so this equals the iterated form.
	v0 := ty.TruncVal(start + off*step)
	if pred.Eval(v0, bound, bits) == exitWhen {
		return 1, TripFinite
	}
	if s == 0 {
		// The recurrence is constant and the first test already failed.
		return 0, TripInfinite
	}
	switch pred {
	case ir.CmpEQ, ir.CmpNE:
		return equalityExitCount(start, s, bound, bits, pred, off, exitWhen)
	default:
		return orderedExitCount(v0, s, bound, bits, pred, off, exitWhen)
	}
}

// equalityExitCount solves eq/ne exits as a linear congruence
// step*k ≡ bound-start (mod 2^bits) over the evaluation index k = n-1+off.
func equalityExitCount(start, s, bound int64, bits int, pred ir.CmpPred, off int64, exitWhen bool) (int64, TripKind) {
	ty := ir.IntType(bits)
	cb := ty.TruncVal(bound)
	// CmpPred.Eval compares eq/ne on the raw (sign-extended) int64s, so a
	// bound outside the canonical bits-wide range can never equal the
	// recurrence's canonical values.
	representable := cb == bound
	exitOnEqual := (pred == ir.CmpEQ) == exitWhen
	if !exitOnEqual {
		// Exit on inequality. The first test failed, so x_1 == bound; the
		// step is nonzero mod 2^bits, hence x_2 != x_1 == bound.
		if !representable {
			return 0, TripInfinite // x_n == bound held, impossible
		}
		return 2, TripFinite
	}
	if !representable {
		return 0, TripInfinite
	}
	mod := big.NewInt(1)
	mod.Lsh(mod, uint(bits))
	su := new(big.Int).And(big.NewInt(s), new(big.Int).Sub(mod, big.NewInt(1)))
	d := new(big.Int).Sub(big.NewInt(cb), big.NewInt(ty.TruncVal(start)))
	d.Mod(d, mod)
	g := new(big.Int).GCD(nil, nil, su, mod)
	if new(big.Int).Mod(d, g).Sign() != 0 {
		return 0, TripInfinite // congruence unsolvable: never equal
	}
	period := new(big.Int).Div(mod, g)
	inv := new(big.Int).ModInverse(new(big.Int).Div(su, g), period)
	if inv == nil {
		return 0, TripUnknown // cannot happen after the gcd division
	}
	k := new(big.Int).Div(d, g)
	k.Mul(k, inv)
	k.Mod(k, period)
	if k.Cmp(big.NewInt(off)) < 0 {
		k.Add(k, period)
	}
	return tripFromIndex(k, off)
}

// orderedExitCount handles the ordered predicates by following the affine
// recurrence across the bits-wide domain, one wrap epoch at a time. Within
// an epoch the values are exactly start + j*step, the predicate is a
// half-line, and the first entry index is a ceiling division.
func orderedExitCount(v0, s, bound int64, bits int, pred ir.CmpPred, off int64, exitWhen bool) (int64, TripKind) {
	signed := pred == ir.CmpSLT || pred == ir.CmpSLE || pred == ir.CmpSGT || pred == ir.CmpSGE
	mod := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	var lo, hi, val, bnd *big.Int
	mask := new(big.Int).Sub(mod, big.NewInt(1))
	if signed {
		hi = new(big.Int).Sub(new(big.Int).Rsh(mod, 1), big.NewInt(1)) // 2^(bits-1)-1
		lo = new(big.Int).Neg(new(big.Int).Rsh(mod, 1))                // -2^(bits-1)
		val = big.NewInt(v0)
		// Signed predicates compare the raw bound, which may lie outside
		// the canonical domain; the half-line machinery handles that.
		bnd = big.NewInt(bound)
	} else {
		lo = big.NewInt(0)
		hi = mask
		val = new(big.Int).And(big.NewInt(v0), mask)
		bnd = new(big.Int).And(big.NewInt(bound), mask)
	}
	// Normalize "pred(v, bound) == exitWhen" to a half-line target
	// {v <= t} (wantLE) or {v >= t}.
	var t *big.Int
	var wantLE bool
	switch pred {
	case ir.CmpSLT, ir.CmpULT:
		t, wantLE = new(big.Int).Sub(bnd, big.NewInt(1)), true
	case ir.CmpSLE, ir.CmpULE:
		t, wantLE = new(big.Int).Set(bnd), true
	case ir.CmpSGT, ir.CmpUGT:
		t, wantLE = new(big.Int).Add(bnd, big.NewInt(1)), false
	default: // SGE, UGE
		t, wantLE = new(big.Int).Set(bnd), false
	}
	if !exitWhen {
		if wantLE {
			t, wantLE = new(big.Int).Add(t, big.NewInt(1)), false
		} else {
			t, wantLE = new(big.Int).Sub(t, big.NewInt(1)), true
		}
	}
	// Target empty over the whole domain: the loop can never exit.
	if wantLE && t.Cmp(lo) < 0 {
		return 0, TripInfinite
	}
	if !wantLE && t.Cmp(hi) > 0 {
		return 0, TripInfinite
	}
	inTarget := func(v *big.Int) bool {
		if wantLE {
			return v.Cmp(t) <= 0
		}
		return v.Cmp(t) >= 0
	}
	sb := big.NewInt(s)
	k := big.NewInt(off)
	for epoch := 0; epoch < maxWrapEpochs; epoch++ {
		if inTarget(val) {
			return tripFromIndex(k, off)
		}
		// First j >= 1 with val + j*s in the target, ignoring wraparound.
		var jFlip *big.Int
		if wantLE && s < 0 {
			// Need val + j*s <= t, i.e. j >= (val-t)/(-s).
			jFlip = ceilDiv(new(big.Int).Sub(val, t), new(big.Int).Neg(sb))
		} else if !wantLE && s > 0 {
			jFlip = ceilDiv(new(big.Int).Sub(t, val), sb)
		}
		// First j >= 1 at which val + j*s leaves [lo, hi].
		var jWrap *big.Int
		if s > 0 {
			jWrap = new(big.Int).Div(new(big.Int).Sub(hi, val), sb)
		} else {
			jWrap = new(big.Int).Div(new(big.Int).Sub(val, lo), new(big.Int).Neg(sb))
		}
		jWrap.Add(jWrap, big.NewInt(1))
		if jFlip != nil && jFlip.Cmp(jWrap) < 0 {
			k.Add(k, jFlip)
			return tripFromIndex(k, off)
		}
		// Advance to the wrap point and fold back into the domain.
		k.Add(k, jWrap)
		val.Add(val, new(big.Int).Mul(jWrap, sb))
		if s > 0 {
			val.Sub(val, mod)
		} else {
			val.Add(val, mod)
		}
	}
	return 0, TripUnknown
}

// ceilDiv returns ceil(a/b) for b > 0, never less than 1.
func ceilDiv(a, b *big.Int) *big.Int {
	q, r := new(big.Int).QuoRem(a, b, new(big.Int))
	if r.Sign() > 0 {
		q.Add(q, big.NewInt(1))
	}
	if q.Cmp(big.NewInt(1)) < 0 {
		q.SetInt64(1)
	}
	return q
}

// tripFromIndex converts an evaluation index k (= n-1+off) into the
// 1-based trip count, guarding against int64 overflow.
func tripFromIndex(k *big.Int, off int64) (int64, TripKind) {
	n := new(big.Int).Sub(k, big.NewInt(off))
	n.Add(n, big.NewInt(1))
	if !n.IsInt64() {
		return 0, TripUnknown
	}
	return n.Int64(), TripFinite
}

// AddRec is an affine add-recurrence {Start,+,Step}: a loop-header phi with
// a constant initial value from the preheader and a constant-step add from
// the latch.
type AddRec struct {
	Phi   *ir.Instr
	Next  *ir.Instr // the add feeding the backedge
	Start int64
	Step  int64
	Bits  int
}

// LoopTrips is the closed-form trip information of one natural loop.
type LoopTrips struct {
	Loop *ir.Loop
	Kind TripKind
	// BodyTrips is the number of body executions per loop entry and
	// HeaderExecs the number of header executions (BodyTrips+1 for
	// header-exiting "while" loops, equal for latch-exiting rotated loops).
	// Both are valid only when Kind == TripFinite.
	BodyTrips   int64
	HeaderExecs int64
	HeaderExit  bool      // exit test in the header rather than the latch
	Exiting     *ir.Block // the unique exiting block the count was derived from
	IV          AddRec    // the controlling induction variable
	NoWrap      bool      // the IV provably never wraps while the loop runs
}

// SCEV holds the per-function scalar-evolution results: the recognized
// add-recurrences and the per-loop closed-form trip counts.
type SCEV struct {
	fn        *ir.Func
	dt        *ir.DomTree
	loops     []*ir.Loop
	recs      map[*ir.Instr]AddRec
	trips     map[*ir.Loop]*LoopTrips
	innermost map[*ir.Block]*ir.Loop
}

// ComputeSCEV analyzes f's natural loops over the dominator tree and
// returns the scalar-evolution results.
func ComputeSCEV(f *ir.Func) *SCEV {
	s := &SCEV{
		fn:        f,
		recs:      make(map[*ir.Instr]AddRec),
		trips:     make(map[*ir.Loop]*LoopTrips),
		innermost: make(map[*ir.Block]*ir.Loop),
	}
	if len(f.Blocks) == 0 {
		return s
	}
	s.dt = ir.NewDomTree(f)
	s.loops = ir.FindLoops(f, s.dt)
	for _, b := range f.Blocks {
		var best *ir.Loop
		for _, l := range s.loops {
			if l.Contains(b) && (best == nil || len(l.Body) < len(best.Body)) {
				best = l
			}
		}
		if best != nil {
			s.innermost[b] = best
		}
	}
	for _, l := range s.loops {
		s.analyzeLoop(l)
	}
	return s
}

// Loops returns the natural loops of the analyzed function.
func (s *SCEV) Loops() []*ir.Loop { return s.loops }

// Dom returns the dominator tree the analysis was computed over.
func (s *SCEV) Dom() *ir.DomTree { return s.dt }

// AddRecOf returns the recurrence a loop-header phi evolves as.
func (s *SCEV) AddRecOf(phi *ir.Instr) (AddRec, bool) {
	r, ok := s.recs[phi]
	return r, ok
}

// TripsOf returns the trip information of l (never nil for loops returned
// by Loops; Kind is TripUnknown when no closed form was derived).
func (s *SCEV) TripsOf(l *ir.Loop) *LoopTrips {
	if t, ok := s.trips[l]; ok {
		return t
	}
	return &LoopTrips{Loop: l, Kind: TripUnknown}
}

// InnermostLoop returns the smallest loop containing b, or nil.
func (s *SCEV) InnermostLoop(b *ir.Block) *ir.Loop { return s.innermost[b] }

func (s *SCEV) analyzeLoop(l *ir.Loop) {
	tr := &LoopTrips{Loop: l, Kind: TripUnknown}
	s.trips[l] = tr
	ph := l.Preheader()
	latch := l.SingleLatch()
	if ph == nil || latch == nil {
		return
	}
	var recs []AddRec
	for _, phi := range l.Header.Instrs[:l.Header.NumPhis()] {
		vp, okP := phi.PhiIncoming(ph)
		vl, okL := phi.PhiIncoming(latch)
		if !okP || !okL {
			continue
		}
		init, ok := ir.IsConst(vp)
		if !ok {
			continue
		}
		add, isI := vl.(*ir.Instr)
		if !isI || add.Op != ir.OpAdd || !l.Contains(add.Parent()) {
			continue
		}
		var stepV ir.Value
		switch {
		case add.Args[0] == ir.Value(phi):
			stepV = add.Args[1]
		case add.Args[1] == ir.Value(phi):
			stepV = add.Args[0]
		}
		if stepV == nil {
			continue
		}
		step, ok := ir.IsConst(stepV)
		if !ok {
			continue
		}
		bits := 64
		if t := phi.Ty; t.IsInt() {
			bits = t.Bits
		}
		rec := AddRec{Phi: phi, Next: add, Start: init, Step: step, Bits: bits}
		s.recs[phi] = rec
		recs = append(recs, rec)
	}
	ex := l.ExitingBlocks()
	if len(ex) != 1 {
		return
	}
	e := ex[0]
	t := e.Term()
	if t == nil || !t.IsConditionalBr() {
		return
	}
	in0, in1 := l.Contains(t.Blocks[0]), l.Contains(t.Blocks[1])
	if in0 == in1 {
		return
	}
	cmp, ok := t.Args[0].(*ir.Instr)
	if !ok || cmp.Op != ir.OpICmp {
		return
	}
	bound, ok := ir.IsConst(cmp.Args[1])
	if !ok {
		return
	}
	bits := 64
	if ct := cmp.Args[0].Type(); ct.IsInt() {
		bits = ct.Bits
	}
	exitWhen := !in0
	for _, rec := range recs {
		var onNext bool
		switch cmp.Args[0] {
		case ir.Value(rec.Phi):
			onNext = false
		case ir.Value(rec.Next):
			onNext = true
		default:
			continue
		}
		if e == latch {
			// Rotated (do-while) form, including single-block loops where
			// header == latch: the test runs once per body execution.
			n, kind := ExitCount(rec.Start, rec.Step, bound, bits, cmp.Pred, onNext, exitWhen)
			tr.Kind = kind
			tr.Exiting, tr.IV, tr.HeaderExit = e, rec, false
			if kind == TripFinite {
				tr.BodyTrips, tr.HeaderExecs = n, n
				tr.NoWrap = recNoWrap(rec, n)
			}
			return
		}
		if e == l.Header && !onNext {
			// While form: the header tests the phi before each body run; the
			// exiting evaluation is the last header execution.
			h, kind := ExitCount(rec.Start, rec.Step, bound, bits, cmp.Pred, false, exitWhen)
			tr.Kind = kind
			tr.Exiting, tr.IV, tr.HeaderExit = e, rec, true
			if kind == TripFinite {
				tr.HeaderExecs, tr.BodyTrips = h, h-1
				tr.NoWrap = recNoWrap(rec, h)
			}
			return
		}
	}
}

// recNoWrap reports whether the IV's phi values over execs header
// executions (indices 0..execs-1) stay inside the canonical signed range,
// i.e. the mathematical affine form never wraps.
func recNoWrap(rec AddRec, execs int64) bool {
	ty := ir.IntType(rec.Bits)
	last := new(big.Int).Mul(big.NewInt(rec.Step), big.NewInt(execs-1))
	last.Add(last, big.NewInt(ty.TruncVal(rec.Start)))
	return last.Cmp(big.NewInt(ty.MinVal())) >= 0 && last.Cmp(big.NewInt(ty.MaxVal())) <= 0
}

// PhiRange returns the exact interval a counted loop's IV phi ranges over
// (including the final value observed at the exiting evaluation), when the
// loop's trip count is known and the IV provably does not wrap.
func (s *SCEV) PhiRange(phi *ir.Instr) (Interval, bool) {
	rec, ok := s.recs[phi]
	if !ok {
		return Interval{}, false
	}
	l := s.innermost[phi.Parent()]
	if l == nil || l.Header != phi.Parent() {
		return Interval{}, false
	}
	tr := s.trips[l]
	if tr == nil || tr.Kind != TripFinite || !tr.NoWrap || tr.IV.Phi != phi {
		return Interval{}, false
	}
	start := ir.IntType(rec.Bits).TruncVal(rec.Start)
	last := start + (tr.HeaderExecs-1)*rec.Step // in-range per NoWrap
	if last < start {
		return Interval{Lo: last, Hi: start}, true
	}
	return Interval{Lo: start, Hi: last}, true
}
