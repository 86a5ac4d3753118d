package analysis

import (
	"math"
	"math/big"

	"autophase/internal/ir"
)

// This file is the value-range layer: a flow-insensitive interval fixpoint
// over the SSA values of a function (with widening for termination), an
// exact override for counted-loop induction variables from the SCEV layer,
// and a flow-sensitive refinement query At(v, b) that sharpens intervals
// with the branch conditions dominating b. Soundness contract: every value
// the interpreter can produce for v lies inside Of(v) (and inside At(v, b)
// whenever control reaches b). Intervals are over the raw int64
// representation the interpreter carries — which is canonical for
// TruncVal-ed results but may be non-canonical for e.g. icmp results
// (stored as raw 1 even at i1, whose canonical values are -1 and 0).

// Interval is an inclusive integer interval [Lo, Hi].
type Interval struct {
	Lo, Hi int64
}

// Full is the interval of all int64 values (the lattice top).
var Full = Interval{math.MinInt64, math.MaxInt64}

// Point returns the single-value interval [v, v].
func Point(v int64) Interval { return Interval{v, v} }

// IsFull reports whether i is the full interval.
func (i Interval) IsFull() bool { return i == Full }

// IsPoint reports whether i contains exactly one value.
func (i Interval) IsPoint() bool { return i.Lo == i.Hi }

// Contains reports whether v lies in i.
func (i Interval) Contains(v int64) bool { return i.Lo <= v && v <= i.Hi }

// ContainsIvl reports whether o is a subset of i.
func (i Interval) ContainsIvl(o Interval) bool { return i.Lo <= o.Lo && o.Hi <= i.Hi }

// Hull returns the smallest interval containing both i and o.
func (i Interval) Hull(o Interval) Interval {
	if o.Lo < i.Lo {
		i.Lo = o.Lo
	}
	if o.Hi > i.Hi {
		i.Hi = o.Hi
	}
	return i
}

// Intersect returns the intersection, reporting false when it is empty.
func (i Interval) Intersect(o Interval) (Interval, bool) {
	if o.Lo > i.Lo {
		i.Lo = o.Lo
	}
	if o.Hi < i.Hi {
		i.Hi = o.Hi
	}
	return i, i.Lo <= i.Hi
}

// String renders the interval.
func (i Interval) String() string {
	if i.IsFull() {
		return "[-inf, +inf]"
	}
	return "[" + itoa(i.Lo) + ", " + itoa(i.Hi) + "]"
}

func itoa(v int64) string { return big.NewInt(v).String() }

// typeInterval is the canonical (post-TruncVal) range of an integer type.
func typeInterval(ty *ir.Type) Interval {
	if !ty.IsInt() {
		return Full
	}
	return Interval{ty.MinVal(), ty.MaxVal()}
}

// widenThreshold is how many strict interval growths a value may undergo
// before widening snaps the moving bound to the int64 extreme.
const widenThreshold = 16

// refineDepth bounds the operand re-evaluation recursion of At.
const refineDepth = 6

// Ranges holds the per-function value-range results.
type Ranges struct {
	fn      *ir.Func
	scev    *SCEV
	of      map[ir.Value]Interval
	grown   map[ir.Value]int
	pinned  map[ir.Value]bool
	conds   map[*ir.Block][]pathCond
	callRet func(*ir.Instr) Interval
}

// pathCond is a branch condition known to hold on entry to a block: the
// icmp pred(x, bound) evaluated to holds.
type pathCond struct {
	x     ir.Value
	pred  ir.CmpPred
	bound int64
	bits  int
	holds bool
}

// ComputeRanges runs the interval analysis on f with unconstrained
// parameters.
func ComputeRanges(f *ir.Func) *Ranges { return ComputeRangesHint(f, nil) }

// ComputeRangesHint runs the interval analysis with per-parameter seed
// intervals (indexed by parameter position; missing entries mean Full). The
// hints let callers model a known calling context, e.g. the interpreter
// invoking main with all-zero arguments.
func ComputeRangesHint(f *ir.Func, hints []Interval) *Ranges {
	return ComputeRangesCtx(f, hints, nil)
}

// ComputeRangesCtx additionally takes a callee-return hook consulted for
// every OpCall: it must return a sound interval for the raw value the call
// may return (Full when unknown). A nil hook keeps calls at Full. This is
// how the interprocedural static-profile layer threads callee result ranges
// back into the caller without the range analysis knowing about summaries.
func ComputeRangesCtx(f *ir.Func, hints []Interval, callRet func(*ir.Instr) Interval) *Ranges {
	r := &Ranges{
		fn:     f,
		of:     make(map[ir.Value]Interval),
		grown:  make(map[ir.Value]int),
		pinned: make(map[ir.Value]bool),
		conds:  make(map[*ir.Block][]pathCond),
	}
	r.callRet = callRet
	if len(f.Blocks) == 0 {
		return r
	}
	for i, p := range f.Params {
		if i < len(hints) {
			r.of[p] = hints[i]
		} else {
			r.of[p] = Full
		}
		r.pinned[p] = true
	}
	r.scev = ComputeSCEV(f)
	// Counted-loop IVs get their exact closed-form hull and are pinned: the
	// generic phi transfer would also admit the one-past-the-exit value the
	// phi never actually takes.
	for _, l := range r.scev.Loops() {
		for _, phi := range l.Header.Instrs[:l.Header.NumPhis()] {
			if iv, ok := r.scev.PhiRange(phi); ok {
				r.of[phi] = iv
				r.pinned[phi] = true
			}
		}
	}
	Propagate(f, func(b *ir.Block) bool {
		changed := false
		for _, in := range b.Instrs {
			if in.Ty.IsVoid() || !in.Ty.IsInt() || r.pinned[in] {
				continue
			}
			if r.update(in, r.eval(in, r.Of)) {
				changed = true
			}
		}
		return changed
	})
	return r
}

// SCEV returns the scalar-evolution results the analysis was built over.
func (r *Ranges) SCEV() *SCEV { return r.scev }

// Of returns the flow-insensitive interval of v. Non-integer and untracked
// values are Full.
func (r *Ranges) Of(v ir.Value) Interval {
	switch x := v.(type) {
	case *ir.Const:
		return Point(x.Val)
	case *ir.Undef:
		// The interpreter evaluates undef as 0.
		return Point(0)
	}
	if iv, ok := r.of[v]; ok {
		return iv
	}
	return Full
}

// update monotonically grows v's stored interval toward nv, widening after
// repeated growth, and reports whether the interval changed.
func (r *Ranges) update(v ir.Value, nv Interval) bool {
	old, seen := r.of[v]
	if !seen {
		r.of[v] = nv
		return true
	}
	merged := old.Hull(nv)
	if merged == old {
		return false
	}
	r.grown[v]++
	if r.grown[v] > widenThreshold {
		if merged.Lo < old.Lo {
			merged.Lo = math.MinInt64
		}
		if merged.Hi > old.Hi {
			merged.Hi = math.MaxInt64
		}
	}
	r.of[v] = merged
	return true
}

// eval computes the transfer function of one instruction from its operand
// intervals (looked up through get, so At can re-evaluate with refined
// operands).
func (r *Ranges) eval(in *ir.Instr, get func(ir.Value) Interval) Interval {
	ty := in.Ty
	switch {
	case in.Op == ir.OpPhi:
		out := Interval{math.MaxInt64, math.MinInt64} // empty; hull of nothing
		for i := range in.Args {
			if in.Args[i] == nil {
				return typeInterval(ty)
			}
			iv := get(in.Args[i])
			if i == 0 {
				out = iv
			} else {
				out = out.Hull(iv)
			}
		}
		if len(in.Args) == 0 {
			return typeInterval(ty)
		}
		return out
	case in.Op.IsBinary():
		return evalBinaryIvl(in.Op, ty, get(in.Args[0]), get(in.Args[1]))
	case in.Op == ir.OpICmp:
		bits := 64
		if t := in.Args[0].Type(); t.IsInt() {
			bits = t.Bits
		}
		a, b := get(in.Args[0]), get(in.Args[1])
		switch decidePred(in.Pred, a, b, bits) {
		case +1:
			return Point(1) // the interpreter stores icmp results as raw 1
		case -1:
			return Point(0)
		}
		return Interval{0, 1}
	case in.Op == ir.OpSelect:
		c := get(in.Args[0])
		t, f := get(in.Args[1]), get(in.Args[2])
		if !c.Contains(0) {
			return t
		}
		if c == Point(0) {
			return f
		}
		return t.Hull(f)
	case in.Op.IsCast():
		return evalCastIvl(in.Op, in.Args[0].Type(), ty, get(in.Args[0]))
	case in.Op == ir.OpLoad:
		// Loads truncate to the loaded type, so the result is canonical.
		return typeInterval(ty)
	case in.Op == ir.OpCall:
		// Returned values travel raw (a callee may return a non-canonical
		// icmp bit), so not even the type bound applies — unless a
		// callee-return hook supplies a context-derived interval.
		if r.callRet != nil {
			return r.callRet(in)
		}
		return Full
	}
	return Full
}

// evalBinaryIvl is the interval transfer of ir.EvalBinary: compute the raw
// mathematical range in big.Int and keep it when the truncation to ty is the
// identity over it; otherwise fall back to the canonical type range.
func evalBinaryIvl(op ir.Op, ty *ir.Type, a, b Interval) Interval {
	if a.IsPoint() && b.IsPoint() {
		if (op == ir.OpSDiv || op == ir.OpSRem) && b.Lo == 0 {
			// The interpreter traps here; EvalBinary's saturation value is
			// irrelevant but still a safe point to report.
			return Point(0)
		}
		return Point(ir.EvalBinary(op, ty, a.Lo, b.Lo))
	}
	al, ah := big.NewInt(a.Lo), big.NewInt(a.Hi)
	bl, bh := big.NewInt(b.Lo), big.NewInt(b.Hi)
	var lo, hi *big.Int
	switch op {
	case ir.OpAdd:
		lo, hi = new(big.Int).Add(al, bl), new(big.Int).Add(ah, bh)
	case ir.OpSub:
		lo, hi = new(big.Int).Sub(al, bh), new(big.Int).Sub(ah, bl)
	case ir.OpMul:
		lo = new(big.Int).Mul(al, bl)
		hi = new(big.Int).Set(lo)
		for _, p := range []*big.Int{
			new(big.Int).Mul(al, bh),
			new(big.Int).Mul(ah, bl),
			new(big.Int).Mul(ah, bh),
		} {
			if p.Cmp(lo) < 0 {
				lo = p
			}
			if p.Cmp(hi) > 0 {
				hi = p
			}
		}
	case ir.OpAnd:
		// A non-negative operand bounds the result on its own: when m >= 0
		// the mask clears the sign bit and every bit above m's highest, so
		// the raw x & m lies in [0, m] for ANY x — the masking idiom
		// (x & 63) needs no knowledge of x. Sound only while truncation to
		// ty is the identity over the bound.
		m := int64(-1)
		if a.Lo >= 0 {
			m = a.Hi
		}
		if b.Lo >= 0 && (m < 0 || b.Hi < m) {
			m = b.Hi
		}
		if m >= 0 {
			out := Interval{0, m}
			if typeInterval(ty).ContainsIvl(out) {
				return out
			}
		}
		return typeInterval(ty)
	case ir.OpSRem:
		// rem keeps the dividend's sign with |rem| < |divisor| — but the
		// saturation cases make a precise bound fiddly; the canonical range
		// is already sound.
		return typeInterval(ty)
	default:
		return typeInterval(ty)
	}
	tlo, thi := big.NewInt(ty.MinVal()), big.NewInt(ty.MaxVal())
	if lo.Cmp(tlo) >= 0 && hi.Cmp(thi) <= 0 {
		return Interval{lo.Int64(), hi.Int64()}
	}
	return typeInterval(ty)
}

// evalCastIvl is the interval transfer of ir.EvalCast.
func evalCastIvl(op ir.Op, from, to *ir.Type, a Interval) Interval {
	if a.IsPoint() {
		return Point(ir.EvalCast(op, from, to, a.Lo))
	}
	switch op {
	case ir.OpTrunc:
		if typeInterval(to).ContainsIvl(a) {
			return a
		}
		return typeInterval(to)
	case ir.OpZExt:
		if !from.IsInt() || from.Bits >= 64 {
			return a
		}
		if a.Lo >= 0 && uint64(a.Hi) <= from.Mask() {
			return a
		}
		return Interval{0, int64(from.Mask())}
	case ir.OpSExt:
		if typeInterval(from).ContainsIvl(a) {
			return a
		}
		return typeInterval(from)
	case ir.OpBitCast:
		return a
	}
	return Full
}

// decidePred resolves pred(a, b) over intervals: +1 when it must hold, -1
// when it cannot, 0 when undecided. Signed and equality predicates compare
// the raw int64s (matching ir.CmpPred.Eval); unsigned ones are only decided
// when both intervals survive the bit mask unchanged.
func decidePred(pred ir.CmpPred, a, b Interval, bits int) int {
	switch pred {
	case ir.CmpEQ:
		if a.IsPoint() && a == b {
			return +1
		}
		if a.Hi < b.Lo || b.Hi < a.Lo {
			return -1
		}
		return 0
	case ir.CmpNE:
		switch decidePred(ir.CmpEQ, a, b, bits) {
		case +1:
			return -1
		case -1:
			return +1
		}
		return 0
	case ir.CmpSLT:
		if a.Hi < b.Lo {
			return +1
		}
		if a.Lo >= b.Hi {
			return -1
		}
		return 0
	case ir.CmpSLE:
		if a.Hi <= b.Lo {
			return +1
		}
		if a.Lo > b.Hi {
			return -1
		}
		return 0
	case ir.CmpSGT:
		return -decidePred(ir.CmpSLE, a, b, bits)
	case ir.CmpSGE:
		return -decidePred(ir.CmpSLT, a, b, bits)
	case ir.CmpULT, ir.CmpULE, ir.CmpUGT, ir.CmpUGE:
		if !maskIdentity(a, bits) || !maskIdentity(b, bits) {
			return 0
		}
		switch pred {
		case ir.CmpULT:
			return decidePred(ir.CmpSLT, a, b, bits)
		case ir.CmpULE:
			return decidePred(ir.CmpSLE, a, b, bits)
		case ir.CmpUGT:
			return decidePred(ir.CmpSGT, a, b, bits)
		default:
			return decidePred(ir.CmpSGE, a, b, bits)
		}
	}
	return 0
}

// maskIdentity reports whether masking to bits leaves every value of a
// unchanged, so an unsigned comparison coincides with the signed one.
func maskIdentity(a Interval, bits int) bool {
	if bits >= 64 {
		return a.Lo >= 0
	}
	return a.Lo >= 0 && uint64(a.Hi) <= (uint64(1)<<uint(bits))-1
}

// At returns the interval of v at block b, refined by the branch conditions
// that dominate b. It is always a subset of Of(v).
func (r *Ranges) At(v ir.Value, b *ir.Block) Interval {
	return r.refine(v, r.condsAt(b), refineDepth)
}

// condsAt collects (and caches) the path conditions holding on entry to b:
// for every block d on b's dominator chain with a unique predecessor ending
// in a conditional branch on an icmp-vs-constant, the branch edge into d
// decides the icmp.
func (r *Ranges) condsAt(b *ir.Block) []pathCond {
	if cs, ok := r.conds[b]; ok {
		return cs
	}
	var cs []pathCond
	if r.scev != nil && r.scev.Dom() != nil {
		dt := r.scev.Dom()
		for d := b; d != nil; d = dt.IDom(d) {
			preds := dt.Preds(d)
			if len(preds) != 1 {
				continue
			}
			t := preds[0].Term()
			if t == nil || !t.IsConditionalBr() || t.Blocks[0] == t.Blocks[1] {
				continue
			}
			cmp, ok := t.Args[0].(*ir.Instr)
			if !ok || cmp.Op != ir.OpICmp {
				continue
			}
			bound, ok := ir.IsConst(cmp.Args[1])
			if !ok {
				continue
			}
			bits := 64
			if ct := cmp.Args[0].Type(); ct.IsInt() {
				bits = ct.Bits
			}
			cs = append(cs, pathCond{
				x:     cmp.Args[0],
				pred:  cmp.Pred,
				bound: bound,
				bits:  bits,
				holds: t.Blocks[0] == d,
			})
		}
	}
	r.conds[b] = cs
	return cs
}

// refine narrows v's interval under the given path conditions, recursing
// into operand re-evaluation up to depth.
func (r *Ranges) refine(v ir.Value, cs []pathCond, depth int) Interval {
	base := r.Of(v)
	for _, c := range cs {
		if c.x != v {
			continue
		}
		if cut, ok := condInterval(c, base); ok {
			if narrowed, nonEmpty := base.Intersect(cut); nonEmpty {
				base = narrowed
			}
		}
	}
	if in, ok := v.(*ir.Instr); ok && depth > 0 && in.Ty.IsInt() && !r.pinned[v] && in.Op != ir.OpPhi {
		re := r.eval(in, func(a ir.Value) Interval { return r.refine(a, cs, depth-1) })
		if narrowed, nonEmpty := base.Intersect(re); nonEmpty {
			base = narrowed
		}
	}
	return base
}

// condInterval converts a path condition on x into an interval constraint,
// when one exists that is sound over base (the values x may take).
func condInterval(c pathCond, base Interval) (Interval, bool) {
	pred := c.pred
	if !c.holds {
		pred = pred.Invert()
	}
	switch pred {
	case ir.CmpEQ:
		return Point(c.bound), true
	case ir.CmpNE:
		return Interval{}, false // not expressible as one interval
	case ir.CmpSLT:
		if c.bound == math.MinInt64 {
			return Interval{}, false
		}
		return Interval{math.MinInt64, c.bound - 1}, true
	case ir.CmpSLE:
		return Interval{math.MinInt64, c.bound}, true
	case ir.CmpSGT:
		if c.bound == math.MaxInt64 {
			return Interval{}, false
		}
		return Interval{c.bound + 1, math.MaxInt64}, true
	case ir.CmpSGE:
		return Interval{c.bound, math.MaxInt64}, true
	case ir.CmpULT, ir.CmpULE:
		// Unsigned upper bounds translate to signed ones only when x's
		// values coincide with their masked form.
		if !maskIdentity(base, c.bits) {
			return Interval{}, false
		}
		bu, ok := maskedBound(c.bound, c.bits)
		if !ok {
			return Interval{}, false
		}
		if pred == ir.CmpULT {
			if bu == 0 {
				return Interval{}, false // x < 0 unsigned: impossible
			}
			return Interval{0, bu - 1}, true
		}
		return Interval{0, bu}, true
	}
	// UGT/UGE refinements are rarely profitable here; skip them.
	return Interval{}, false
}

// maskedBound returns the bits-masked value of bound as a non-negative
// int64, when it fits.
func maskedBound(bound int64, bits int) (int64, bool) {
	if bits >= 64 {
		if bound < 0 {
			return 0, false
		}
		return bound, true
	}
	return int64(uint64(bound) & ((uint64(1) << uint(bits)) - 1)), true
}
