package passes

import (
	"math/bits"
	"slices"

	"autophase/internal/ir"
)

// instrTable holds a T for each instruction of one function, indexed by
// instruction number (ir.Func.Number). Each slot records the instruction it
// was made for, and a lookup checks it: an instruction built after the
// table, or from elsewhere, carries a stale or zero number and finds no
// slot. A table is valid until f is numbered again.
type instrTable[T any] []instrSlot[T]

type instrSlot[T any] struct {
	in *ir.Instr
	v  T
}

// newInstrTable numbers f and returns a table with a zero T for each of
// its instructions.
func newInstrTable[T any](f *ir.Func) instrTable[T] { return fillInstrTable[T](nil, f) }

// fillInstrTable is newInstrTable reusing t's storage when it is large
// enough.
func fillInstrTable[T any](t instrTable[T], f *ir.Func) instrTable[T] {
	n := f.Number()
	if cap(t) < n {
		t = make(instrTable[T], n)
	} else {
		t = t[:n]
		clear(t)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			t[in.Num()].in = in
		}
	}
	return t
}

// at returns in's slot, or nil when the table has none for in.
func (t instrTable[T]) at(in *ir.Instr) *T {
	if k := in.Num(); k < len(t) && t[k].in == in {
		return &t[k].v
	}
	return nil
}

// of is at for an operand: nil unless v is an instruction with a slot.
func (t instrTable[T]) of(v ir.Value) *T {
	if in, ok := v.(*ir.Instr); ok {
		return t.at(in)
	}
	return nil
}

// get returns in's value, the zero T when in has no slot.
func (t instrTable[T]) get(in *ir.Instr) T {
	if p := t.at(in); p != nil {
		return *p
	}
	var zero T
	return zero
}

// instrMap is an instrTable that also answers for instructions without a
// slot, from a map made on first need: those are operands from outside
// the function (only in malformed IR), which a map keyed by *ir.Instr
// would have held like any other.
type instrMap[T any] struct {
	instrTable[T]
	outside map[*ir.Instr]*T
}

func newInstrMap[T any](f *ir.Func) *instrMap[T] {
	return &instrMap[T]{instrTable: newInstrTable[T](f)}
}

// ref returns in's value, adding a zero one when in has none yet.
func (m *instrMap[T]) ref(in *ir.Instr) *T {
	if p := m.at(in); p != nil {
		return p
	}
	p, ok := m.outside[in]
	if !ok {
		if m.outside == nil {
			m.outside = make(map[*ir.Instr]*T)
		}
		p = new(T)
		m.outside[in] = p
	}
	return p
}

// useCounts counts, for each instruction of f, the operand slots of f that
// reference it.
type useCounts = instrTable[int32]

// buildUseCounts returns the use counts of f's instructions, numbering f.
func buildUseCounts(f *ir.Func) useCounts {
	uses := newInstrTable[int32](f)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if n := uses.of(a); n != nil {
					*n++
				}
			}
		}
	}
	return uses
}

// instrsOf copies b's instructions into *buf, reusing its storage, and
// returns the copy: a loop that changes b while it ranges over the copy
// allocates once per pass instead of once per block.
func instrsOf(buf *[]*ir.Instr, b *ir.Block) []*ir.Instr {
	*buf = append((*buf)[:0], b.Instrs...)
	return *buf
}

// soleUser returns the one instruction of f that uses v, or nil when no
// instruction or several do: what a one-element f.Uses(v) holds, without
// building the list.
func soleUser(f *ir.Func, v ir.Value) *ir.Instr {
	var user *ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == v {
					if user != nil {
						return nil
					}
					user = in
					break
				}
			}
		}
	}
	return user
}

// removeTriviallyDead iteratively deletes instructions whose results are
// unused and that have no side effects. Returns whether anything was
// removed. This is the cheap DCE sweep many passes run as a clean-up. The
// use counts are built once and decremented as users go, so a round that
// frees an operand earlier in the function only costs another sweep.
func removeTriviallyDead(f *ir.Func) bool {
	uses := buildUseCounts(f)
	changed := false
	for {
		removed := false
		for _, b := range f.Blocks {
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				if in.IsTerminator() || in.HasSideEffects() {
					continue
				}
				if in.Ty.IsVoid() {
					continue
				}
				if uses.get(in) == 0 {
					b.Remove(in)
					for _, a := range in.Args {
						if n := uses.of(a); n != nil {
							*n--
						}
					}
					removed = true
				}
			}
		}
		if !removed {
			return changed
		}
		changed = true
	}
}

// foldConstants replaces constant-operand instructions with their folded
// constants across f. Returns whether anything changed.
func foldConstants(f *ir.Func) bool {
	changed := false
	for {
		again := false
		for _, b := range f.Blocks {
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				c, ok := ir.FoldInstr(in)
				if !ok {
					continue
				}
				f.ReplaceAllUses(in, c)
				b.Remove(in)
				again = true
			}
		}
		if !again {
			return changed
		}
		changed = true
	}
}

// removeUnreachableBlocks deletes blocks not reachable from entry and fixes
// phis in their successors. Returns whether anything changed.
func removeUnreachableBlocks(f *ir.Func) bool {
	var dead []*ir.Block
	if mask, ok := reachableMask(f); ok {
		for i, b := range f.Blocks {
			if mask&(1<<i) == 0 {
				dead = append(dead, b)
			}
		}
	} else {
		reach := f.ReachableBlocks()
		for _, b := range f.Blocks {
			if !reach[b] {
				dead = append(dead, b)
			}
		}
	}
	if len(dead) == 0 {
		return false
	}
	for _, b := range dead {
		// Drop instructions so dangling uses become undef via replacement.
		for _, in := range b.Instrs {
			if !in.Ty.IsVoid() {
				f.ReplaceAllUses(in, &ir.Undef{Ty: in.Ty})
			}
		}
		f.RemoveBlock(b)
	}
	return true
}

// reachableMask sets bit i for every block f.Blocks[i] reachable from the
// entry, walking the CFG by block position without allocating. ok is false
// when f has more blocks than the mask holds; the caller then falls back
// to f.ReachableBlocks. Positions are found by a linear scan, which stays
// cheaper than a map at this size.
func reachableMask(f *ir.Func) (mask uint64, ok bool) {
	n := len(f.Blocks)
	if n > 64 {
		return 0, false
	}
	if n == 0 {
		return 0, true
	}
	mask = 1
	for todo := uint64(1); todo != 0; {
		i := bits.TrailingZeros64(todo)
		todo &^= 1 << i
		for _, s := range f.Blocks[i].Succs() {
			for j, b := range f.Blocks {
				if b == s {
					if mask&(1<<j) == 0 {
						mask |= 1 << j
						todo |= 1 << j
					}
					break
				}
			}
		}
	}
	return mask, true
}

// loopsOf returns the natural loops of f's current CFG (f.Loops, which
// reuses the loops found for an unchanged CFG), in a slice of its own
// ordered innermost first for transformation safety.
func loopsOf(f *ir.Func) []*ir.Loop {
	loops := append([]*ir.Loop(nil), f.Loops()...)
	// Innermost first: a stable insertion sort by descending depth.
	for i := 1; i < len(loops); i++ {
		for j := i; j > 0 && loops[j-1].Depth < loops[j].Depth; j-- {
			loops[j-1], loops[j] = loops[j], loops[j-1]
		}
	}
	return loops
}

// isLoopInvariant reports whether v is computed outside loop l (constants,
// params, globals are always invariant).
func isLoopInvariant(v ir.Value, l *ir.Loop) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return true
	}
	return !l.Contains(in.Parent())
}

// vnKey is a structural hash key for pure instructions, used by the
// CSE/GVN family. Operands are small: constants are canonicalized by
// (width, value) so two equal constants number identically, and every
// other operand is identified by a number (vnOperand), so a key is 80
// bytes and a table of them stays compact.
type vnKey struct {
	op     ir.Op
	pred   ir.CmpPred
	nargs  uint8
	ty     string
	callee *ir.Func
	args   [3]vnOperand
}

// vnOperand is an operand's value-numbering form: a kind and a number. The
// number is a constant's value, an instruction's number in the walked
// function, a parameter's index, a global's position in the module, or,
// for any other value, its index among the other values met (cseTable).
type vnOperand struct {
	kind uint8
	bits int32 // a constant's width
	n    int64
}

// Operand kinds; vnNone is an unused argument slot.
const (
	vnNone uint8 = iota
	vnConst
	vnInstr
	vnParam
	vnGlobal
	vnOther
)

func numberable(in *ir.Instr) bool {
	switch {
	case in.Op.IsBinary(), in.Op == ir.OpICmp, in.Op == ir.OpSelect,
		in.Op == ir.OpGEP, in.Op.IsCast():
		return true
	case in.Op == ir.OpCall:
		return in.Callee != nil && in.Callee.Attrs.ReadNone && len(in.Args) <= 3 && !in.Ty.IsVoid()
	}
	return false
}

// cseTable is the state of domCSE's walks over one function: the
// available expressions and what keys their operands.
type cseTable struct {
	f      *ir.Func
	avail  map[vnKey]*ir.Instr
	instrs instrTable[struct{}] // the instructions with numbers this walk
	others map[ir.Value]int64   // operands numbered by first sight
}

func newCSETable() *cseTable { return &cseTable{avail: make(map[vnKey]*ir.Instr)} }

// reset empties the table for a walk over f, numbering f.
func (c *cseTable) reset(f *ir.Func) {
	c.f = f
	clear(c.avail)
	clear(c.others)
	c.instrs = fillInstrTable(c.instrs, f)
}

// operand maps v to its value-numbering form. Two operands map equal
// exactly when they are the same value, or constants of one width and
// value.
func (c *cseTable) operand(v ir.Value) vnOperand {
	switch x := v.(type) {
	case *ir.Const:
		bits := 64
		if x.Ty.IsInt() {
			bits = x.Ty.Bits
		}
		return vnOperand{kind: vnConst, bits: int32(bits), n: x.Val}
	case *ir.Instr:
		if c.instrs.at(x) != nil {
			return vnOperand{kind: vnInstr, n: int64(x.Num())}
		}
	case *ir.Param:
		if ps := c.f.Params; x.Index >= 0 && x.Index < len(ps) && ps[x.Index] == x {
			return vnOperand{kind: vnParam, n: int64(x.Index)}
		}
	case *ir.Global:
		if m := c.f.Module(); m != nil {
			if i := slices.Index(m.Globals, x); i >= 0 {
				return vnOperand{kind: vnGlobal, n: int64(i)}
			}
		}
	}
	n, ok := c.others[v]
	if !ok {
		if c.others == nil {
			c.others = make(map[ir.Value]int64)
		}
		n = int64(len(c.others))
		c.others[v] = n
	}
	return vnOperand{kind: vnOther, n: n}
}

func (c *cseTable) keyOf(in *ir.Instr) vnKey {
	args := in.Args
	if len(args) > 3 {
		args = args[:3]
	}
	k := vnKey{op: in.Op, pred: in.Pred, nargs: uint8(len(args)), ty: in.Ty.String(), callee: in.Callee}
	// Canonicalize commutative operand order before keying.
	if in.Op.IsCommutative() && len(args) == 2 && lessValue(args[1], args[0]) {
		k.args[0], k.args[1] = c.operand(args[1]), c.operand(args[0])
		return k
	}
	for i, a := range args {
		k.args[i] = c.operand(a)
	}
	return k
}

// lessValue imposes a deterministic order on values for commutative
// canonicalization: constants order by value, other values by reference,
// with every unnamed instruction spelled %0. Instruction numbers stay out
// of the order: printing and linting renumber a function, and a pass
// result must not depend on whether that happened.
func lessValue(a, b ir.Value) bool {
	ca, aok := ir.IsConst(a)
	cb, bok := ir.IsConst(b)
	if aok && bok {
		return ca < cb
	}
	if aok != bok {
		return aok // constants first
	}
	sa, na := refParts(a)
	sb, nb := refParts(b)
	if sa != sb {
		return sa < sb
	}
	return na < nb
}

// refParts splits v's reference into its sigil and the rest, spelling an
// unnamed instruction as %0. Comparing the parts orders values as
// comparing the joined references would, without building them.
func refParts(v ir.Value) (byte, string) {
	switch x := v.(type) {
	case *ir.Instr:
		if x.Name == "" {
			return '%', "0"
		}
		return '%', x.Name
	case *ir.Param:
		return '%', x.Name
	case *ir.Global:
		return '@', x.Name
	}
	r := v.Ref()
	if r == "" {
		return 0, ""
	}
	return r[0], r[1:]
}

// promotableAllocas returns, in order, the entry-block allocas of f whose
// address is only used directly by loads and stores (no GEP/bitcast/call
// escapes, and never stored as a value), i.e. the ones mem2reg promotes.
// One sweep over f decides all of them. It numbers f, so an entry-block
// instruction's number is its position in the block, and returns slot:
// slot[k] is one more than the index in allocas of the alloca at entry
// position k, zero for the others.
func promotableAllocas(f *ir.Func) (allocas []*ir.Instr, slot []int32) {
	f.Number()
	entry := f.Entry().Instrs
	ok := make([]bool, len(entry))
	candidates := false
	for k, in := range entry {
		if in.Op == ir.OpAlloca && in.AllocTy.Kind != ir.ArrayKind {
			ok[k], candidates = true, true
		}
	}
	if !candidates {
		return nil, nil
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				k, isEntry := entryPos(entry, a)
				if !isEntry || !ok[k] {
					continue
				}
				switch {
				case in.Op == ir.OpLoad:
				case in.Op == ir.OpStore && ai == 1:
					// address operand only; storing the pointer escapes it
				default:
					ok[k] = false
				}
			}
		}
	}
	slot = make([]int32, len(entry))
	for k, in := range entry {
		if ok[k] {
			allocas = append(allocas, in)
			slot[k] = int32(len(allocas))
		}
	}
	return allocas, slot
}

// entryPos returns the position of v in entry, the instructions of a
// numbered function's entry block, where position and number agree.
func entryPos(entry []*ir.Instr, v ir.Value) (int, bool) {
	in, ok := v.(*ir.Instr)
	if !ok {
		return 0, false
	}
	if k := in.Num(); k < len(entry) && entry[k] == in {
		return k, true
	}
	return 0, false
}
