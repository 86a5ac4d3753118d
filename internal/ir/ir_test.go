package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeBasics(t *testing.T) {
	if I32.String() != "i32" || !I32.IsInt() || I32.IsPtr() {
		t.Fatal("i32 type misbehaves")
	}
	p := PointerTo(I32)
	if !p.IsPtr() || p.String() != "i32*" || !p.Elem.Equal(I32) {
		t.Fatal("pointer type misbehaves")
	}
	a := ArrayOf(I16, 8)
	if a.String() != "[8 x i16]" || a.Len != 8 {
		t.Fatal("array type misbehaves")
	}
	if !ArrayOf(I16, 8).Equal(a) || ArrayOf(I16, 9).Equal(a) {
		t.Fatal("structural equality broken")
	}
	if IntType(32) != I32 || IntType(1) != I1 {
		t.Fatal("interning broken")
	}
}

func TestTruncVal(t *testing.T) {
	cases := []struct {
		ty   *Type
		in   int64
		want int64
	}{
		{I8, 255, -1},
		{I8, 128, -128},
		{I8, 127, 127},
		{I16, 1 << 20, 0},
		{I32, 1 << 31, -(1 << 31)},
		{I1, 3, -1}, // i1: bit set => -1 in two's complement
		{I64, -5, -5},
	}
	for _, c := range cases {
		if got := c.ty.TruncVal(c.in); got != c.want {
			t.Errorf("TruncVal(%s, %d) = %d, want %d", c.ty, c.in, got, c.want)
		}
	}
}

// TestEvalBinaryMatchesInt32 checks the shared evaluation rule against Go's
// native int32 arithmetic for every wrapping operator.
func TestEvalBinaryMatchesInt32(t *testing.T) {
	f := func(a, b int32) bool {
		av, bv := int64(a), int64(b)
		if EvalBinary(OpAdd, I32, av, bv) != int64(a+b) {
			return false
		}
		if EvalBinary(OpSub, I32, av, bv) != int64(a-b) {
			return false
		}
		if EvalBinary(OpMul, I32, av, bv) != int64(a*b) {
			return false
		}
		if EvalBinary(OpAnd, I32, av, bv) != int64(a&b) {
			return false
		}
		if EvalBinary(OpOr, I32, av, bv) != int64(a|b) {
			return false
		}
		if EvalBinary(OpXor, I32, av, bv) != int64(a^b) {
			return false
		}
		sh := uint(b) % 32
		if EvalBinary(OpShl, I32, av, bv) != int64(a<<sh) {
			return false
		}
		if EvalBinary(OpLShr, I32, av, bv) != int64(int32(uint32(a)>>sh)) {
			return false
		}
		if EvalBinary(OpAShr, I32, av, bv) != int64(a>>sh) {
			return false
		}
		if b != 0 && !(a == -1<<31 && b == -1) {
			if EvalBinary(OpSDiv, I32, av, bv) != int64(a/b) {
				return false
			}
			if EvalBinary(OpSRem, I32, av, bv) != int64(a%b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPredicates(t *testing.T) {
	for p := CmpEQ; p <= CmpUGE; p++ {
		inv := p.Invert()
		sw := p.Swap()
		for _, ab := range [][2]int64{{1, 2}, {2, 1}, {3, 3}, {-1, 1}, {-5, -5}} {
			a, b := ab[0], ab[1]
			if p.Eval(a, b, 32) == inv.Eval(a, b, 32) {
				t.Fatalf("%v invert broken for (%d,%d)", p, a, b)
			}
			if p.Eval(a, b, 32) != sw.Eval(b, a, 32) {
				t.Fatalf("%v swap broken for (%d,%d)", p, a, b)
			}
		}
	}
	// Unsigned predicates compare bit patterns.
	if !CmpULT.Eval(1, -1, 32) {
		t.Fatal("1 should be ULT 0xffffffff")
	}
	if CmpULT.Eval(-1, 1, 32) {
		t.Fatal("0xffffffff is not ULT 1")
	}
}

// diamond builds:  entry -> (then|else) -> join -> ret phi
func diamond() (*Module, *Func) {
	m := NewModule("test")
	f := m.NewFunc("main", I32, I32)
	b := NewBuilder()
	entry := f.NewBlock("entry")
	thenB := f.NewBlock("then")
	elseB := f.NewBlock("else")
	join := f.NewBlock("join")

	b.SetInsert(entry)
	cond := b.ICmp(CmpSGT, f.Params[0], ConstInt(I32, 0))
	b.CondBr(cond, thenB, elseB)

	b.SetInsert(thenB)
	tv := b.Add(f.Params[0], ConstInt(I32, 1))
	b.Br(join)

	b.SetInsert(elseB)
	ev := b.Sub(f.Params[0], ConstInt(I32, 1))
	b.Br(join)

	b.SetInsert(join)
	phi := b.Phi(I32)
	phi.SetPhiIncoming(thenB, tv)
	phi.SetPhiIncoming(elseB, ev)
	b.Ret(phi)
	return m, f
}

func TestDominators(t *testing.T) {
	_, f := diamond()
	dt := NewDomTree(f)
	entry, thenB, elseB, join := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	if !dt.Dominates(entry, join) || !dt.Dominates(entry, thenB) {
		t.Fatal("entry must dominate everything")
	}
	if dt.Dominates(thenB, join) || dt.Dominates(elseB, join) {
		t.Fatal("branch arms must not dominate the join")
	}
	if dt.IDom(join) != entry {
		t.Fatalf("idom(join) = %v, want entry", blockLabel(dt.IDom(join)))
	}
	df := dt.Frontier()
	foundJoin := false
	for _, fb := range df[thenB] {
		if fb == join {
			foundJoin = true
		}
	}
	if !foundJoin {
		t.Fatal("join must be in then's dominance frontier")
	}
}

func buildLoop() (*Module, *Func) {
	m := NewModule("loop")
	f := m.NewFunc("main", I32)
	b := NewBuilder()
	entry := f.NewBlock("entry")
	header := f.NewBlock("header")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")

	b.SetInsert(entry)
	b.Br(header)

	b.SetInsert(header)
	iv := b.Phi(I32)
	cond := b.ICmp(CmpSLT, iv, ConstInt(I32, 10))
	b.CondBr(cond, body, exit)

	b.SetInsert(body)
	next := b.Add(iv, ConstInt(I32, 1))
	b.Br(header)

	iv.SetPhiIncoming(entry, ConstInt(I32, 0))
	iv.SetPhiIncoming(body, next)

	b.SetInsert(exit)
	b.Ret(iv)
	return m, f
}

func TestLoopDetection(t *testing.T) {
	m, f := buildLoop()
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	dt := NewDomTree(f)
	loops := FindLoops(f, dt)
	if len(loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(loops))
	}
	l := loops[0]
	if l.Header.Name != "header" {
		t.Fatalf("header = %s", l.Header.Name)
	}
	if len(l.Body) != 2 { // header + body
		t.Fatalf("body size %d", len(l.Body))
	}
	if ph := l.Preheader(); ph == nil || ph.Name != "entry" {
		t.Fatal("preheader should be entry")
	}
	if lt := l.SingleLatch(); lt == nil || lt.Name != "body" {
		t.Fatal("latch should be body")
	}
	if ex := l.Exits(); len(ex) != 1 || ex[0].Name != "exit" {
		t.Fatalf("exits: %v", ex)
	}
}

func TestCriticalEdges(t *testing.T) {
	_, f := buildLoop()
	// header -> exit is critical only if exit has multiple pred edges; here
	// exit has one pred, so no critical edges exist.
	if ce := CriticalEdges(f); len(ce) != 0 {
		t.Fatalf("unexpected critical edges: %d", len(ce))
	}
	// Make one: body conditionally branches to header or exit.
	body := f.Blocks[2]
	exit := f.Blocks[3]
	header := f.Blocks[1]
	body.Remove(body.Term())
	b := NewBuilder()
	b.SetInsert(body)
	c := b.ICmp(CmpEQ, ConstInt(I32, 0), ConstInt(I32, 0))
	b.CondBr(c, header, exit)
	ce := CriticalEdges(f)
	// header->exit, body->header and body->exit are all now critical.
	if len(ce) != 3 {
		t.Fatalf("critical edges = %d, want 3", len(ce))
	}
	n := len(f.Blocks)
	SplitEdge(f, ce[0][0], ce[0][1], "split")
	if len(f.Blocks) != n+1 {
		t.Fatal("SplitEdge did not insert a block")
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("verify after split: %v", err)
	}
}

func TestVerifierCatchesBrokenIR(t *testing.T) {
	// Unterminated block.
	m := NewModule("bad")
	f := m.NewFunc("main", I32)
	f.NewBlock("entry")
	if err := m.Verify(); err == nil {
		t.Fatal("verifier accepted empty block")
	}
	// Phi with wrong preds.
	m2, f2 := diamond()
	phi := f2.Blocks[3].Phis()[0]
	phi.RemovePhiIncoming(f2.Blocks[1])
	if err := m2.Verify(); err == nil {
		t.Fatal("verifier accepted phi missing an incoming")
	}
	// Use does not dominate.
	m3, f3 := diamond()
	thenVal := f3.Blocks[1].Instrs[0]
	ret := f3.Blocks[3].Term()
	ret.Args[0] = thenVal
	if err := m3.Verify(); err == nil || !strings.Contains(err.Error(), "dominance") {
		t.Fatalf("verifier accepted dominance violation: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m, _ := buildLoop()
	c := m.Clone()
	if err := c.Verify(); err != nil {
		t.Fatalf("clone verify: %v", err)
	}
	if m.String() != c.String() {
		t.Fatal("clone prints differently")
	}
	// Mutating the clone must not affect the original.
	cf := c.Func("main")
	cf.Blocks[2].Remove(cf.Blocks[2].Instrs[0])
	if m.String() == c.String() {
		t.Fatal("clone shares structure with original")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("original corrupted by clone mutation: %v", err)
	}

	// A clone's operand and target arrays are allocated with each of its
	// instructions (DESIGN "Allocation in the IR"). Writing, growing or
	// re-keying them must change neither the parent nor any other
	// instruction, in the clone or in a copy of one of its instructions.
	m, _ = diamond()
	want := m.String()
	c = m.Clone()
	cf = c.Func("main")
	var all []*Instr
	for _, b := range cf.Blocks {
		all = append(all, b.Instrs...)
	}
	for _, in := range append([]*Instr(nil), all...) {
		all = append(all, in.Copy())
	}
	type operands struct {
		args   []Value
		blocks []*Block
	}
	snap := func(in *Instr) operands {
		return operands{append([]Value(nil), in.Args...), append([]*Block(nil), in.Blocks...)}
	}
	same := func(in *Instr, o operands) bool {
		if len(in.Args) != len(o.args) || len(in.Blocks) != len(o.blocks) {
			return false
		}
		for i, a := range in.Args {
			if a != o.args[i] {
				return false
			}
		}
		for i, b := range in.Blocks {
			if b != o.blocks[i] {
				return false
			}
		}
		return true
	}
	before := make(map[*Instr]operands, len(all))
	for _, in := range all {
		before[in] = snap(in)
	}
	extra := cf.NewBlock("extra")
	seven := ConstInt(I32, 7)
	for _, in := range all {
		if len(in.Args) > 0 {
			in.Args[0] = seven
		}
		if len(in.Blocks) > 0 {
			in.Blocks[0] = extra
		}
		if in.Op == OpPhi {
			in.SetPhiIncoming(extra, seven)
			in.SetPhiIncoming(cf.Blocks[0], seven)
		}
		in.Args = append(in.Args, seven)
		in.Blocks = append(in.Blocks, extra)
		for _, o := range all {
			if o != in && !same(o, before[o]) {
				t.Fatalf("rewriting a %s changed the operands of a %s", in.Op, o.Op)
			}
		}
		before[in] = snap(in)
	}
	if got := m.String(); got != want {
		t.Fatalf("rewriting the clone's operands changed the parent:\n%s", got)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("parent corrupted by operand rewrites: %v", err)
	}
}

func TestUseTracking(t *testing.T) {
	_, f := diamond()
	p0 := f.Params[0]
	if n := f.UseCount(p0); n != 3 {
		t.Fatalf("param used %d times, want 3", n)
	}
	uses := f.Uses(p0)
	if len(uses) != 3 {
		t.Fatalf("Uses returned %d", len(uses))
	}
	f.ReplaceAllUses(p0, ConstInt(I32, 7))
	if n := f.UseCount(p0); n != 0 {
		t.Fatalf("after replace, %d uses remain", n)
	}
}

func TestFoldInstr(t *testing.T) {
	add := &Instr{Op: OpAdd, Ty: I32, Args: []Value{ConstInt(I32, 3), ConstInt(I32, 4)}}
	if c, ok := FoldInstr(add); !ok || c.Val != 7 {
		t.Fatal("add fold failed")
	}
	div := &Instr{Op: OpSDiv, Ty: I32, Args: []Value{ConstInt(I32, 3), ConstInt(I32, 0)}}
	if _, ok := FoldInstr(div); ok {
		t.Fatal("folded a trapping division")
	}
	cmp := &Instr{Op: OpICmp, Ty: I1, Pred: CmpSLT, Args: []Value{ConstInt(I32, -1), ConstInt(I32, 1)}}
	if c, ok := FoldInstr(cmp); !ok || c.Val == 0 {
		// i1 true is the non-zero 1-bit pattern (-1 in two's complement).
		t.Fatal("icmp fold failed")
	}
	sel := &Instr{Op: OpSelect, Ty: I32, Args: []Value{ConstInt(I1, 0), ConstInt(I32, 5), ConstInt(I32, 9)}}
	if c, ok := FoldInstr(sel); !ok || c.Val != 9 {
		t.Fatal("select fold failed")
	}
	zext := &Instr{Op: OpZExt, Ty: I32, Args: []Value{ConstInt(I8, -1)}}
	if c, ok := FoldInstr(zext); !ok || c.Val != 255 {
		t.Fatalf("zext fold: %v", zext)
	}
}

func TestPrinterRoundable(t *testing.T) {
	m, _ := diamond()
	s := m.String()
	for _, want := range []string{"define i32 @main", "icmp sgt", "phi i32", "ret i32"} {
		if !strings.Contains(s, want) {
			t.Fatalf("printer output missing %q:\n%s", want, s)
		}
	}
}

func TestDotCFG(t *testing.T) {
	_, f := buildLoop()
	dot := DotCFG(f)
	for _, want := range []string{"digraph", "header", "peripheries=2", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot output missing %q:\n%s", want, dot)
		}
	}
	// Conditional edges labelled.
	if !strings.Contains(dot, `label="T"`) || !strings.Contains(dot, `label="F"`) {
		t.Fatal("conditional edges unlabelled")
	}
}
