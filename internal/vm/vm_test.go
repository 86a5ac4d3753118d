package vm

import (
	"errors"
	"strings"
	"testing"

	"autophase/internal/faults"
	"autophase/internal/interp"
	"autophase/internal/ir"
)

// testWeight assigns each block a small deterministic weight so the folded
// cycle formula is exercised with non-uniform per-block costs. The same
// closure is reused after lowering to compute the expected cycles from the
// interpreter's block profile.
func testWeight() func(*ir.Block) int {
	seen := make(map[*ir.Block]int)
	return func(b *ir.Block) int {
		if w, ok := seen[b]; ok {
			return w
		}
		w := len(seen)%5 + 1
		seen[b] = w
		return w
	}
}

func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func lower(t *testing.T, src string, w func(*ir.Block) int) *Program {
	t.Helper()
	p, err := Lower(parse(t, src), w)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if err := Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return p
}

// runDiff runs src under both engines and demands bit-identical outcomes:
// same error class, or same exit/steps/trace and the exact folded-cycle
// identity Cycles == Σ weight(b)·count(b) + memset cells + Σ calls.
func runDiff(t *testing.T, src string, lim interp.Limits) {
	t.Helper()
	m := parse(t, src)
	w := testWeight()
	p, err := Lower(m, w)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if err := Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	vres, verr := Run(p, lim)
	ires, ierr := interp.Run(m, lim)
	if (verr == nil) != (ierr == nil) {
		t.Fatalf("engine disagreement: vm err=%v, interp err=%v", verr, ierr)
	}
	if verr != nil {
		for _, cls := range []error{
			interp.ErrStepLimit, interp.ErrDepthLimit, interp.ErrMemLimit,
			interp.ErrDivByZero, interp.ErrOOB, interp.ErrNoMain,
			interp.ErrUnreach, interp.ErrDeadline,
		} {
			if errors.Is(ierr, cls) != errors.Is(verr, cls) {
				t.Fatalf("error class mismatch: vm %v, interp %v", verr, ierr)
			}
		}
		return
	}
	if vres.Exit != ires.Exit || vres.Steps != ires.Steps {
		t.Fatalf("vm exit=%d steps=%d, interp exit=%d steps=%d",
			vres.Exit, vres.Steps, ires.Exit, ires.Steps)
	}
	if len(vres.Trace) != len(ires.Trace) {
		t.Fatalf("trace length: vm %d, interp %d", len(vres.Trace), len(ires.Trace))
	}
	for i := range vres.Trace {
		if vres.Trace[i] != ires.Trace[i] {
			t.Fatalf("trace[%d]: vm %d, interp %d", i, vres.Trace[i], ires.Trace[i])
		}
	}
	var want int64
	for b, n := range ires.Blocks {
		want += n * int64(w(b))
	}
	want += ires.MemsetCells
	for _, n := range ires.Calls {
		want += n
	}
	if vres.Cycles != want {
		t.Fatalf("cycles: vm %d, folded-weight formula %d", vres.Cycles, want)
	}
}

const fibSrc = `define i32 @main() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
  %a = phi i32 [ 0, %entry ], [ %b, %loop ]
  %b = phi i32 [ 1, %entry ], [ %c, %loop ]
  %c = add i32 %a, %b
  %i2 = add i32 %i, 1
  %cmp = icmp slt i32 %i2, 20
  br i1 %cmp, label %loop, label %done

done:
  print(%a)
  ret i32 %a
}
`

// The fib loop's phis swap registers along the back edge (%a reads %b while
// %b is being overwritten), forcing the two-phase staging moves.
func TestLoopPhiSwap(t *testing.T) {
	runDiff(t, fibSrc, interp.DefaultLimits)
}

func TestRecursionDifferential(t *testing.T) {
	src := `define i32 @fact(i32 %n) {
entry:
  %c = icmp sle i32 %n, 1
  br i1 %c, label %base, label %rec

base:
  ret i32 1

rec:
  %n1 = sub i32 %n, 1
  %r = call i32 @fact(%n1)
  %m = mul i32 %n, %r
  ret i32 %m
}

define i32 @main() {
entry:
  %r = call i32 @fact(10)
  print(%r)
  ret i32 %r
}
`
	runDiff(t, src, interp.DefaultLimits)
}

func TestDepthLimit(t *testing.T) {
	src := `define i32 @loop(i32 %n) {
entry:
  %n1 = add i32 %n, 1
  %r = call i32 @loop(%n1)
  ret i32 %r
}

define i32 @main() {
entry:
  %r = call i32 @loop(0)
  ret i32 %r
}
`
	lim := interp.DefaultLimits
	lim.MaxDepth = 17
	runDiff(t, src, lim)
}

func TestMemsetAndGlobals(t *testing.T) {
	src := `@tab = constant [4 x i32] [10 20 30 40]

define i64 @main() {
entry:
  %p = alloca [8 x i64]
  memset(%p, 7, 8)
  %q = getelementptr i64* %p, 3
  %v = load i64, i64* %q
  %g = getelementptr i32* @tab, 2
  %w = load i32, i32* %g
  %we = sext i32 %w to i64
  %s = add i64 %v, %we
  print(%s)
  ret i64 %s
}
`
	runDiff(t, src, interp.DefaultLimits)
}

// A GEP offset of exactly 1<<28 wraps the 28-bit pointer offset field back
// to zero in both engines.
func TestPointerOffsetWraparound(t *testing.T) {
	src := `define i64 @main() {
entry:
  %p = alloca [8 x i64]
  memset(%p, 3, 8)
  %q = getelementptr i64* %p, 268435456
  %v = load i64, i64* %q
  ret i64 %v
}
`
	runDiff(t, src, interp.DefaultLimits)
}

func TestSwitchLoop(t *testing.T) {
	src := `define i32 @main() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %i2, %join ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %join ]
  %r = srem i32 %i, 4
  switch i32 %r, label %def [0: label %a, 1: label %b]

a:
  br label %join

b:
  br label %join

def:
  br label %join

join:
  %d = phi i32 [ 5, %a ], [ 7, %b ], [ 11, %def ]
  %acc2 = add i32 %acc, %d
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 12
  br i1 %c, label %loop, label %done

done:
  print(%acc)
  ret i32 %acc
}
`
	runDiff(t, src, interp.DefaultLimits)
}

func TestSelectCastsAndUnsignedCompare(t *testing.T) {
	src := `define i64 @main() {
entry:
  %a = add i32 -5, 0
  %b = add i32 3, 0
  %c = icmp ult i32 %a, %b
  %s = select i1 %c, i32 %a, i32 %b
  %t = trunc i32 %s to i8
  %z = zext i8 %t to i64
  %x = sext i8 %t to i64
  %sh = lshr i8 %t, 2
  %she = zext i8 %sh to i64
  %sum = add i64 %z, %x
  %sum2 = add i64 %sum, %she
  print(%sum2)
  ret i64 %sum2
}
`
	runDiff(t, src, interp.DefaultLimits)
}

func TestDivTraps(t *testing.T) {
	// Division by a dynamically-computed zero traps identically.
	src := `define i32 @main() {
entry:
  %a = add i32 7, 0
  %z = sub i32 %a, %a
  %q = sdiv i32 %a, %z
  ret i32 %q
}
`
	runDiff(t, src, interp.DefaultLimits)
}

func TestDivMinOverflowSaturates(t *testing.T) {
	// minint / -1 saturates to 0 in ir.EvalBinary; both engines agree.
	src := `define i64 @main() {
entry:
  %m = add i64 -9223372036854775808, 0
  %n = add i64 -1, 0
  %q = sdiv i64 %m, %n
  %r = srem i64 %m, %n
  %s = add i64 %q, %r
  print(%s)
  ret i64 %s
}
`
	runDiff(t, src, interp.DefaultLimits)
}

func TestOOBLoad(t *testing.T) {
	src := `define i64 @main() {
entry:
  %p = alloca [8 x i64]
  %q = getelementptr i64* %p, 100
  %v = load i64, i64* %q
  ret i64 %v
}
`
	runDiff(t, src, interp.DefaultLimits)
}

func TestUnreachableTrap(t *testing.T) {
	src := `define i32 @main() {
entry:
  unreachable
}
`
	runDiff(t, src, interp.DefaultLimits)
}

func TestStepLimit(t *testing.T) {
	lim := interp.DefaultLimits
	lim.MaxSteps = 37
	runDiff(t, fibSrc, lim)
}

func TestMemLimit(t *testing.T) {
	src := `define i64 @main() {
entry:
  %p = alloca [64 x i64]
  ret i64 0
}
`
	lim := interp.DefaultLimits
	lim.MaxCells = 16
	runDiff(t, src, lim)
}

func TestNoMain(t *testing.T) {
	src := `define i32 @f() {
entry:
  ret i32 0
}
`
	m := parse(t, src)
	p, err := Lower(m, func(*ir.Block) int { return 1 })
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if _, err := Run(p, interp.DefaultLimits); !errors.Is(err, interp.ErrNoMain) {
		t.Fatalf("want ErrNoMain, got %v", err)
	}
}

func TestDeclineShortCall(t *testing.T) {
	// The interpreter leaves missing parameters undefined; the VM declines.
	src := `define i32 @f(i32 %a, i32 %b) {
entry:
  ret i32 %a
}

define i32 @main() {
entry:
  %r = call i32 @f(1)
  ret i32 %r
}
`
	_, err := Lower(parse(t, src), func(*ir.Block) int { return 1 })
	if !errors.Is(err, ErrDecline) {
		t.Fatalf("want ErrDecline, got %v", err)
	}
}

func TestDeclineNegativeWeight(t *testing.T) {
	_, err := Lower(parse(t, fibSrc), func(*ir.Block) int { return -1 })
	if !errors.Is(err, ErrDecline) {
		t.Fatalf("want ErrDecline, got %v", err)
	}
}

func TestDeclineCodeAfterTerminator(t *testing.T) {
	// Block.Term() sees only a trailing terminator, so Succs/dominators
	// would describe a different CFG than the interpreter executes;
	// lowering must refuse rather than guess.
	src := `define i32 @main() {
entry:
  ret i32 1
  %x = add i32 1, 2
}
`
	_, err := Lower(parse(t, src), func(*ir.Block) int { return 1 })
	if !errors.Is(err, ErrDecline) {
		t.Fatalf("want ErrDecline, got %v", err)
	}
}

// A declined function only poisons the module when main can reach it.
func TestDeclineOnlyWhenReachable(t *testing.T) {
	src := `define i32 @dead() {
entry:
  ret i32 1
  %x = add i32 1, 2
}

define i32 @main() {
entry:
  ret i32 0
}
`
	p, err := Lower(parse(t, src), func(*ir.Block) int { return 1 })
	if err != nil {
		t.Fatalf("lower with unreachable declined func: %v", err)
	}
	if err := Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	res, err := Run(p, interp.DefaultLimits)
	if err != nil || res.Exit != 0 {
		t.Fatalf("run: exit=%v err=%v", res, err)
	}
}

func TestVerifyCorruption(t *testing.T) {
	fresh := func() *Program { return lower(t, fibSrc, func(*ir.Block) int { return 2 }) }

	p := fresh()
	fc := &p.funcs[p.main]
	fc.code = fc.code[:len(fc.code)-1]
	if err := Verify(p); err == nil || !strings.Contains(err.Error(), "falls off the end") {
		t.Fatalf("truncated code: %v", err)
	}

	p = fresh()
	fc = &p.funcs[p.main]
	for i := range fc.code {
		if fc.code[i].dst >= 0 {
			fc.code[i].dst = int32(fc.numRegs) + 5
			break
		}
	}
	if err := Verify(p); err == nil {
		t.Fatal("out-of-range dst accepted")
	}

	p = fresh()
	fc = &p.funcs[p.main]
	for i := range fc.code {
		if fc.code[i].op >= opShl && fc.code[i].op <= opAShr {
			fc.code[i].w = 0
			if err := Verify(p); err == nil || !strings.Contains(err.Error(), "width 0") {
				t.Fatalf("zero-width shift: %v", err)
			}
			break
		}
	}
}

func TestVerifyCallAndSwitchCorruption(t *testing.T) {
	src := `define i32 @f(i32 %a, i32 %b) {
entry:
  %s = add i32 %a, %b
  ret i32 %s
}

define i32 @main() {
entry:
  %r = call i32 @f(3, 4)
  switch i32 %r, label %d [7: label %a]

a:
  ret i32 1

d:
  ret i32 0
}
`
	p := lower(t, src, func(*ir.Block) int { return 1 })
	fc := &p.funcs[p.main]
	if len(fc.calls) != 1 || len(fc.switches) != 1 {
		t.Fatalf("expected one call and one switch, got %d/%d", len(fc.calls), len(fc.switches))
	}
	saved := fc.calls[0].args
	fc.calls[0].args = saved[:1]
	if err := Verify(p); err == nil || !strings.Contains(err.Error(), "args") {
		t.Fatalf("call arity: %v", err)
	}
	fc.calls[0].args = saved

	fc.switches[0].targets = fc.switches[0].targets[:0]
	if err := Verify(p); err == nil {
		t.Fatal("switch target/case mismatch accepted")
	}
}

func TestInjectedStall(t *testing.T) {
	sp, err := faults.ParseSpec("interp-stall:1.0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.Enable(sp); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()

	p := lower(t, fibSrc, func(*ir.Block) int { return 1 })
	if _, err := Run(p, interp.DefaultLimits); !errors.Is(err, interp.ErrDeadline) {
		t.Fatalf("want injected ErrDeadline, got %v", err)
	}
}

func TestInjectedPanic(t *testing.T) {
	sp, err := faults.ParseSpec("vm-panic:1.0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.Enable(sp); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()

	p := lower(t, fibSrc, func(*ir.Block) int { return 1 })
	defer func() {
		if recover() == nil {
			t.Fatal("expected injected panic")
		}
	}()
	Run(p, interp.DefaultLimits)
}
