package ir_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"autophase/internal/ir"
	"autophase/internal/progen"
)

// The allocation guards below pin the IR's allocation shape (DESIGN
// "Allocation in the IR"). Their ceilings hold under both the Go release
// CI pins and newer ones, whose maps allocate in more pieces.

// TestFoldInstrAllocs: folding keeps its operands in a stack buffer, so
// only the folded constant is allocated.
func TestFoldInstrAllocs(t *testing.T) {
	p := &ir.Param{Name: "p", Ty: ir.I32}
	c3, c4 := ir.ConstInt(ir.I32, 3), ir.ConstInt(ir.I32, 4)
	for _, tc := range []struct {
		name string
		in   *ir.Instr
		max  float64
	}{
		{"non-constant operand", &ir.Instr{Op: ir.OpAdd, Ty: ir.I32, Args: []ir.Value{p, c4}}, 0},
		{"non-foldable op", &ir.Instr{Op: ir.OpCall, Ty: ir.I32, Args: []ir.Value{c3, c4, c3, c4, c3}}, 0},
		{"trapping division", &ir.Instr{Op: ir.OpSDiv, Ty: ir.I32, Args: []ir.Value{c3, ir.ConstInt(ir.I32, 0)}}, 0},
		{"add", &ir.Instr{Op: ir.OpAdd, Ty: ir.I32, Args: []ir.Value{c3, c4}}, 1},
		{"select", &ir.Instr{Op: ir.OpSelect, Ty: ir.I32, Args: []ir.Value{ir.ConstInt(ir.I1, 1), c3, c4}}, 1},
	} {
		if got := testing.AllocsPerRun(100, func() { ir.FoldInstr(tc.in) }); got > tc.max {
			t.Errorf("%s: FoldInstr allocates %v objects, want at most %v", tc.name, got, tc.max)
		}
	}
}

// TestCFGAnalysisAllocs: a dominator tree and its loops come from a fixed
// number of slabs, however many blocks, edges and loops the function has.
// Through the cache that is one more object when Dom came before Loops:
// the record that holds the tree and its loops is copied, not changed.
func TestCFGAnalysisAllocs(t *testing.T) {
	const ceiling = 13
	for _, m := range progen.Benchmarks() {
		for _, f := range m.Funcs {
			got := testing.AllocsPerRun(20, func() {
				m.Seal() // drops the cache
				f.Dom()
				f.Loops()
			})
			if got > ceiling {
				t.Errorf("%s/%s (%d blocks): Dom then Loops allocate %v objects, want at most %d",
					m.Name, f.Name, len(f.Blocks), got, ceiling)
			}
		}
	}
}

// TestCFGAnalysisCacheAllocs: asking again for the tree and loops of an
// unchanged function only checks them against its CFG.
func TestCFGAnalysisCacheAllocs(t *testing.T) {
	for _, m := range progen.Benchmarks() {
		for _, f := range m.Funcs {
			f.Loops()
			if got := testing.AllocsPerRun(20, func() { f.Dom() }); got != 0 {
				t.Errorf("%s/%s: a repeated Dom allocates %v objects, want 0", m.Name, f.Name, got)
			}
			if got := testing.AllocsPerRun(20, func() { f.Loops() }); got != 0 {
				t.Errorf("%s/%s: a repeated Loops allocates %v objects, want 0", m.Name, f.Name, got)
			}
		}
	}
}

// TestInstrSize: with the small fields sharing one word (the number
// among them) an instruction is
// 128 bytes, so a plain instruction takes the 128-byte size class, one
// with one, two or three operands 144, 160 or 176 (instrA1..instrA3), an
// unconditional branch 144 and a conditional one 160. At 152 bytes they
// took 160, 176, 192, 208, 160 and 192.
func TestInstrSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size classes are pinned for 64-bit targets")
	}
	if n := unsafe.Sizeof(ir.Instr{}); n > 128 {
		t.Fatalf("ir.Instr is %d bytes, want at most 128", n)
	}
	// A block number field would take a block from the 48-byte size
	// class to 64 (DESIGN "Instruction numbers").
	if n := unsafe.Sizeof(ir.Block{}); n > 48 {
		t.Fatalf("ir.Block is %d bytes, want at most 48", n)
	}
}

// TestCloneAllocs: Module.Clone allocates each instruction together with
// its operand (and, for branches and two-way phis, target) array. What
// remains per instruction is its share of the blocks, functions and maps.
func TestCloneAllocs(t *testing.T) {
	const perInstr = 1.6
	for _, m := range progen.Benchmarks() {
		n := m.NumInstrs()
		got := testing.AllocsPerRun(20, func() { m.Clone() })
		if got/float64(n) > perInstr {
			t.Errorf("%s: Clone allocates %v objects for %d instructions (%.2f each), want at most %v each",
				m.Name, got, n, got/float64(n), perInstr)
		}
	}
}

var cloneSink *ir.Module

// BenchmarkClone deep-copies each of the nine benchmark modules once per
// op.
func BenchmarkClone(b *testing.B) {
	bs := progen.Benchmarks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range bs {
			cloneSink = m.Clone()
		}
	}
}

// TestFingerprintAllocs: positions come from instruction numbers and
// scans, so Fingerprint allocates nothing, on a plain module and on an
// unsealed copy-on-write one.
func TestFingerprintAllocs(t *testing.T) {
	for _, m := range progen.Benchmarks() {
		cow := m.CloneCOW()
		cow.Materialize(cow.Funcs[len(cow.Funcs)-1])
		for _, x := range []*ir.Module{m, cow} {
			if got := testing.AllocsPerRun(20, func() { x.Fingerprint() }); got != 0 {
				t.Errorf("%s: Fingerprint allocates %v objects, want 0", m.Name, got)
			}
		}
	}
}

// TestFingerprintKeepsNoModule: Fingerprint keeps nothing of the module
// it hashed (it once kept pooled index maps, which had to be cleared
// before they went back), so a fingerprinted module can be collected.
// Functions, blocks and instructions point back at their module, and a
// finalizer on a cycle never runs, so the finalizers sit on the global and
// on a constant operand, which point at nothing in the module: a retained
// function, block or instruction keeps the constant, a retained global
// itself.
func TestFingerprintKeepsNoModule(t *testing.T) {
	var collected atomic.Int32
	func() {
		m := ir.NewModule("m")
		g := m.NewGlobal("g", ir.I32, []int64{7}, false)
		c := &ir.Const{Ty: ir.I32, Val: 5}
		f := m.NewFunc("main", ir.I32)
		bld := ir.NewBuilder()
		bld.SetInsert(f.NewBlock("entry"))
		bld.Ret(bld.Add(bld.Load(g), c))
		runtime.SetFinalizer(g, func(*ir.Global) { collected.Add(1) })
		runtime.SetFinalizer(c, func(*ir.Const) { collected.Add(1) })
		m.Fingerprint()
	}()
	// One cycle only: anything pooled survives one collection (in
	// sync.Pool's victim cache), so a scratch still holding module
	// pointers would keep them alive through this one.
	runtime.GC()
	for i := 0; i < 100 && collected.Load() < 2; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := collected.Load(); n < 2 {
		t.Fatalf("%d of 2 finalizers ran: Fingerprint kept part of the module reachable", n)
	}
}
