package ir_test

import (
	"testing"

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
func TestCFGAnalysisAllocs(t *testing.T) {
	const ceiling = 14
	for _, m := range progen.Benchmarks() {
		for _, f := range m.Funcs {
			got := testing.AllocsPerRun(20, func() { ir.FindLoops(f, ir.NewDomTree(f)) })
			if got > ceiling {
				t.Errorf("%s/%s (%d blocks): NewDomTree+FindLoops allocate %v objects, want at most %d",
					m.Name, f.Name, len(f.Blocks), got, ceiling)
			}
		}
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
