package passes

import (
	"testing"

	"autophase/internal/ir"
	"autophase/internal/progen"
)

// TestLoopSimplifyFixedPointAllocs: once loop-simplify has nothing left to
// do, its exit walk allocates nothing, and neither does simplifycfg's
// unreachable-block sweep (or prune-eh's gate) on a function whose blocks
// are all reachable; these run in every round of both passes. The
// position-indexed reachability walk must also agree with
// Func.ReachableBlocks.
func TestLoopSimplifyFixedPointAllocs(t *testing.T) {
	for _, m := range progen.Benchmarks() {
		m = m.Clone()
		for _, f := range m.Funcs {
			loopSimplify(f)
			if mask, ok := reachableMask(f); ok {
				reach := f.ReachableBlocks()
				for i, b := range f.Blocks {
					if got := mask&(1<<i) != 0; got != reach[b] {
						t.Fatalf("%s/%s: block %s reachable=%v by mask, %v by ReachableBlocks",
							m.Name, f.Name, b.Name, got, reach[b])
					}
				}
			} else {
				t.Fatalf("%s/%s: %d blocks, more than the test expects of a benchmark function", m.Name, f.Name, len(f.Blocks))
			}
			if removeUnreachableBlocks(f) || hasUnreachableBlock(f) {
				t.Fatalf("%s/%s: unreachable blocks after loop-simplify", m.Name, f.Name)
			}
			got := testing.AllocsPerRun(20, func() {
				removeUnreachableBlocks(f)
				hasUnreachableBlock(f)
			})
			if got != 0 {
				t.Errorf("%s/%s (%d blocks): the reachability sweep allocates %v objects, want 0",
					m.Name, f.Name, len(f.Blocks), got)
			}
			for _, l := range loopsOf(f) {
				var changed bool
				got := testing.AllocsPerRun(20, func() { changed = dedicateExits(f, l) })
				if changed {
					t.Fatalf("%s/%s: dedicateExits changed a loop-simplified function", m.Name, f.Name)
				}
				if got != 0 {
					t.Errorf("%s/%s: dedicateExits allocates %v objects on a simplified loop, want 0",
						m.Name, f.Name, got)
				}
			}
		}
	}
}

// TestReachableMaskFallback: a function with more blocks than the mask
// holds is swept through Func.ReachableBlocks, and a dead block is removed
// either way.
func TestReachableMaskFallback(t *testing.T) {
	for _, n := range []int{3, 64, 65, 100} {
		f := chainFunc(n)
		if _, ok := reachableMask(f); ok != (n+1 <= 64) {
			t.Fatalf("%d blocks: mask ok=%v", n+1, ok)
		}
		if !hasUnreachableBlock(f) || !removeUnreachableBlocks(f) {
			t.Fatalf("%d blocks: the dead block was not found", n+1)
		}
		if len(f.Blocks) != n || hasUnreachableBlock(f) {
			t.Fatalf("%d blocks: %d left after the sweep, want %d all reachable", n+1, len(f.Blocks), n)
		}
	}
}

// chainFunc builds a function of n blocks, each branching to the next and
// the last returning, plus one dead block that branches into the chain.
func chainFunc(n int) *ir.Func {
	f := ir.NewModule("chain").NewFunc("main", ir.I32)
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		blocks[i] = f.NewBlock("b")
	}
	for i, b := range blocks {
		if i+1 < n {
			b.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{blocks[i+1]}})
		} else {
			b.Append(&ir.Instr{Op: ir.OpRet, Ty: ir.Void, Args: []ir.Value{ir.ConstInt(ir.I32, 0)}})
		}
	}
	dead := f.NewBlock("dead")
	dead.Append(&ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{blocks[n/2]}})
	return f
}
