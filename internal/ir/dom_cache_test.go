package ir_test

import (
	"fmt"
	"sync"
	"testing"

	"autophase/internal/ir"
	"autophase/internal/progen"
)

// sameAnalyses reports how dt and loops differ from a fresh NewDomTree and
// FindLoops of f's current CFG: reverse postorder, every block's idom,
// reachability and predecessors, and every loop's header, body, latches,
// nesting and depth.
func sameAnalyses(f *ir.Func, dt *ir.DomTree, loops []*ir.Loop) error {
	ref := ir.NewDomTree(f)
	if got, want := names(dt.RPO()), names(ref.RPO()); got != want {
		return fmt.Errorf("RPO %s, fresh %s", got, want)
	}
	for _, b := range f.Blocks {
		if dt.IDom(b) != ref.IDom(b) || dt.Reachable(b) != ref.Reachable(b) {
			return fmt.Errorf("block %s: idom %v reachable %v, fresh %v %v",
				b.Name, dt.IDom(b), dt.Reachable(b), ref.IDom(b), ref.Reachable(b))
		}
		if got, want := names(dt.Preds(b)), names(ref.Preds(b)); got != want {
			return fmt.Errorf("block %s: preds %s, fresh %s", b.Name, got, want)
		}
	}
	refLoops := ir.FindLoops(f, ref)
	if len(loops) != len(refLoops) {
		return fmt.Errorf("%d loops, fresh %d", len(loops), len(refLoops))
	}
	for i, l := range loops {
		r := refLoops[i]
		if l.Header != r.Header || names(l.Body) != names(r.Body) || names(l.Latches) != names(r.Latches) ||
			l.Depth != r.Depth || (l.Parent == nil) != (r.Parent == nil) ||
			l.Parent != nil && l.Parent.Header != r.Parent.Header {
			return fmt.Errorf("loop %d: header %s body %s latches %s depth %d, fresh %s %s %s %d",
				i, l.Header.Name, names(l.Body), names(l.Latches), l.Depth,
				r.Header.Name, names(r.Body), names(r.Latches), r.Depth)
		}
	}
	return nil
}

func names(bs []*ir.Block) string {
	s := "["
	for i, b := range bs {
		if i > 0 {
			s += " "
		}
		s += b.Name
	}
	return s + "]"
}

const cacheSrc = `define i32 @main(i32 %x) {
entry:
  %c = icmp slt i32 %x, 10
  br label %head
head:
  %d = add i32 %x, 1
  br i1 %c, label %body, label %exit
body:
  br label %head
dead:
  br label %exit
exit:
  ret i32 %x
}
`

// TestDomCacheEdits: after each CFG edit, Dom and Loops return a new tree
// and loops equal to fresh ones, and the tree returned before the edit is
// unchanged. After an edit that leaves the CFG alone they return the same
// tree and loops, without building anything.
func TestDomCacheEdits(t *testing.T) {
	br := func(to *ir.Block) *ir.Instr {
		return &ir.Instr{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{to}}
	}
	replaceTerm := func(b *ir.Block, in *ir.Instr) {
		b.Remove(b.Term())
		b.Append(in)
	}
	for _, tc := range []struct {
		name      string
		edit      func(f *ir.Func, blk map[string]*ir.Block)
		cfgChange bool
	}{
		{"retarget one branch edge", func(f *ir.Func, blk map[string]*ir.Block) {
			blk["head"].Term().ReplaceTarget(blk["body"], blk["dead"])
		}, true},
		{"swap two blocks", func(f *ir.Func, blk map[string]*ir.Block) {
			// exit's predecessors and the loop body follow block order.
			f.Blocks[1], f.Blocks[3] = f.Blocks[3], f.Blocks[1]
		}, true},
		{"add a block", func(f *ir.Func, blk map[string]*ir.Block) {
			f.NewBlock("late").Append(br(blk["exit"]))
		}, true},
		{"remove a block", func(f *ir.Func, blk map[string]*ir.Block) {
			f.RemoveBlock(blk["dead"])
		}, true},
		{"replace a terminator", func(f *ir.Func, blk map[string]*ir.Block) {
			replaceTerm(blk["body"], &ir.Instr{Op: ir.OpRet, Ty: ir.Void, Args: []ir.Value{f.Params[0]}})
		}, true},
		{"add and remove instructions", func(f *ir.Func, blk map[string]*ir.Block) {
			h := blk["head"]
			h.Remove(h.Instrs[0])
			h.InsertBeforeTerm(&ir.Instr{Op: ir.OpMul, Ty: ir.I32, Args: []ir.Value{f.Params[0], f.Params[0]}})
		}, false},
		{"rebuild a terminator with the same targets", func(f *ir.Func, blk map[string]*ir.Block) {
			replaceTerm(blk["body"], br(blk["head"]))
		}, false},
	} {
		for _, loopsFirst := range []bool{false, true} {
			m, err := ir.Parse(cacheSrc)
			if err != nil {
				t.Fatal(err)
			}
			f := m.Funcs[0]
			blk := map[string]*ir.Block{}
			for _, b := range f.Blocks {
				blk[b.Name] = b
			}
			// Either order leaves one record: the tree Dom returns is the
			// one the loops were found with.
			if loopsFirst {
				f.Loops()
			} else {
				f.Dom()
			}
			loops0 := f.Loops()
			dt0 := f.Dom()
			if len(loops0) != 1 || loops0[0].Dom() != dt0 || f.Dom() != dt0 {
				t.Fatalf("%s: Loops = %d loops found with another tree than Dom's", tc.name, len(loops0))
			}
			rpo0 := names(dt0.RPO())
			tc.edit(f, blk)
			dt, loops := f.Dom(), f.Loops()
			if err := sameAnalyses(f, dt, loops); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if got := names(dt0.RPO()); got != rpo0 {
				t.Fatalf("%s: tree built before the edit changed its RPO from %s to %s", tc.name, rpo0, got)
			}
			if tc.cfgChange == (dt == dt0) {
				t.Fatalf("%s: Dom returned the same tree %v, want %v", tc.name, dt == dt0, !tc.cfgChange)
			}
			if !tc.cfgChange && (len(loops) != len(loops0) || loops[0] != loops0[0]) {
				t.Fatalf("%s: Loops found the loops again", tc.name)
			}
			if len(loops) > 0 && loops[0].Dom() != f.Dom() {
				t.Fatalf("%s: loops found with another tree than Dom's", tc.name)
			}
		}
	}
}

// TestDomCacheSealDrops: Seal forgets the analyses of the functions the
// module owns and leaves borrowed functions alone.
func TestDomCacheSealDrops(t *testing.T) {
	parent := progen.Benchmark("matmul")
	borrowed := parent.Funcs[0]
	dtBorrowed := borrowed.Dom()
	m := parent.CloneCOW()
	owned := m.Materialize(m.Funcs[len(m.Funcs)-1])
	dtOwned := owned.Dom()
	m.Seal()
	if owned.Dom() == dtOwned {
		t.Fatal("Seal kept an owned function's tree")
	}
	if borrowed.Dom() != dtBorrowed {
		t.Fatal("Seal dropped a borrowed function's tree")
	}
	full := parent.Clone()
	dt := full.Funcs[0].Dom()
	full.Seal()
	if full.Funcs[0].Dom() == dt {
		t.Fatal("Seal kept a tree on a module that owns every function")
	}
}

// TestDomCacheConcurrent: compiles that borrow one function read its
// analyses at the same time; run under -race.
func TestDomCacheConcurrent(t *testing.T) {
	parent := progen.Benchmark("matmul")
	var f *ir.Func
	for _, g := range parent.Funcs {
		if len(ir.FindLoops(g, ir.NewDomTree(g))) > 0 {
			f = g
			break
		}
	}
	if f == nil {
		t.Fatal("matmul has no function with loops")
	}
	want := ir.FindLoops(f, ir.NewDomTree(f))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(m *ir.Module) {
			defer wg.Done()
			bf := m.Func(f.Name)
			if bf != f || !m.IsShared(bf) {
				errs <- fmt.Errorf("%s is not borrowed", f.Name)
				return
			}
			for i := 0; i < 50; i++ {
				dt, loops := bf.Dom(), bf.Loops()
				if len(loops) != len(want) {
					errs <- fmt.Errorf("%d loops, want %d", len(loops), len(want))
					return
				}
				if err := sameAnalyses(bf, dt, loops); err != nil {
					errs <- err
					return
				}
				m.Seal()
			}
		}(parent.CloneCOW())
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
