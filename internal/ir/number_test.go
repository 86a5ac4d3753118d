package ir

import "testing"

// numberedAsPositions reports whether every instruction's number is its
// position in f's block order.
func numberedAsPositions(f *Func) bool {
	k := int32(0)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.id != k {
				return false
			}
			k++
		}
	}
	return true
}

// TestNumber: Number makes numbers positions again after an edit; a clone
// carries its source's numbers, and Seal numbers what the module owns.
func TestNumber(t *testing.T) {
	m, f := buildLoop()
	if n := f.Number(); n != f.NumInstrs() || !numberedAsPositions(f) {
		t.Fatalf("Number returned %d for %d instructions", n, f.NumInstrs())
	}
	body := f.Blocks[2]
	extra := &Instr{Op: OpAdd, Ty: I32, Args: []Value{ConstInt(I32, 1), ConstInt(I32, 2)}}
	body.InsertBefore(extra, body.Instrs[0])
	if numberedAsPositions(f) {
		t.Fatal("an inserted instruction should leave the numbers stale")
	}
	f.Number()
	if !numberedAsPositions(f) {
		t.Fatal("Number left stale numbers")
	}

	c := m.Clone()
	if !numberedAsPositions(c.Funcs[0]) {
		t.Fatal("a clone is not numbered")
	}
	cow := m.CloneCOW()
	nf := cow.Materialize(cow.Funcs[0])
	nf.Blocks[2].Remove(nf.Blocks[2].Instrs[0])
	cow.Seal()
	if !numberedAsPositions(nf) {
		t.Fatal("Seal left an owned function unnumbered")
	}
}

// TestLocateChecksIdentity: a number alone does not make an instruction a
// member. A copy (number 0), an instruction removed from f and one of
// another function are all rejected, however their numbers read.
func TestLocateChecksIdentity(t *testing.T) {
	_, f := buildLoop()
	f.Number()
	for bi, b := range f.Blocks {
		for j, in := range b.Instrs {
			if gbi, gj, ok := f.locate(in); !ok || gbi != bi || gj != j {
				t.Fatalf("locate(%s) = %d, %d, %v, want %d, %d", in.Op, gbi, gj, ok, bi, j)
			}
		}
	}
	first := f.Blocks[0].Instrs[0]
	if _, _, ok := f.locate(first.Copy()); ok {
		t.Error("a copy with number 0 was located")
	}
	_, g := buildLoop()
	g.Number()
	if _, _, ok := f.locate(g.Blocks[1].Instrs[1]); ok {
		t.Error("another function's instruction was located")
	}
	header := f.Blocks[1]
	cmp := header.Instrs[1]
	header.Remove(cmp)
	cmp.parent = header // a pass that drops an instruction without detaching it
	if _, _, ok := f.locate(cmp); ok {
		t.Error("a removed instruction was located")
	}
}
