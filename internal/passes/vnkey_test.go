package passes

import (
	"testing"
	"unsafe"

	"autophase/internal/ir"
)

// TestVNKeyFitsMapSlot: a Go map keeps keys of up to 128 bytes in its
// tables and allocates every larger key on its own, which would cost the
// CSE family one allocation per available expression. With each operand a
// kind and a number the key is 80 bytes, and every byte is paid once per
// table slot.
func TestVNKeyFitsMapSlot(t *testing.T) {
	if n := unsafe.Sizeof(vnKey{}); n > 80 {
		t.Fatalf("vnKey is %d bytes, want at most 80", n)
	}
}

// TestLessValueIgnoresNumbers: commutative canonicalization orders values
// as their references would sort with every unnamed instruction spelled %0,
// before and after printing numbers the function, so printing a module
// between passes cannot change what a pass does.
func TestLessValueIgnoresNumbers(t *testing.T) {
	m := ir.NewModule("m")
	g := m.NewGlobal("tab", ir.I32, nil, false)
	f := m.NewFunc("f", ir.I32, ir.I32, ir.I32)
	bld := ir.NewBuilder()
	bld.SetInsert(f.NewBlock("entry"))
	u0 := bld.Add(f.Params[0], f.Params[1])
	u1 := bld.Add(u0, f.Params[1])
	u2 := bld.Add(u1, u0)
	named := bld.Add(u2, u1)
	named.Name = "x"
	long := bld.Add(named, u2)
	long.Name = "a.very.long.value.name.that.outgrows.any.stack.buffer"
	bld.Ret(long)
	vals := []ir.Value{u0, u1, u2, named, long, f.Params[0], f.Params[1], g,
		ir.ConstInt(ir.I32, -5), ir.ConstInt(ir.I32, 42), &ir.Undef{Ty: ir.I32}}
	ref := func(v ir.Value) string {
		if in, ok := v.(*ir.Instr); ok && in.Name == "" {
			return "%0"
		}
		return v.Ref()
	}
	want := func(a, b ir.Value) bool {
		ca, aok := ir.IsConst(a)
		cb, bok := ir.IsConst(b)
		switch {
		case aok && bok:
			return ca < cb
		case aok != bok:
			return aok
		}
		return ref(a) < ref(b)
	}
	for _, printed := range []bool{false, true} {
		if printed {
			_ = f.String()
		}
		for _, a := range vals {
			for _, b := range vals {
				if got := lessValue(a, b); got != want(a, b) {
					t.Errorf("printed=%v: lessValue(%s, %s) = %v, want %v", printed, a.Ref(), b.Ref(), got, want(a, b))
				}
			}
		}
	}
}
