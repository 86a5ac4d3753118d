package ir

import "fmt"

// Value is anything that can appear as an instruction operand: constants,
// function parameters, globals, and instructions themselves.
type Value interface {
	// Type returns the value's type.
	Type() *Type
	// Ref renders the operand reference form (e.g. "%v3", "42", "@tab").
	Ref() string
}

// Const is an integer constant of a particular type.
type Const struct {
	Ty  *Type
	Val int64
}

// ConstInt returns a constant of the given integer type, truncated to the
// type's width.
func ConstInt(ty *Type, v int64) *Const { return &Const{Ty: ty, Val: ty.TruncVal(v)} }

// Type implements Value.
func (c *Const) Type() *Type { return c.Ty }

// Ref implements Value.
func (c *Const) Ref() string { return fmt.Sprintf("%d", c.Val) }

// IsConst reports whether v is an integer constant, returning its value.
func IsConst(v Value) (int64, bool) {
	c, ok := v.(*Const)
	if !ok {
		return 0, false
	}
	return c.Val, true
}

// IsConstVal reports whether v is the integer constant k.
func IsConstVal(v Value, k int64) bool {
	c, ok := IsConst(v)
	return ok && c == k
}

// Param is a formal function parameter.
type Param struct {
	Name   string
	Ty     *Type
	Parent *Func
	Index  int
}

// Type implements Value.
func (p *Param) Type() *Type { return p.Ty }

// Ref implements Value.
func (p *Param) Ref() string { return "%" + p.Name }

// Global is a module-level array (or scalar) with optional constant
// initializer data. Its value is the address of the storage, so its type is
// a pointer to Elem.
type Global struct {
	Name     string
	Elem     *Type   // the allocated type (array or scalar int)
	Init     []int64 // initial element values (len 1 for scalar); nil = zero
	ReadOnly bool    // constant data (enables globalopt folding)
}

// Type implements Value; a global evaluates to the address of its storage.
// Array globals decay to a pointer to their element type, exactly like
// array allocas (the GEP/load/store type discipline is element-wise).
func (g *Global) Type() *Type {
	if g.Elem.Kind == ArrayKind {
		return PointerTo(g.Elem.Elem)
	}
	return PointerTo(g.Elem)
}

// Ref implements Value.
func (g *Global) Ref() string { return "@" + g.Name }

// NumElems returns the number of scalar cells the global occupies.
func (g *Global) NumElems() int {
	if g.Elem.Kind == ArrayKind {
		return g.Elem.Len
	}
	return 1
}

// Undef is an undefined value of a given type, produced e.g. when deleting
// instructions whose results are still (dead-)referenced, mirroring LLVM's
// undef.
type Undef struct{ Ty *Type }

// Type implements Value.
func (u *Undef) Type() *Type { return u.Ty }

// Ref implements Value.
func (u *Undef) Ref() string { return "undef" }
