// Package ir implements a compact LLVM-like intermediate representation used
// by the AutoPhase reproduction: typed integer SSA values, basic blocks,
// functions with allocas/loads/stores/phis, and the control-flow analyses
// (dominators, natural loops, critical edges) the transform passes need.
//
// The representation intentionally mirrors the subset of LLVM IR that the
// paper's 56 program features (Table 2) and 46 transform passes (Table 1)
// are defined over.
package ir

import "fmt"

// TypeKind discriminates the small set of first-class types.
type TypeKind uint8

// The type kinds supported by the IR.
const (
	VoidKind TypeKind = iota
	IntKind
	PtrKind
	ArrayKind
)

// Type describes a value type. Types are structural: two Types with the same
// shape are interchangeable, and the package interns the common scalar types.
type Type struct {
	Kind TypeKind
	Bits int   // IntKind: bit width (1, 8, 16, 32, 64)
	Elem *Type // PtrKind: pointee; ArrayKind: element
	Len  int   // ArrayKind: number of elements
}

// Interned scalar types.
var (
	Void = &Type{Kind: VoidKind}
	I1   = &Type{Kind: IntKind, Bits: 1}
	I8   = &Type{Kind: IntKind, Bits: 8}
	I16  = &Type{Kind: IntKind, Bits: 16}
	I32  = &Type{Kind: IntKind, Bits: 32}
	I64  = &Type{Kind: IntKind, Bits: 64}
)

// intNames and intPtrNames spell the interned integer types and pointers to
// them, so String does not format them: value numbering keys every
// instruction by its type's name.
var intNames, intPtrNames = [65]string{1: "i1", 8: "i8", 16: "i16", 32: "i32", 64: "i64"},
	[65]string{1: "i1*", 8: "i8*", 16: "i16*", 32: "i32*", 64: "i64*"}

// IntType returns the interned integer type of the given width.
func IntType(bits int) *Type {
	switch bits {
	case 1:
		return I1
	case 8:
		return I8
	case 16:
		return I16
	case 32:
		return I32
	case 64:
		return I64
	default:
		return &Type{Kind: IntKind, Bits: bits}
	}
}

// PointerTo returns a pointer type to elem.
func PointerTo(elem *Type) *Type { return &Type{Kind: PtrKind, Elem: elem} }

// ArrayOf returns an array type of n elements of elem.
func ArrayOf(elem *Type, n int) *Type {
	return &Type{Kind: ArrayKind, Elem: elem, Len: n}
}

// IsInt reports whether t is an integer type.
func (t *Type) IsInt() bool { return t != nil && t.Kind == IntKind }

// IsPtr reports whether t is a pointer type.
func (t *Type) IsPtr() bool { return t != nil && t.Kind == PtrKind }

// IsVoid reports whether t is the void type.
func (t *Type) IsVoid() bool { return t == nil || t.Kind == VoidKind }

// Equal reports structural type equality.
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case VoidKind:
		return true
	case IntKind:
		return t.Bits == o.Bits
	case PtrKind:
		return t.Elem.Equal(o.Elem)
	case ArrayKind:
		return t.Len == o.Len && t.Elem.Equal(o.Elem)
	}
	return false
}

// String renders the type in LLVM-like syntax.
func (t *Type) String() string {
	if t == nil {
		return "void"
	}
	switch t.Kind {
	case VoidKind:
		return "void"
	case IntKind:
		if t.Bits >= 0 && t.Bits < len(intNames) && intNames[t.Bits] != "" {
			return intNames[t.Bits]
		}
		return fmt.Sprintf("i%d", t.Bits)
	case PtrKind:
		if e := t.Elem; e.IsInt() && e.Bits >= 0 && e.Bits < len(intPtrNames) && intPtrNames[e.Bits] != "" {
			return intPtrNames[e.Bits]
		}
		return t.Elem.String() + "*"
	case ArrayKind:
		return fmt.Sprintf("[%d x %s]", t.Len, t.Elem.String())
	}
	return "?"
}

// Mask returns the bit mask for an integer type, e.g. 0xFF for i8.
func (t *Type) Mask() uint64 {
	if !t.IsInt() {
		return ^uint64(0)
	}
	if t.Bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(t.Bits)) - 1
}

// MinVal returns the smallest value TruncVal can produce for t
// (the most negative canonical value of the width).
func (t *Type) MinVal() int64 {
	if !t.IsInt() || t.Bits >= 64 {
		return -1 << 63
	}
	return -(int64(1) << uint(t.Bits-1))
}

// MaxVal returns the largest value TruncVal can produce for t.
func (t *Type) MaxVal() int64 {
	if !t.IsInt() || t.Bits >= 64 {
		return 1<<63 - 1
	}
	return int64(1)<<uint(t.Bits-1) - 1
}

// TruncVal truncates v to the width of the integer type t and sign-extends
// the result back to 64 bits, matching two's-complement wraparound.
func (t *Type) TruncVal(v int64) int64 {
	if !t.IsInt() || t.Bits >= 64 {
		return v
	}
	u := uint64(v) & t.Mask()
	sign := uint64(1) << uint(t.Bits-1)
	if u&sign != 0 {
		u |= ^t.Mask()
	}
	return int64(u)
}
