package ir

import (
	"fmt"
	"math/bits"
	"slices"
)

// Fingerprint is a 128-bit structural hash of a module. It is canonical in
// the sense the compile cache needs: order-independent over local value
// names (instruction, block, parameter and global names do not contribute;
// -strip and -strip-nondebug leave everything they touch at a distinct
// fingerprint only through the Stripped attribute bit), and order-dependent
// over everything that determines profiles, features and future pass
// behaviour — function names (interp resolves "main" by name), signatures
// and attributes, block order, instruction order, opcodes, types, operand
// identity (positional, not nominal), branch targets, switch cases and
// global data.
//
// Two sequences whose IRs share a fingerprint share one profiler sample, so
// a collision would silently alias their results. The hash is a 128-bit
// FNV-1a variant (word-at-a-time), making accidental collisions vanishingly
// unlikely; the fuzz cross-check in internal/passes exercises the equality
// contract against full ir.Print equality.
type Fingerprint struct {
	Hi, Lo uint64
}

// IsZero reports whether fp is the zero fingerprint (never produced by
// Module.Fingerprint, which hashes at least the offset basis).
func (fp Fingerprint) IsZero() bool { return fp.Hi == 0 && fp.Lo == 0 }

// String renders the fingerprint as 32 hex digits.
func (fp Fingerprint) String() string { return fmt.Sprintf("%016x%016x", fp.Hi, fp.Lo) }

// FNV-128 offset basis and prime (2^88 + 2^8 + 0x3b).
const (
	fnvBasisHi = 0x6c62272e07bb0142
	fnvBasisLo = 0x62b821756295c58d
	fnvPrimeLo = 0x3b
)

// fpHasher is the streaming 128-bit accumulator: xor a word into the low
// half, multiply the 128-bit state by the FNV-128 prime.
type fpHasher struct {
	hi, lo uint64
}

func (h *fpHasher) word(x uint64) {
	lo := h.lo ^ x
	hi := h.hi
	// (hi,lo) * (2^88 + 2^8 + 0x3b) mod 2^128.
	mHi, mLo := bits.Mul64(lo, fnvPrimeLo)
	mHi += hi * fnvPrimeLo
	var c uint64
	mLo, c = bits.Add64(mLo, lo<<8, 0)
	mHi, _ = bits.Add64(mHi, hi<<8|lo>>56, c)
	mHi += lo << 24 // (hi,lo)<<88: only lo<<24 survives in the high half
	h.hi, h.lo = mHi, mLo
}

func (h *fpHasher) str(s string) {
	h.word(uint64(len(s)))
	var acc uint64
	n := 0
	for i := 0; i < len(s); i++ {
		acc = acc<<8 | uint64(s[i])
		if n++; n == 8 {
			h.word(acc)
			acc, n = 0, 0
		}
	}
	if n > 0 {
		h.word(acc)
	}
}

func (h *fpHasher) typ(t *Type) {
	if t == nil {
		h.word(^uint64(0))
		return
	}
	h.word(uint64(t.Kind)<<32 | uint64(uint32(t.Bits)))
	switch t.Kind {
	case PtrKind:
		h.typ(t.Elem)
	case ArrayKind:
		h.word(uint64(t.Len))
		h.typ(t.Elem)
	}
}

// Operand tags; distinct from any Op or TypeKind ranges only by position in
// the stream, which the length-prefixed layout makes unambiguous.
const (
	fpTagNil = iota
	fpTagConst
	fpTagParam
	fpTagInstr
	fpTagGlobal
	fpTagUndef
	fpTagForeign // operand from outside the function (ill-formed IR)
	fpNone       = ^uint64(0)
)

// Fingerprint computes the module's structural fingerprint in one streaming
// sweep (no intermediate serialization) and allocates nothing. Positions
// come from the instruction numbers (Func.Number, which only reads a
// function that is already numbered) and from scans of the module's short
// global and function lists. Safe to call concurrently on a module that is
// not being mutated and whose functions are numbered, as every published
// module is. On a copy-on-write module that is not sealed yet, a call to a
// replaced function hashes as a call to its replacement, so the
// fingerprint already equals the sealed module's.
func (m *Module) Fingerprint() Fingerprint {
	h := fpHasher{hi: fnvBasisHi, lo: fnvBasisLo}
	var remap map[*Func]*Func
	if m.cow != nil {
		remap = m.cow.remap
	}

	h.word(uint64(len(m.Funcs))<<32 | uint64(len(m.Globals)))
	for _, g := range m.Globals {
		// Global names are symbol information only; identity is positional.
		h.typ(g.Elem)
		ro := uint64(0)
		if g.ReadOnly {
			ro = 1
		}
		h.word(ro<<32 | uint64(len(g.Init)))
		for _, v := range g.Init {
			h.word(uint64(v))
		}
	}

	for _, f := range m.Funcs {
		h.str(f.Name) // semantic: "main" lookup and call-graph identity
		h.word(attrsBits(f.Attrs))
		h.typ(f.Ret)
		h.word(uint64(len(f.Params)))
		for _, p := range f.Params {
			h.typ(p.Ty)
		}
		hashFuncBody(&h, m, f, remap)
	}
	return Fingerprint{Hi: h.hi, Lo: h.lo}
}

func attrsBits(a FuncAttrs) uint64 {
	var b uint64
	if a.ReadOnly {
		b |= 1
	}
	if a.ReadNone {
		b |= 2
	}
	if a.NoTrap {
		b |= 4
	}
	if a.NoInline {
		b |= 8
	}
	if a.Stripped {
		b |= 16
	}
	return b
}

// hashFuncBody hashes f's body. Blocks and instructions are identified by
// position: an instruction's number once f is numbered, a block's found
// through the numbers (Func.locate, Func.blockPos).
func hashFuncBody(h *fpHasher, m *Module, f *Func, remap map[*Func]*Func) {
	f.Number()
	h.word(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		h.word(uint64(len(b.Instrs)))
		for _, in := range b.Instrs {
			h.word(uint64(in.Op)<<32 | uint64(in.Pred)<<8)
			h.typ(in.Ty)
			if in.Op == OpAlloca {
				h.typ(in.AllocTy)
			}
			h.word(uint64(int64(in.BranchWeight)))
			if c := in.Callee; c != nil {
				if r, ok := remap[c]; ok {
					c = r
				}
				if ci := slices.Index(m.Funcs, c); ci >= 0 {
					h.word(uint64(ci))
				} else {
					// Callee outside the module: fall back to its name so
					// the stream stays deterministic.
					h.str(c.Name)
				}
			} else {
				h.word(fpNone)
			}
			h.word(uint64(len(in.Blocks)))
			for _, t := range in.Blocks {
				// A target outside f hashes as block 0, as it always has.
				bi := 0
				if t != nil && t.parent == f {
					bi, _ = f.blockPos(t)
				}
				h.word(uint64(bi))
			}
			h.word(uint64(len(in.Cases)))
			for _, c := range in.Cases {
				h.word(uint64(c))
			}
			h.word(uint64(len(in.Args)))
			for _, a := range in.Args {
				hashOperand(h, a, m, f)
			}
		}
	}
}

func hashOperand(h *fpHasher, v Value, m *Module, f *Func) {
	switch x := v.(type) {
	case nil:
		h.word(fpTagNil)
	case *Const:
		h.word(fpTagConst)
		h.typ(x.Ty)
		h.word(uint64(x.Val))
	case *Param:
		if x.Parent == f {
			h.word(fpTagParam)
			h.word(uint64(x.Index))
		} else {
			h.word(fpTagForeign)
			h.word(uint64(x.Index))
		}
	case *Instr:
		if _, _, ok := f.locate(x); ok {
			h.word(fpTagInstr)
			h.word(uint64(x.id))
		} else {
			h.word(fpTagForeign)
			h.word(uint64(x.Op))
		}
	case *Global:
		// A global outside the module hashes as global 0, as it always has.
		h.word(fpTagGlobal)
		h.word(uint64(max(slices.Index(m.Globals, x), 0)))
	case *Undef:
		h.word(fpTagUndef)
		h.typ(x.Ty)
	default:
		h.word(fpTagForeign)
	}
}
