package ir

import (
	"fmt"
	"sync/atomic"
)

// FuncAttrs carries the interprocedural attributes the -functionattrs pass
// derives and that enabling passes (licm, early-cse, gvn) consume.
type FuncAttrs struct {
	ReadOnly bool // does not write memory
	ReadNone bool // does not read or write memory (pure)
	NoTrap   bool // free of potentially trapping operations (speculatable)
	NoInline bool // inliner must skip this function
	Stripped bool // -strip has removed local value names
}

// Func is a function: an ordered list of basic blocks, the first of which is
// the entry block.
type Func struct {
	Name   string
	Params []*Param
	Ret    *Type
	Blocks []*Block
	Attrs  FuncAttrs

	module *Module
	// dom is the last dominator tree (with its loops, once asked for)
	// built by Dom or Loops; see there.
	dom atomic.Pointer[DomTree]
}

// Module returns the containing module.
func (f *Func) Module() *Module { return f.module }

// Entry returns the entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a fresh block with the given name.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Name: name, parent: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// AddBlockAfter inserts block nb immediately after pos in the block list.
func (f *Func) AddBlockAfter(nb *Block, pos *Block) {
	nb.parent = f
	for i, b := range f.Blocks {
		if b == pos {
			f.Blocks = append(f.Blocks, nil)
			copy(f.Blocks[i+2:], f.Blocks[i+1:])
			f.Blocks[i+1] = nb
			return
		}
	}
	f.Blocks = append(f.Blocks, nb)
}

// RemoveBlock detaches b from the function, dropping phi entries in
// successors that referenced it.
func (f *Func) RemoveBlock(b *Block) {
	for _, s := range b.Succs() {
		for _, phi := range s.Phis() {
			phi.RemovePhiIncoming(b)
		}
	}
	for i, x := range f.Blocks {
		if x == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			return
		}
	}
}

// Number makes each instruction's number its position in f's block order
// and returns the instruction count. It writes only the numbers that are
// stale, so numbering a function that is already numbered only reads it:
// concurrent readers of a published function, which Seal, cloning and
// core.NewProgram leave numbered, never write (DESIGN "Instruction
// numbers"). A number says nothing about membership on its own: an
// instruction built after the last numbering, or outside f, carries a
// stale or zero number, so a table indexed by numbers must check each
// slot against its own instruction.
func (f *Func) Number() int {
	n := int32(0)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.id != n {
				in.id = n
			}
			n++
		}
	}
	return int(n)
}

// locate returns the block position and in-block offset of x in f, or
// ok=false when x is not one of f's instructions. f must be numbered and
// unchanged since: the block is found by binary search on the numbers of
// the blocks' first instructions, and every answer is checked against
// f's own blocks, so an instruction from elsewhere is never mistaken for
// one of f's.
func (f *Func) locate(x *Instr) (bi, j int, ok bool) {
	b := x.parent
	if b == nil || b.parent != f || len(b.Instrs) == 0 {
		return 0, 0, false
	}
	bi, ok = f.blockPos(b)
	if !ok {
		return 0, 0, false
	}
	j = int(x.id - b.Instrs[0].id)
	if j < 0 || j >= len(b.Instrs) || b.Instrs[j] != x {
		return 0, 0, false
	}
	return bi, j, true
}

// blockPos returns b's position in f.Blocks; f must be numbered and
// unchanged since. Blocks are in number order, so a non-empty block is
// found by binary search on the number of its first instruction; an empty
// block, or one the search misses, is looked for by a scan.
func (f *Func) blockPos(b *Block) (int, bool) {
	if len(b.Instrs) > 0 {
		key := b.Instrs[0].id
		lo, hi := 0, len(f.Blocks)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			mb := f.Blocks[mid]
			if len(mb.Instrs) == 0 {
				break
			}
			switch k := mb.Instrs[0].id; {
			case k < key:
				lo = mid + 1
			case k > key:
				hi = mid
			default:
				if mb == b {
					return mid, true
				}
				lo = hi // an empty block shares its successor's key
			}
		}
	}
	for i, x := range f.Blocks {
		if x == b {
			return i, true
		}
	}
	return 0, false
}

// NumInstrs counts the instructions in the function.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// ForEachInstr invokes fn for every instruction in block order.
func (f *Func) ForEachInstr(fn func(*Block, *Instr)) {
	for _, b := range f.Blocks {
		// Copy: fn may mutate the instruction list.
		instrs := append([]*Instr(nil), b.Instrs...)
		for _, in := range instrs {
			fn(b, in)
		}
	}
}

// ReplaceAllUses rewrites every operand use of old with new across the
// function.
func (f *Func) ReplaceAllUses(old, new Value) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.ReplaceUses(old, new)
		}
	}
}

// UseCount returns the number of operand slots referencing v.
func (f *Func) UseCount(v Value) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == v {
					n++
				}
			}
		}
	}
	return n
}

// Uses returns every instruction referencing v as an operand.
func (f *Func) Uses(v Value) []*Instr {
	var uses []*Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == v {
					uses = append(uses, in)
					break
				}
			}
		}
	}
	return uses
}

// ReachableBlocks returns the set of blocks reachable from entry.
func (f *Func) ReachableBlocks() map[*Block]bool {
	reach := make(map[*Block]bool, len(f.Blocks))
	if len(f.Blocks) == 0 {
		return reach
	}
	stack := make([]*Block, 1, len(f.Blocks)) // each block is pushed once
	stack[0] = f.Entry()
	reach[f.Entry()] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	return reach
}

// Module is a set of functions and globals; the unit the pass manager and
// the HLS backend operate on.
type Module struct {
	Name    string
	Funcs   []*Func
	Globals []*Global

	// cow tracks copy-on-write state for modules created by CloneCOW: which
	// functions are still borrowed from the parent module (and must not be
	// mutated), and which parent functions have been replaced by owned
	// clones. nil on wholly-owned modules.
	cow *cowState
}

// NewModule returns an empty module.
func NewModule(name string) *Module { return &Module{Name: name} }

// NewFunc appends a function with the given signature.
func (m *Module) NewFunc(name string, ret *Type, params ...*Type) *Func {
	f := &Func{Name: name, Ret: ret, module: m}
	for i, pt := range params {
		f.Params = append(f.Params, &Param{Name: fmt.Sprintf("arg%d", i), Ty: pt, Parent: f, Index: i})
	}
	m.Funcs = append(m.Funcs, f)
	return f
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// NewGlobal appends a global with initializer data.
func (m *Module) NewGlobal(name string, elem *Type, init []int64, readonly bool) *Global {
	g := &Global{Name: name, Elem: elem, Init: init, ReadOnly: readonly}
	m.Globals = append(m.Globals, g)
	return g
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// RemoveFunc detaches function f from the module.
func (m *Module) RemoveFunc(f *Func) {
	for i, x := range m.Funcs {
		if x == f {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			return
		}
	}
}

// RemoveGlobal detaches global g from the module.
func (m *Module) RemoveGlobal(g *Global) {
	for i, x := range m.Globals {
		if x == g {
			m.Globals = append(m.Globals[:i], m.Globals[i+1:]...)
			return
		}
	}
}

// NumInstrs counts instructions across all functions.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// PrependBlock inserts b as the new entry block and adopts it into f.
func (f *Func) PrependBlock(b *Block) {
	b.parent = f
	f.Blocks = append([]*Block{b}, f.Blocks...)
}
