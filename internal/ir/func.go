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

// Renumber assigns stable sequential ids to all instructions, used for
// printing and value-numbering.
func (f *Func) Renumber() {
	id := int32(0)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.id = id
			id++
		}
	}
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
