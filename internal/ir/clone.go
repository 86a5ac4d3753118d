package ir

// Clone deep-copies the module. Search algorithms evaluate each candidate
// pass sequence on a fresh clone of the original program.
func (m *Module) Clone() *Module {
	nm := &Module{Name: m.Name, Globals: make([]*Global, len(m.Globals)), Funcs: make([]*Func, len(m.Funcs))}
	gmap := make(map[*Global]*Global, len(m.Globals))
	for i, g := range m.Globals {
		ng := &Global{Name: g.Name, Elem: g.Elem, Init: append([]int64(nil), g.Init...), ReadOnly: g.ReadOnly}
		nm.Globals[i] = ng
		gmap[g] = ng
	}
	fmap := make(map[*Func]*Func, len(m.Funcs))
	for i, f := range m.Funcs {
		nf := cloneSignature(f, f.Name, nm)
		nm.Funcs[i] = nf
		fmap[f] = nf
	}
	for _, f := range m.Funcs {
		cloneFuncInto(f, fmap[f], fmap, gmap)
	}
	return nm
}

// CloneFunc deep-copies a single function into the same module under a new
// name (used by -loop-unswitch style cloning and the partial inliner).
func CloneFunc(f *Func, newName string) *Func {
	m := f.module
	nf := cloneSignature(f, newName, m)
	m.Funcs = append(m.Funcs, nf)
	fmap := map[*Func]*Func{f: nf}
	cloneFuncInto(f, nf, fmap, nil)
	// Self-recursive calls should target the clone; other callees unchanged.
	return nf
}

// cloneSignature returns a bodiless function in m with f's parameters,
// return type and attributes.
func cloneSignature(f *Func, name string, m *Module) *Func {
	nf := &Func{Name: name, Ret: f.Ret, Attrs: f.Attrs, module: m}
	if len(f.Params) > 0 {
		nf.Params = make([]*Param, len(f.Params))
		for i, p := range f.Params {
			nf.Params[i] = &Param{Name: p.Name, Ty: p.Ty, Parent: nf, Index: p.Index}
		}
	}
	return nf
}

// Instructions are allocated together with their operand array, and
// branches and two-way phis with their block array too: one object per
// instruction instead of two or three. Each array has exactly the operand
// count as capacity, so an append moves the operands out and can never
// write into a neighbour. Instructions never share an allocation: a live
// instruction keeps only itself alive, not the removed instructions a slab
// shared with it would (DESIGN "Allocation in the IR").
type (
	instrA1 struct {
		in   Instr
		args [1]Value
	}
	instrA2 struct {
		in   Instr
		args [2]Value
	}
	instrA3 struct {
		in   Instr
		args [3]Value
	}
	instrB1 struct { // unconditional branch
		in     Instr
		blocks [1]*Block
	}
	instrA1B2 struct { // conditional branch
		in     Instr
		args   [1]Value
		blocks [2]*Block
	}
	instrA2B2 struct { // phi with two incoming edges
		in     Instr
		args   [2]Value
		blocks [2]*Block
	}
)

// newInstr returns a zero instruction whose Args and Blocks have lengths
// and capacities nargs and nblocks, co-allocated with it where a shape
// above fits.
func newInstr(nargs, nblocks int) *Instr {
	var in *Instr
	switch {
	case nargs == 0 && nblocks == 1:
		x := &instrB1{}
		x.in.Blocks = x.blocks[:]
		return &x.in
	case nargs == 1 && nblocks == 2:
		x := &instrA1B2{}
		x.in.Args, x.in.Blocks = x.args[:], x.blocks[:]
		return &x.in
	case nargs == 2 && nblocks == 2:
		x := &instrA2B2{}
		x.in.Args, x.in.Blocks = x.args[:], x.blocks[:]
		return &x.in
	case nargs == 1:
		x := &instrA1{}
		x.in.Args = x.args[:]
		in = &x.in
	case nargs == 2:
		x := &instrA2{}
		x.in.Args = x.args[:]
		in = &x.in
	case nargs == 3:
		x := &instrA3{}
		x.in.Args = x.args[:]
		in = &x.in
	default:
		in = &Instr{}
		if nargs > 0 {
			in.Args = make([]Value, nargs)
		}
	}
	if nblocks > 0 {
		in.Blocks = make([]*Block, nblocks)
	}
	return in
}

// Copy returns a detached copy of in: the same fields, with operand, target
// and case arrays of its own, co-allocated as Module.Clone does.
func (in *Instr) Copy() *Instr {
	ni := newInstr(len(in.Args), len(in.Blocks))
	ni.Op, ni.Ty, ni.Name, ni.Pred = in.Op, in.Ty, in.Name, in.Pred
	ni.Callee, ni.AllocTy, ni.BranchWeight = in.Callee, in.AllocTy, in.BranchWeight
	copy(ni.Args, in.Args)
	copy(ni.Blocks, in.Blocks)
	if len(in.Cases) > 0 {
		ni.Cases = append([]int64(nil), in.Cases...)
	}
	return ni
}

// NewPhi returns an empty phi of type ty with room for npreds incoming
// edges, co-allocated with its operand and block arrays when npreds is 2.
func NewPhi(ty *Type, npreds int) *Instr {
	in := newInstr(npreds, npreds)
	in.Op, in.Ty = OpPhi, ty
	in.Args, in.Blocks = in.Args[:0], in.Blocks[:0]
	return in
}

// cloneFuncInto copies f's body into nf. Every slice is allocated once at
// its exact length. f is numbered first (only read when it already is, as
// a published function always is), which finds an operand's or target's
// copy by position without a map, and the copy gets f's numbers.
func cloneFuncInto(f, nf *Func, fmap map[*Func]*Func, gmap map[*Global]*Global) {
	f.Number()
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nf.Blocks[i] = &Block{Name: b.Name, parent: nf, Instrs: make([]*Instr, len(b.Instrs))}
	}
	for i, b := range f.Blocks {
		nb := nf.Blocks[i]
		for j, in := range b.Instrs {
			ni := in.Copy()
			ni.parent, ni.id = nb, in.id
			if in.Callee != nil {
				if nc, ok := fmap[in.Callee]; ok {
					ni.Callee = nc
				}
			}
			for k, t := range in.Blocks {
				// A target outside f (malformed IR) has no copy.
				if t != nil && t.parent == f {
					if ti, ok := f.blockPos(t); ok {
						ni.Blocks[k] = nf.Blocks[ti]
						continue
					}
				}
				ni.Blocks[k] = nil
			}
			nb.Instrs[j] = ni
		}
	}
	// Second sweep: remap operands now that every instruction exists.
	remap := func(v Value) Value {
		switch x := v.(type) {
		case *Instr:
			if bi, j, ok := f.locate(x); ok {
				return nf.Blocks[bi].Instrs[j]
			}
			return &Undef{Ty: x.Ty}
		case *Param:
			if x.Parent == f {
				return nf.Params[x.Index]
			}
			return x
		case *Global:
			if gmap != nil {
				if ng, ok := gmap[x]; ok {
					return ng
				}
			}
			return x
		default:
			return v
		}
	}
	for i, b := range f.Blocks {
		nb := nf.Blocks[i]
		for j, in := range b.Instrs {
			ni := nb.Instrs[j]
			for k, a := range in.Args {
				ni.Args[k] = remap(a)
			}
		}
	}
}
