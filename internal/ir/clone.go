package ir

// Clone deep-copies the module. Search algorithms evaluate each candidate
// pass sequence on a fresh clone of the original program.
func (m *Module) Clone() *Module {
	nm := NewModule(m.Name)
	gmap := make(map[*Global]*Global, len(m.Globals))
	for _, g := range m.Globals {
		ng := nm.NewGlobal(g.Name, g.Elem, append([]int64(nil), g.Init...), g.ReadOnly)
		gmap[g] = ng
	}
	fmap := make(map[*Func]*Func, len(m.Funcs))
	for _, f := range m.Funcs {
		nf := &Func{Name: f.Name, Ret: f.Ret, Attrs: f.Attrs, module: nm}
		for _, p := range f.Params {
			nf.Params = append(nf.Params, &Param{Name: p.Name, Ty: p.Ty, Parent: nf, Index: p.Index})
		}
		nm.Funcs = append(nm.Funcs, nf)
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
	nf := &Func{Name: newName, Ret: f.Ret, Attrs: f.Attrs, module: m}
	for _, p := range f.Params {
		nf.Params = append(nf.Params, &Param{Name: p.Name, Ty: p.Ty, Parent: nf, Index: p.Index})
	}
	m.Funcs = append(m.Funcs, nf)
	fmap := map[*Func]*Func{f: nf}
	cloneFuncInto(f, nf, fmap, nil)
	// Self-recursive calls should target the clone; other callees unchanged.
	return nf
}

// cloneFuncInto copies f's body into nf. Every slice is allocated once at
// its exact length and both maps are presized, so nothing regrows.
func cloneFuncInto(f, nf *Func, fmap map[*Func]*Func, gmap map[*Global]*Global) {
	bmap := make(map[*Block]*Block, len(f.Blocks))
	nf.Blocks = make([]*Block, len(f.Blocks))
	n := 0
	for i, b := range f.Blocks {
		nb := &Block{Name: b.Name, parent: nf, Instrs: make([]*Instr, len(b.Instrs))}
		nf.Blocks[i] = nb
		bmap[b] = nb
		n += len(b.Instrs)
	}
	imap := make(map[*Instr]*Instr, n)
	for i, b := range f.Blocks {
		nb := nf.Blocks[i]
		for j, in := range b.Instrs {
			ni := &Instr{
				Op: in.Op, Ty: in.Ty, Name: in.Name, Pred: in.Pred,
				AllocTy: in.AllocTy, BranchWeight: in.BranchWeight,
				Cases:  append([]int64(nil), in.Cases...),
				parent: nb,
			}
			if in.Callee != nil {
				if nc, ok := fmap[in.Callee]; ok {
					ni.Callee = nc
				} else {
					ni.Callee = in.Callee
				}
			}
			if len(in.Blocks) > 0 {
				ni.Blocks = make([]*Block, len(in.Blocks))
				for k, t := range in.Blocks {
					ni.Blocks[k] = bmap[t]
				}
			}
			ni.Args = make([]Value, len(in.Args))
			imap[in] = ni
			nb.Instrs[j] = ni
		}
	}
	// Second sweep: remap operands now that every instruction exists.
	remap := func(v Value) Value {
		switch x := v.(type) {
		case *Instr:
			if ni, ok := imap[x]; ok {
				return ni
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
