package ir

// Copy-on-write module cloning. A CloneCOW module starts by borrowing every
// function and global from its parent; passes materialize (deep-copy) only
// the functions they actually rewrite, via RunOwned or Materialize. Borrowed
// functions must never be mutated — the parent is typically a published,
// immutable cache entry read concurrently by other compiles. Globals are
// borrowed forever: no pass mutates a *Global in place (they are only
// removed from, or referenced by, the module), which keeps global sharing
// free.
//
// The invariant a consumer (profiler, feature extractor, printer) needs is
// that no instruction reachable from the module references a function that
// was replaced in it. Owned functions are fixed up eagerly on every
// replacement; still-borrowed functions that call a replaced function are
// materialized by Seal, which pass pipelines run once at the end.
//
// A scratch clone that a RunOwned transformation left unchanged is kept as
// the borrowed function's spare: by the changed-reporting contract it is
// still identical to the parent, so the next RunOwned or Materialize of that
// function takes it instead of cloning again. Spares live only for the
// duration of a pass pipeline; Seal and MaterializeAll drop them. A spare
// keeps the dominator tree its passes built (Func.Dom), so the next pass
// over it reuses the tree while the CFG is unchanged.

type cowState struct {
	shared map[*Func]bool  // borrowed from the parent; must not be mutated
	remap  map[*Func]*Func // parent function -> owned replacement
	spare  map[*Func]*Func // parent function -> unchanged scratch clone
}

// CloneCOW returns a copy-on-write clone of m: a new module sharing every
// *Func and *Global with m. The parent must not be mutated afterwards (the
// compile cache's published-modules-are-immutable contract). Fingerprints of
// the clone and parent are equal until a pass changes the clone.
func (m *Module) CloneCOW() *Module {
	nm := &Module{
		Name:    m.Name,
		Funcs:   append([]*Func(nil), m.Funcs...),
		Globals: append([]*Global(nil), m.Globals...),
	}
	shared := make(map[*Func]bool, len(m.Funcs))
	for _, f := range m.Funcs {
		shared[f] = true
	}
	nm.cow = &cowState{shared: shared}
	return nm
}

// IsShared reports whether f is still borrowed from the parent module and
// must not be mutated through m.
func (m *Module) IsShared(f *Func) bool { return m.cow != nil && m.cow.shared[f] }

// cowClone deep-copies the borrowed function f for m, rerouting calls
// through every replacement recorded so far (including f itself, so direct
// recursion targets the clone).
func (m *Module) cowClone(f *Func) *Func {
	nf := cloneSignature(f, f.Name, m)
	fmap := make(map[*Func]*Func, len(m.cow.remap)+1)
	for o, n := range m.cow.remap {
		fmap[o] = n
	}
	fmap[f] = nf
	cloneFuncInto(f, nf, fmap, nil)
	return nf
}

// scratch returns a private copy of the borrowed function f: its spare when
// one is kept (removing it, so a transformation that panics midway cannot
// leave a half-rewritten spare behind), a fresh clone otherwise.
func (m *Module) scratch(f *Func) *Func {
	if nf, ok := m.cow.spare[f]; ok {
		delete(m.cow.spare, f)
		return nf
	}
	return m.cowClone(f)
}

// install replaces borrowed old with owned nf in the function list, records
// the remapping, and reroutes calls to old inside every already-owned
// function and every spare (they may have been cloned before old was
// replaced).
func (m *Module) install(old, nf *Func) {
	for i, x := range m.Funcs {
		if x == old {
			m.Funcs[i] = nf
			break
		}
	}
	delete(m.cow.shared, old)
	if m.cow.remap == nil {
		m.cow.remap = make(map[*Func]*Func)
	}
	m.cow.remap[old] = nf
	for _, g := range m.Funcs {
		if g != nf && !m.cow.shared[g] {
			reroute(g, old, nf)
		}
	}
	for _, g := range m.cow.spare {
		reroute(g, old, nf)
	}
}

// reroute points every call to old inside g at nf.
func reroute(g, old, nf *Func) {
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Callee == old {
				in.Callee = nf
			}
		}
	}
}

// Materialize ensures f is owned by m, deep-copying it (or taking its spare)
// if it is still borrowed, and returns the owned function (f itself when
// already owned).
func (m *Module) Materialize(f *Func) *Func {
	if !m.IsShared(f) {
		return f
	}
	nf := m.scratch(f)
	m.install(f, nf)
	return nf
}

// MaterializeAll takes ownership of every function, after which the module
// behaves exactly like a deep clone (module passes that walk or rewrite
// arbitrary functions run on a fully materialized module). Spares are taken
// by the functions they copy; none survives.
func (m *Module) MaterializeAll() {
	if m.cow == nil {
		return
	}
	for _, f := range append([]*Func(nil), m.Funcs...) {
		m.Materialize(f)
	}
	m.cow = nil
}

// RunOwned applies fn to f with copy-on-write semantics: an owned f is
// transformed in place; a borrowed f is transformed on a scratch copy (its
// spare, or a fresh deep copy) that is installed only when fn reports a
// change, leaving the parent untouched. An unchanged scratch copy becomes
// f's spare, so a run of no-op passes over f clones it at most once. fn must
// return true whenever it mutated the function (the pass changed-reporting
// contract): a spare is reused as if it were the parent.
func (m *Module) RunOwned(f *Func, fn func(*Func) bool) bool {
	if !m.IsShared(f) {
		return fn(f)
	}
	nf := m.scratch(f)
	if !fn(nf) {
		if m.cow.spare == nil {
			m.cow.spare = make(map[*Func]*Func)
		}
		m.cow.spare[f] = nf
		return false
	}
	m.install(f, nf)
	return true
}

// Seal restores the no-dangling-callee invariant after a pass pipeline:
// every still-borrowed function that calls a replaced function is
// materialized (which reroutes the call), repeating until settled. It then
// drops every spare, and the dominator tree and loops (Func.Dom) of every
// function m owns, and numbers them (Func.Number), so a sealed module (the
// form the compile cache publishes) holds no scratch copies and no
// analyses, and its readers never write a number. Cheap when nothing was
// replaced. Idempotent.
func (m *Module) Seal() {
	if m.cow != nil {
		for again := len(m.cow.remap) > 0; again; {
			again = false
			for _, f := range m.Funcs {
				if !m.cow.shared[f] || !m.refsReplaced(f) {
					continue
				}
				m.Materialize(f)
				again = true
			}
		}
		m.cow.spare = nil
	}
	for _, f := range m.Funcs {
		if !m.IsShared(f) {
			f.dom.Store(nil)
			f.Number()
		}
	}
}

// refsReplaced reports whether f calls a function that was replaced in m.
func (m *Module) refsReplaced(f *Func) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Callee == nil {
				continue
			}
			if _, ok := m.cow.remap[in.Callee]; ok {
				return true
			}
		}
	}
	return false
}
