package analysis

import (
	"fmt"
	"sort"

	"autophase/internal/ir"
)

// Effects is the externally observable behavior summary of one function:
// which memory outside its own frame it may read or write, whether it
// prints, whether it may trap, and whether it may fail to terminate. Reads
// and writes of the function's own allocas are deliberately invisible —
// they cannot be observed by any caller.
type Effects struct {
	Fn *ir.Func

	// ReadsGlobals / WritesGlobals are the module globals the function (or
	// anything it transitively calls) may load from / store to.
	ReadsGlobals  map[*ir.Global]bool
	WritesGlobals map[*ir.Global]bool

	// ReadsParams / WritesParams report accesses to caller-owned memory
	// reached through a pointer-typed formal parameter.
	ReadsParams  bool
	WritesParams bool

	// ReadsUnknown / WritesUnknown report accesses through pointers whose
	// object could not be resolved; they make the summary maximally
	// conservative on that side.
	ReadsUnknown  bool
	WritesUnknown bool

	// Prints reports any OpPrint (an I/O side effect).
	Prints bool

	// MayPanic reports that executing the function may trap. Its triggers
	// mirror the NoTrap attribute contract in internal/passes exactly:
	// a div/rem whose divisor is not a provably non-zero constant, or a
	// call to a may-panic (or unknown) callee.
	MayPanic bool

	// MayNotTerminate reports that the function may run forever: it sits
	// in a recursive call-graph component, contains a loop without a
	// closed-form finite trip count, or calls such a function.
	MayNotTerminate bool
}

// ReadsMemory reports whether the function may read memory visible to a
// caller (globals, caller objects via pointer params, or unknown).
func (e *Effects) ReadsMemory() bool {
	return len(e.ReadsGlobals) > 0 || e.ReadsParams || e.ReadsUnknown
}

// WritesMemory reports whether the function may write memory visible to a
// caller.
func (e *Effects) WritesMemory() bool {
	return len(e.WritesGlobals) > 0 || e.WritesParams || e.WritesUnknown
}

// Pure reports that a call to the function can be deleted when its result
// is unused: no visible writes, no I/O, no trap, guaranteed termination.
func (e *Effects) Pure() bool {
	return !e.WritesMemory() && !e.Prints && !e.MayPanic && !e.MayNotTerminate
}

// String renders the summary compactly, for diagnostics and tests.
func (e *Effects) String() string {
	s := "{"
	if n := sortedGlobalNames(e.ReadsGlobals); len(n) > 0 {
		s += fmt.Sprintf("reads=%v ", n)
	}
	if n := sortedGlobalNames(e.WritesGlobals); len(n) > 0 {
		s += fmt.Sprintf("writes=%v ", n)
	}
	for _, f := range []struct {
		on   bool
		name string
	}{
		{e.ReadsParams, "readsParams"}, {e.WritesParams, "writesParams"},
		{e.ReadsUnknown, "readsUnknown"}, {e.WritesUnknown, "writesUnknown"},
		{e.Prints, "prints"}, {e.MayPanic, "mayPanic"},
		{e.MayNotTerminate, "mayNotTerminate"},
	} {
		if f.on {
			s += f.name + " "
		}
	}
	if len(s) > 1 {
		s = s[:len(s)-1]
	}
	return s + "}"
}

func sortedGlobalNames(gs map[*ir.Global]bool) []string {
	var names []string
	for g := range gs {
		names = append(names, g.Name)
	}
	sort.Strings(names)
	return names
}

func (e *Effects) equal(o *Effects) bool {
	if o == nil {
		return false
	}
	if len(e.ReadsGlobals) != len(o.ReadsGlobals) || len(e.WritesGlobals) != len(o.WritesGlobals) {
		return false
	}
	for g := range e.ReadsGlobals {
		if !o.ReadsGlobals[g] {
			return false
		}
	}
	for g := range e.WritesGlobals {
		if !o.WritesGlobals[g] {
			return false
		}
	}
	return e.ReadsParams == o.ReadsParams && e.WritesParams == o.WritesParams &&
		e.ReadsUnknown == o.ReadsUnknown && e.WritesUnknown == o.WritesUnknown &&
		e.Prints == o.Prints && e.MayPanic == o.MayPanic &&
		e.MayNotTerminate == o.MayNotTerminate
}

func (e *Effects) clone() *Effects {
	c := *e
	c.ReadsGlobals = make(map[*ir.Global]bool, len(e.ReadsGlobals))
	for g := range e.ReadsGlobals {
		c.ReadsGlobals[g] = true
	}
	c.WritesGlobals = make(map[*ir.Global]bool, len(e.WritesGlobals))
	for g := range e.WritesGlobals {
		c.WritesGlobals[g] = true
	}
	return &c
}

// Summaries holds the per-function effect summaries of one module instance
// together with the call graph they were computed over. The structure is
// pointer-rich (it references the module's *ir.Func/*ir.Global values
// directly), so it must not outlive pass mutations of the module.
type Summaries struct {
	CG     *CallGraph
	byFunc map[*ir.Func]*Effects
}

// Of returns f's summary, or nil for a function outside the module.
func (s *Summaries) Of(f *ir.Func) *Effects { return s.byFunc[f] }

// ComputeEffects computes effect summaries for every function in m,
// bottom-up over the call-graph SCC DAG with a fixpoint inside each
// recursive component.
func ComputeEffects(m *ir.Module) *Summaries {
	cg := ComputeCallGraph(m)
	s := &Summaries{CG: cg, byFunc: make(map[*ir.Func]*Effects, len(m.Funcs))}

	// Base effects: everything except call propagation. These never change
	// across fixpoint rounds, so compute them once per function.
	base := make(map[*ir.Func]*Effects, len(m.Funcs))
	for _, n := range cg.Nodes {
		base[n.Fn] = baseEffects(n.Fn)
		s.byFunc[n.Fn] = base[n.Fn].clone()
	}

	// SCCs are emitted callees-first, so by the time a component is
	// processed every summary it depends on outside the component is final.
	// Inside a component the merge is monotone (bits and sets only grow),
	// so iterating to a fixpoint terminates.
	for _, scc := range cg.SCCs {
		recursive := len(scc) > 1 || scc[0].SelfLoop
		if recursive {
			for _, n := range scc {
				s.byFunc[n.Fn].MayNotTerminate = true
			}
		}
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				e := base[n.Fn].clone()
				e.MayNotTerminate = e.MayNotTerminate || recursive
				al := ComputeAliases(n.Fn)
				for _, site := range n.Sites {
					mergeCall(e, s, al, site)
				}
				if !e.equal(s.byFunc[n.Fn]) {
					s.byFunc[n.Fn] = e
					changed = true
				}
			}
		}
	}
	return s
}

// baseEffects scans f's own instructions, ignoring calls (the fixpoint
// adds those) and classifying every memory access by its alias roots.
func baseEffects(f *ir.Func) *Effects {
	e := &Effects{
		Fn:            f,
		ReadsGlobals:  make(map[*ir.Global]bool),
		WritesGlobals: make(map[*ir.Global]bool),
	}
	al := ComputeAliases(f)
	f.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
		switch in.Op {
		case ir.OpLoad:
			classifyAccess(e, al.RootsOf(in.Args[0]), false)
		case ir.OpStore:
			classifyAccess(e, al.RootsOf(in.Args[1]), true)
		case ir.OpMemset:
			classifyAccess(e, al.RootsOf(in.Args[0]), true)
		case ir.OpPrint:
			e.Prints = true
		case ir.OpSDiv, ir.OpSRem:
			// Mirrors deriveAttrs' NoTrap trigger bit for bit.
			if c, ok := ir.IsConst(in.Args[1]); !ok || c == 0 {
				e.MayPanic = true
			}
		}
	})
	// A loop without a provably finite trip count may spin forever.
	scev := ComputeSCEV(f)
	for _, l := range scev.Loops() {
		if t := scev.TripsOf(l); t == nil || t.Kind != TripFinite {
			e.MayNotTerminate = true
			break
		}
	}
	return e
}

// classifyAccess folds one memory access's root set into the summary.
// Alloca roots are the function's own frame and stay invisible; a param
// root through a non-pointer formal means the callee manufactured an
// address from an integer, which we cannot attribute to any object.
func classifyAccess(e *Effects, roots []Root, write bool) {
	if len(roots) == 0 {
		// Unresolvable (e.g. a phi cycle of undefs): stay conservative.
		e.setUnknown(write)
		return
	}
	for _, r := range roots {
		switch r.Kind {
		case RootAlloca:
			// Frame-local: invisible to callers.
		case RootGlobal:
			if write {
				e.WritesGlobals[r.Global] = true
			} else {
				e.ReadsGlobals[r.Global] = true
			}
		case RootParam:
			if r.Param.Ty.IsPtr() {
				if write {
					e.WritesParams = true
				} else {
					e.ReadsParams = true
				}
			} else {
				e.setUnknown(write)
			}
		default: // RootUndef, RootUnknown
			e.setUnknown(write)
		}
	}
}

func (e *Effects) setUnknown(write bool) {
	if write {
		e.WritesUnknown = true
	} else {
		e.ReadsUnknown = true
	}
}

// mergeCall folds the callee's summary into the caller's at one call site,
// rebinding the callee's param-mediated accesses to the actual arguments'
// roots in the caller.
func mergeCall(e *Effects, s *Summaries, al *Aliases, site *ir.Instr) {
	ce := s.byFunc[site.Callee]
	if ce == nil {
		// nil or detached callee: assume the worst on every axis, exactly
		// as deriveAttrs surrenders all three attributes.
		e.ReadsUnknown, e.WritesUnknown = true, true
		e.Prints, e.MayPanic, e.MayNotTerminate = true, true, true
		return
	}
	for g := range ce.ReadsGlobals {
		e.ReadsGlobals[g] = true
	}
	for g := range ce.WritesGlobals {
		e.WritesGlobals[g] = true
	}
	e.ReadsUnknown = e.ReadsUnknown || ce.ReadsUnknown
	e.WritesUnknown = e.WritesUnknown || ce.WritesUnknown
	e.Prints = e.Prints || ce.Prints
	e.MayPanic = e.MayPanic || ce.MayPanic
	e.MayNotTerminate = e.MayNotTerminate || ce.MayNotTerminate
	if ce.ReadsParams || ce.WritesParams {
		for _, a := range site.Args {
			if a.Type() == nil || !a.Type().IsPtr() {
				continue
			}
			if ce.ReadsParams {
				classifyAccess(e, al.RootsOf(a), false)
			}
			if ce.WritesParams {
				classifyAccess(e, al.RootsOf(a), true)
			}
		}
	}
}

// VerifyAttrs cross-checks the optimizer-derived function attributes
// against independently computed effect summaries. Attributes are claims
// consumed by licm/gvn to speculate and deduplicate calls; an attribute
// asserting more than the effects support is a miscompile in the making,
// reported as an error under ipa.attr-overclaim.
func VerifyAttrs(m *ir.Module) Diagnostics {
	var ds Diagnostics
	s := ComputeEffects(m)
	for _, f := range m.Funcs {
		e := s.Of(f)
		if e == nil {
			continue
		}
		c := &collector{fn: f}
		if f.Attrs.ReadOnly && (e.WritesMemory() || e.Prints) {
			c.errf(CheckAttrOverclaim, nil, nil,
				"attribute readonly but effects %s show visible writes", e)
		}
		if f.Attrs.ReadNone && (e.ReadsMemory() || e.WritesMemory() || e.Prints || e.MayPanic) {
			c.errf(CheckAttrOverclaim, nil, nil,
				"attribute readnone but effects %s show memory access, I/O or a possible trap", e)
		}
		if f.Attrs.NoTrap && e.MayPanic {
			c.errf(CheckAttrOverclaim, nil, nil,
				"attribute notrap but effects %s show a possible trap", e)
		}
		ds = append(ds, c.diags...)
	}
	return ds
}
