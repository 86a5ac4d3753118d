package analysis_test

import (
	"testing"

	"autophase/internal/analysis"
	"autophase/internal/ir"
)

// mutualFixture: main -> even <-> odd, plus an uncalled helper.
func mutualFixture() *ir.Module {
	m := ir.NewModule("mutual")
	even := m.NewFunc("even", ir.I32, ir.I32)
	odd := m.NewFunc("odd", ir.I32, ir.I32)
	b := ir.NewBuilder()

	buildHalf := func(f, other *ir.Func, base int64) {
		entry := f.NewBlock("entry")
		done := f.NewBlock("base")
		rec := f.NewBlock("rec")
		b.SetInsert(entry)
		c := b.ICmp(ir.CmpEQ, f.Params[0], ir.ConstInt(ir.I32, 0))
		b.CondBr(c, done, rec)
		b.SetInsert(done)
		b.Ret(ir.ConstInt(ir.I32, base))
		b.SetInsert(rec)
		n1 := b.Sub(f.Params[0], ir.ConstInt(ir.I32, 1))
		b.Ret(b.Call(other, n1))
	}
	buildHalf(even, odd, 1)
	buildHalf(odd, even, 0)

	loner := m.NewFunc("loner", ir.I32)
	b.SetInsert(loner.NewBlock("entry"))
	b.Ret(ir.ConstInt(ir.I32, 9))

	main := m.NewFunc("main", ir.I32)
	b.SetInsert(main.NewBlock("entry"))
	b.Ret(b.Call(even, ir.ConstInt(ir.I32, 8)))
	return m
}

func TestCallGraphStructure(t *testing.T) {
	m := mutualFixture()
	cg := analysis.ComputeCallGraph(m)

	even, odd, main := m.Func("even"), m.Func("odd"), m.Func("main")
	if len(cg.Nodes) != len(m.Funcs) {
		t.Fatalf("got %d nodes, want %d", len(cg.Nodes), len(m.Funcs))
	}
	if !cg.Recursive(even) || !cg.Recursive(odd) {
		t.Error("even/odd form a recursive component")
	}
	if cg.Recursive(main) || cg.Recursive(m.Func("loner")) {
		t.Error("main and loner are not recursive")
	}
	ne, nm := cg.ByFunc[even], cg.ByFunc[main]
	if ne.SCC != cg.ByFunc[odd].SCC {
		t.Error("even and odd must share an SCC")
	}
	if len(cg.SCCs[ne.SCC]) != 2 {
		t.Errorf("even/odd SCC size = %d, want 2", len(cg.SCCs[ne.SCC]))
	}
	// SCCs are ordered callees-first: even/odd's component precedes main's.
	if ne.SCC >= nm.SCC {
		t.Errorf("callee SCC %d not before caller SCC %d", ne.SCC, nm.SCC)
	}
	if len(nm.Callees) != 1 || len(ne.Callers) != 2 { // called by odd and main
		t.Errorf("callees(main)=%d callers(even)=%d, want 1 and 2", len(nm.Callees), len(ne.Callers))
	}
	reach := cg.ReachableFrom(main)
	if !reach[even] || !reach[odd] || !reach[main] {
		t.Error("even, odd and main are reachable from main")
	}
	if reach[m.Func("loner")] {
		t.Error("loner must not be reachable from main")
	}
}

// effectsFixture covers the summary lattice: a pure helper, global
// readers/writers, a pointer-param writer, a possible trap and an
// infinitely recursive helper.
func effectsFixture() (*ir.Module, *ir.Global) {
	m := ir.NewModule("eff")
	g := m.NewGlobal("g", ir.ArrayOf(ir.I32, 4), nil, false)
	b := ir.NewBuilder()

	square := m.NewFunc("square", ir.I32, ir.I32)
	b.SetInsert(square.NewBlock("entry"))
	b.Ret(b.Mul(square.Params[0], square.Params[0]))

	getg := m.NewFunc("getg", ir.I32)
	b.SetInsert(getg.NewBlock("entry"))
	b.Ret(b.Load(b.GEP(g, ir.ConstInt(ir.I32, 0))))

	setg := m.NewFunc("setg", ir.I32, ir.I32)
	b.SetInsert(setg.NewBlock("entry"))
	b.Store(setg.Params[0], b.GEP(g, ir.ConstInt(ir.I32, 1)))
	b.Ret(ir.ConstInt(ir.I32, 0))

	sink := m.NewFunc("sink", ir.I32, ir.PointerTo(ir.I32), ir.I32)
	b.SetInsert(sink.NewBlock("entry"))
	b.Store(sink.Params[1], sink.Params[0])
	b.Ret(ir.ConstInt(ir.I32, 0))

	div := m.NewFunc("div", ir.I32, ir.I32, ir.I32)
	b.SetInsert(div.NewBlock("entry"))
	b.Ret(b.SDiv(div.Params[0], div.Params[1]))

	spin := m.NewFunc("spin", ir.I32)
	b.SetInsert(spin.NewBlock("entry"))
	b.Ret(b.Call(spin))

	main := m.NewFunc("main", ir.I32)
	b.SetInsert(main.NewBlock("entry"))
	buf := b.Alloca(ir.ArrayOf(ir.I32, 2))
	b.Call(sink, b.GEP(buf, ir.ConstInt(ir.I32, 0)), ir.ConstInt(ir.I32, 5))
	s := b.Call(square, ir.ConstInt(ir.I32, 3))
	b.Call(setg, s)
	b.Ret(b.Call(getg))
	return m, g
}

func TestEffectsSummaries(t *testing.T) {
	m, g := effectsFixture()
	s := analysis.ComputeEffects(m)

	sq := s.Of(m.Func("square"))
	if !sq.Pure() || sq.ReadsMemory() || sq.WritesMemory() {
		t.Errorf("square must be pure, got %s", sq)
	}
	ge := s.Of(m.Func("getg"))
	if !ge.ReadsGlobals[g] || ge.WritesMemory() || !ge.Pure() {
		t.Errorf("getg must read @g and nothing else, got %s", ge)
	}
	se := s.Of(m.Func("setg"))
	if !se.WritesGlobals[g] || se.Pure() {
		t.Errorf("setg must write @g, got %s", se)
	}
	sk := s.Of(m.Func("sink"))
	if !sk.WritesParams || sk.WritesUnknown || len(sk.WritesGlobals) != 0 {
		t.Errorf("sink writes only through its pointer param, got %s", sk)
	}
	de := s.Of(m.Func("div"))
	if !de.MayPanic || de.WritesMemory() {
		t.Errorf("div may trap on a zero divisor, got %s", de)
	}
	sp := s.Of(m.Func("spin"))
	if !sp.MayNotTerminate {
		t.Errorf("spin is infinitely recursive, got %s", sp)
	}
	// main inherits: setg's global write, getg's global read. sink's
	// param-mediated write lands in main's own alloca, which is invisible
	// to main's callers — but the conservative merge may keep WritesParams
	// only if main itself has pointer params (it has none).
	me := s.Of(m.Func("main"))
	if !me.WritesGlobals[g] || !me.ReadsGlobals[g] {
		t.Errorf("main must inherit the @g access from its callees, got %s", me)
	}
	if me.MayPanic || me.MayNotTerminate {
		t.Errorf("main calls no trapping or diverging function, got %s", me)
	}

	// Mutate square in place to write a global nothing else touches:
	// recomputed summaries must see the write in square and, transitively,
	// in main.
	h := m.NewGlobal("h", ir.ArrayOf(ir.I32, 2), nil, false)
	entry := m.Func("square").Entry()
	ret := entry.Term()
	entry.Remove(ret)
	b := ir.NewBuilder()
	b.SetInsert(entry)
	b.Store(ir.ConstInt(ir.I32, 1), b.GEP(h, ir.ConstInt(ir.I32, 1)))
	entry.Append(ret)

	s = analysis.ComputeEffects(m)
	sq = s.Of(m.Func("square"))
	if sq.Pure() || len(sq.WritesGlobals) != 1 || !sq.WritesGlobals[h] {
		t.Errorf("mutated square writes only @h and is no longer pure, got %s", sq)
	}
	if me := s.Of(m.Func("main")); !me.WritesGlobals[h] || !me.WritesGlobals[g] {
		t.Errorf("main must inherit square's new @h write next to setg's @g, got %s", me)
	}
}

func TestIPAChecks(t *testing.T) {
	m := ir.NewModule("ipalint")
	g := m.NewGlobal("wo", ir.ArrayOf(ir.I32, 2), nil, false)
	b := ir.NewBuilder()

	dead := m.NewFunc("dead", ir.I32)
	b.SetInsert(dead.NewBlock("entry"))
	b.Ret(ir.ConstInt(ir.I32, 1))

	square := m.NewFunc("square", ir.I32, ir.I32)
	b.SetInsert(square.NewBlock("entry"))
	b.Ret(b.Mul(square.Params[0], square.Params[0]))

	spin := m.NewFunc("spin", ir.I32)
	b.SetInsert(spin.NewBlock("entry"))
	b.Ret(b.Call(spin))

	main := m.NewFunc("main", ir.I32)
	b.SetInsert(main.NewBlock("entry"))
	b.Call(square, ir.ConstInt(ir.I32, 3)) // result unused
	b.Call(spin)
	b.Store(ir.ConstInt(ir.I32, 1), b.GEP(g, ir.ConstInt(ir.I32, 0)))
	b.Ret(ir.ConstInt(ir.I32, 0))

	ds := analysis.VerifyAll(m)
	if ds.HasErrors() {
		t.Fatalf("fixture must be structurally clean:\n%s", ds.Errors())
	}
	for _, check := range []string{
		analysis.CheckUnreachableFunc,
		analysis.CheckInfiniteRecursion,
		analysis.CheckPureResultUnused,
		analysis.CheckGlobalNeverRead,
	} {
		found := ds.ByCheck(check)
		if len(found) == 0 {
			t.Errorf("expected a %s diagnostic", check)
			continue
		}
		for _, d := range found {
			if d.Sev != analysis.Warning {
				t.Errorf("%s must be Warning severity, got %s", check, d.Sev)
			}
		}
	}
}

func TestVerifyAttrsOverclaim(t *testing.T) {
	m, _ := effectsFixture()
	if ds := analysis.VerifyAttrs(m); len(ds.Errors()) != 0 {
		t.Fatalf("no attributes set, no overclaim possible:\n%s", ds)
	}
	m.Func("setg").Attrs.ReadNone = true
	m.Func("div").Attrs.NoTrap = true
	ds := analysis.VerifyAttrs(m)
	if got := len(ds.ByCheck(analysis.CheckAttrOverclaim)); got != 2 {
		t.Fatalf("want 2 %s errors (setg readnone, div notrap), got %d:\n%s",
			analysis.CheckAttrOverclaim, got, ds)
	}
	if !ds.HasErrors() {
		t.Error("attr overclaims are Error severity")
	}
}
