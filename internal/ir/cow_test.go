package ir_test

import (
	"testing"

	"autophase/internal/ir"
	"autophase/internal/progen"
)

func TestCloneCOWSharesEverythingInitially(t *testing.T) {
	parent := progen.Benchmark("gsm")
	before := parent.String()
	fp := parent.Fingerprint()

	m := parent.Clone()
	cow := m.CloneCOW()
	for i, f := range cow.Funcs {
		if f != m.Funcs[i] {
			t.Fatalf("func %d not shared by pointer", i)
		}
		if !cow.IsShared(f) {
			t.Fatalf("func %s not marked shared", f.Name)
		}
	}
	for i, g := range cow.Globals {
		if g != m.Globals[i] {
			t.Fatalf("global %d not shared by pointer", i)
		}
	}
	if got := cow.Fingerprint(); got != fp {
		t.Fatalf("COW fingerprint %s != parent %s", got, fp)
	}
	if parent.String() != before {
		t.Fatal("cloning mutated the parent")
	}
}

func TestRunOwnedInstallsOnlyOnChange(t *testing.T) {
	m := progen.Benchmark("matmul")
	cow := m.CloneCOW()
	target := cow.Funcs[0]

	// A no-op run must not take ownership (no clone installed).
	if changed := cow.RunOwned(target, func(f *ir.Func) bool { return false }); changed {
		t.Fatal("no-op run reported change")
	}
	if !cow.IsShared(target) {
		t.Fatal("no-op run took ownership")
	}
	if cow.Funcs[0] != target {
		t.Fatal("no-op run replaced the function")
	}

	// A mutating run must install an owned clone and leave the parent alone.
	parentBefore := m.String()
	var owned *ir.Func
	changed := cow.RunOwned(target, func(f *ir.Func) bool {
		owned = f
		b := f.Blocks[0]
		b.Prepend(&ir.Instr{Op: ir.OpAlloca, Ty: ir.PointerTo(ir.I32), AllocTy: ir.I32})
		return true
	})
	if !changed {
		t.Fatal("mutating run reported no change")
	}
	if owned == target {
		t.Fatal("mutating run worked on the shared function itself")
	}
	if cow.Funcs[0] != owned || cow.IsShared(owned) {
		t.Fatal("owned clone not installed")
	}
	if m.String() != parentBefore {
		t.Fatal("mutating the COW module changed the parent")
	}
	if cow.Fingerprint() == m.Fingerprint() {
		t.Fatal("mutation did not change the fingerprint")
	}
}

// TestSealReroutesStaleCallees replaces a callee through RunOwned and checks
// Seal leaves no instruction referencing a function outside the module.
func TestSealReroutesStaleCallees(t *testing.T) {
	for _, name := range progen.BenchmarkNames {
		m := progen.Benchmark(name)
		cow := m.CloneCOW()
		replaced := 0
		for _, f := range append([]*ir.Func(nil), cow.Funcs...) {
			if f.Name == "main" {
				continue
			}
			if cow.RunOwned(f, func(nf *ir.Func) bool {
				nf.Blocks[0].Prepend(&ir.Instr{Op: ir.OpAlloca,
					Ty: ir.PointerTo(ir.I32), AllocTy: ir.I32})
				return true
			}) {
				replaced++
			}
		}
		if replaced == 0 {
			continue // single-function benchmark; nothing to reroute
		}
		cow.Seal()
		in := make(map[*ir.Func]bool, len(cow.Funcs))
		for _, f := range cow.Funcs {
			in[f] = true
		}
		for _, f := range cow.Funcs {
			for _, b := range f.Blocks {
				for _, i := range b.Instrs {
					if i.Callee != nil && !in[i.Callee] {
						t.Fatalf("%s: %s calls a function no longer in the module", name, f.Name)
					}
				}
			}
		}
	}
}

func TestMaterializeAllBehavesLikeDeepClone(t *testing.T) {
	m := progen.Benchmark("qsort")
	want := m.String()

	cow := m.CloneCOW()
	cow.MaterializeAll()
	for _, f := range cow.Funcs {
		if cow.IsShared(f) {
			t.Fatalf("%s still shared after MaterializeAll", f.Name)
		}
	}
	if got := cow.String(); got != want {
		t.Fatalf("materialized module prints differently:\n%s", got)
	}
	// Mutating the materialized module must not leak into the parent.
	cow.Funcs[0].Blocks[0].Prepend(&ir.Instr{Op: ir.OpAlloca,
		Ty: ir.PointerTo(ir.I32), AllocTy: ir.I32})
	if m.String() != want {
		t.Fatal("mutation after MaterializeAll reached the parent")
	}
}

// addAlloca is a minimal mutation for RunOwned callbacks.
func addAlloca(f *ir.Func) bool {
	f.Blocks[0].Prepend(&ir.Instr{Op: ir.OpAlloca, Ty: ir.PointerTo(ir.I32), AllocTy: ir.I32})
	return true
}

// TestRunOwnedReusesUnchangedClone runs a no-op and then a changing
// transformation over the same borrowed function: the second run must get
// the first run's scratch copy (one clone in all), and the parent must be
// untouched.
func TestRunOwnedReusesUnchangedClone(t *testing.T) {
	m := progen.Benchmark("matmul")
	before := m.String()
	cow := m.CloneCOW()
	target := cow.Funcs[0]

	var first, second *ir.Func
	cow.RunOwned(target, func(f *ir.Func) bool { first = f; return false })
	if !cow.IsShared(target) || cow.Funcs[0] != target {
		t.Fatal("no-op run took ownership")
	}
	cow.RunOwned(target, func(f *ir.Func) bool { second = f; return addAlloca(f) })
	if first == target || second != first {
		t.Fatal("the changing run did not reuse the no-op run's copy")
	}
	if cow.Funcs[0] != second || cow.IsShared(second) {
		t.Fatal("reused copy not installed")
	}
	if m.String() != before {
		t.Fatal("the parent changed")
	}
}

// callPair finds a function of m that calls another function of m.
func callPair(m *ir.Module) (caller, callee *ir.Func) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Callee != nil && in.Callee != f {
					return f, in.Callee
				}
			}
		}
	}
	return nil, nil
}

// TestSpareCallsReplacedCallee keeps the caller as a spare, replaces the
// callee, then changes the caller: the installed caller must call the new
// callee, not the parent's.
func TestSpareCallsReplacedCallee(t *testing.T) {
	for _, name := range progen.BenchmarkNames {
		m := progen.Benchmark(name)
		cow := m.CloneCOW()
		f, g := callPair(cow)
		if f == nil {
			continue
		}
		cow.RunOwned(f, func(*ir.Func) bool { return false })
		cow.RunOwned(g, addAlloca)
		newG := cow.Func(g.Name)
		if newG == g {
			t.Fatalf("%s: callee not replaced", name)
		}
		cow.RunOwned(f, addAlloca)
		newF := cow.Func(f.Name)
		for _, b := range newF.Blocks {
			for _, in := range b.Instrs {
				if in.Callee == g {
					t.Fatalf("%s: installed %s still calls the parent's %s", name, f.Name, g.Name)
				}
			}
		}
		if c, _ := callPair(&ir.Module{Funcs: []*ir.Func{newF}}); c == nil {
			t.Fatalf("%s: installed %s lost its call", name, f.Name)
		}
		return
	}
	t.Fatal("no benchmark has a call between two functions")
}

// TestSealAndMaterializeAllDropSpares leaves a spare behind, then checks
// that Seal and MaterializeAll each either hand it to its function or drop
// it, so no later materialization can pick it up.
func TestSealAndMaterializeAllDropSpares(t *testing.T) {
	m := progen.Benchmark("qsort")
	leaveSpare := func() (cow *ir.Module, target, spare *ir.Func) {
		cow = m.CloneCOW()
		target = cow.Funcs[0]
		cow.RunOwned(target, func(f *ir.Func) bool { spare = f; return false })
		cow.RunOwned(cow.Funcs[len(cow.Funcs)-1], addAlloca) // something to seal
		return cow, target, spare
	}

	cow, target, spare := leaveSpare()
	cow.Seal()
	if cow.IsShared(target) {
		if cow.Materialize(target) == spare {
			t.Fatal("a spare survived Seal")
		}
	} else if cow.Func(target.Name) != spare {
		t.Fatal("Seal cloned a function that had a spare")
	}

	cow, target, spare = leaveSpare()
	cow.MaterializeAll()
	if cow.Func(target.Name) != spare {
		t.Fatal("MaterializeAll cloned a function that had a spare")
	}
	for _, f := range cow.Funcs {
		if cow.IsShared(f) {
			t.Fatalf("%s still shared after MaterializeAll", f.Name)
		}
	}
}

// TestUnsealedFingerprintEqualsSealed: after a helper is replaced, the
// borrowed main still calls the parent's helper until Seal reroutes it.
// The fingerprint of the unsealed module must already be the sealed one,
// since a pass pipeline fingerprints before it seals.
func TestUnsealedFingerprintEqualsSealed(t *testing.T) {
	checked := 0
	for _, name := range progen.BenchmarkNames {
		m := progen.Benchmark(name)
		cow := m.CloneCOW()
		var main *ir.Func
		var stale []*ir.Func // replaced helpers main still calls
		for _, f := range append([]*ir.Func(nil), cow.Funcs...) {
			if f.Name == "main" {
				main = f
				continue
			}
			cow.RunOwned(f, func(nf *ir.Func) bool {
				nf.Blocks[0].Prepend(&ir.Instr{Op: ir.OpAlloca,
					Ty: ir.PointerTo(ir.I32), AllocTy: ir.I32})
				return true
			})
			stale = append(stale, f)
		}
		if main == nil || !cow.IsShared(main) || !calls(main, stale) {
			continue
		}
		checked++
		unsealed := cow.Fingerprint()
		cow.Seal()
		if calls(cow.Funcs[indexOf(cow, "main")], stale) {
			t.Fatalf("%s: main still calls a replaced helper after Seal", name)
		}
		if sealed := cow.Fingerprint(); unsealed != sealed {
			t.Fatalf("%s: unsealed fingerprint %s, sealed %s", name, unsealed, sealed)
		}
		if unsealed == m.Fingerprint() {
			t.Fatalf("%s: replacing the helpers did not change the fingerprint", name)
		}
	}
	if checked == 0 {
		t.Fatal("no benchmark has a borrowed main calling a replaced helper")
	}
}

// calls reports whether f calls any of fs.
func calls(f *ir.Func, fs []*ir.Func) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, g := range fs {
				if in.Callee == g {
					return true
				}
			}
		}
	}
	return false
}

func indexOf(m *ir.Module, name string) int {
	for i, f := range m.Funcs {
		if f.Name == name {
			return i
		}
	}
	return -1
}
