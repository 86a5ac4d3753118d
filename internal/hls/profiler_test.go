package hls_test

import (
	"errors"
	"fmt"
	"testing"

	"autophase/internal/artifact"
	"autophase/internal/hls"
	"autophase/internal/interp"
	"autophase/internal/ir"
	"autophase/internal/passes"
	"autophase/internal/progen"
)

// preludes are the three pipeline shapes the differential sweep runs every
// benchmark through: bare mem2reg, a canonicalization pipeline, and the
// full -O3 reference sequence.
var preludes = []struct {
	name string
	seq  []int
}{
	{"mem2reg", []int{38}},
	{"canonicalized", []int{38, 31, 30, 29, 23, 30}},
	{"o3", passes.O3Sequence},
}

// diffEngines profiles m under the pinned-interpreter reference and the
// pinned VM, demanding identical cycles/steps/exit/area or identical error
// classes. It returns the interpreter report for further checks.
func diffEngines(t *testing.T, label string, m *ir.Module) *hls.Report {
	t.Helper()
	iref, ierr := interpReport(m, hls.DefaultConfig, interp.DefaultLimits)
	vprof := hls.NewProfiler(hls.ProfileOptions{Engine: hls.EngineVM})
	vrep, verr := vprof.Profile(m)
	if errors.Is(verr, hls.ErrEngineDeclined) {
		t.Fatalf("%s: VM declined to lower a benchmark-shaped module: %v", label, verr)
	}
	if (verr == nil) != (ierr == nil) {
		t.Fatalf("%s: vm err=%v, interp err=%v", label, verr, ierr)
	}
	if verr != nil {
		for _, cls := range []error{
			interp.ErrStepLimit, interp.ErrDepthLimit, interp.ErrMemLimit,
			interp.ErrDivByZero, interp.ErrOOB, interp.ErrNoMain,
			interp.ErrUnreach, interp.ErrDeadline,
		} {
			if errors.Is(ierr, cls) != errors.Is(verr, cls) {
				t.Fatalf("%s: error class mismatch: vm %v, interp %v", label, verr, ierr)
			}
		}
		return nil
	}
	if vrep.Cycles != iref.Cycles || vrep.Steps != iref.Steps ||
		vrep.Exit != iref.Exit || vrep.AreaLUT != iref.AreaLUT {
		t.Fatalf("%s: vm report {cycles=%d steps=%d exit=%d area=%d} != interp {cycles=%d steps=%d exit=%d area=%d}",
			label, vrep.Cycles, vrep.Steps, vrep.Exit, vrep.AreaLUT,
			iref.Cycles, iref.Steps, iref.Exit, iref.AreaLUT)
	}
	if vrep.Engine != hls.EngineVM {
		t.Fatalf("%s: pinned VM report tagged %v", label, vrep.Engine)
	}
	return iref
}

// TestVMDifferentialSweep: the bytecode VM agrees with the tree-walking
// interpreter on cycles, steps and exit value over all nine benchmarks
// under all three pipeline shapes, and the three-engine cross-check passes.
func TestVMDifferentialSweep(t *testing.T) {
	for _, name := range progen.BenchmarkNames {
		for _, pl := range preludes {
			label := name + "/" + pl.name
			m := progen.Benchmark(name)
			passes.Apply(m, pl.seq)
			iref := diffEngines(t, label, m)
			if iref == nil {
				t.Fatalf("%s: benchmark unexpectedly failed to execute", label)
			}
			// The cross-check engine runs all three and errors on any
			// cycle/step/exit/trace divergence.
			crep, err := hls.NewProfiler(hls.ProfileOptions{CrossCheck: true}).Profile(m)
			if err != nil {
				t.Fatalf("%s: three-engine cross-check: %v", label, err)
			}
			if crep.Cycles != iref.Cycles || crep.Steps != iref.Steps || crep.Exit != iref.Exit {
				t.Fatalf("%s: cross-check report diverges from interpreter reference", label)
			}
		}
	}
}

// TestVMDifferentialProgen covers generator-shaped programs (wrapping
// arithmetic, byte casts, deep nesting) beyond the nine benchmarks.
func TestVMDifferentialProgen(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		m := progen.Generate(seed, progen.DefaultGen)
		passes.Apply(m, []int{38})
		diffEngines(t, fmt.Sprintf("progen-%d", seed), m)
	}
}

// TestAutoEngineSelection: Auto answers through the VM whenever the module
// lowers, including modules inside the static estimator's fragment, and
// says so; the static estimator is reached only when pinned, where it
// returns the same cycles and steps.
func TestAutoEngineSelection(t *testing.T) {
	prof := hls.NewProfiler(hls.ProfileOptions{})
	pinned := hls.NewProfiler(hls.ProfileOptions{Engine: hls.EngineStatic})
	for _, c := range []struct {
		name string
		m    *ir.Module
	}{
		{"static fixture", mem2reg(staticFixture())},
		{"mem2reg'd matmul", mem2reg(progen.Benchmark("matmul"))},
	} {
		rep, err := prof.Profile(c.m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.Engine != hls.EngineVM {
			t.Fatalf("%s answered by %v, want the VM", c.name, rep.Engine)
		}
		srep, err := pinned.Profile(c.m)
		if err != nil {
			t.Fatalf("%s: pinned static: %v", c.name, err)
		}
		if srep.Engine != hls.EngineStatic || srep.Cycles != rep.Cycles || srep.Steps != rep.Steps {
			t.Fatalf("%s: pinned static %v cycles=%d steps=%d, auto cycles=%d steps=%d",
				c.name, srep.Engine, srep.Cycles, srep.Steps, rep.Cycles, rep.Steps)
		}
	}

	rep, err := prof.Profile(dynamicFixture())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != hls.EngineVM {
		t.Fatalf("dynamic fixture answered by %v, want the VM", rep.Engine)
	}

}

// TestPinnedEngineDeclines: a pinned engine that cannot handle the module
// fails with ErrEngineDeclined instead of silently falling back.
func TestPinnedEngineDeclines(t *testing.T) {
	static := hls.NewProfiler(hls.ProfileOptions{Engine: hls.EngineStatic})
	if _, err := static.Profile(dynamicFixture()); !errors.Is(err, hls.ErrEngineDeclined) {
		t.Fatalf("pinned static on a dynamic module: %v, want ErrEngineDeclined", err)
	}

	// A call site passing fewer arguments than the callee declares is
	// interpretable (missing params read as undefined) but not lowerable.
	src := `define i32 @f(i32 %a, i32 %b) {
entry:
  ret i32 7
}

define i32 @main() {
entry:
  %r = call i32 @f(1)
  ret i32 %r
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	vm := hls.NewProfiler(hls.ProfileOptions{Engine: hls.EngineVM})
	if _, err := vm.Profile(m); !errors.Is(err, hls.ErrEngineDeclined) {
		t.Fatalf("pinned VM on an unlowerable module: %v, want ErrEngineDeclined", err)
	}

	// Auto on the same module must fall back to the interpreter, not fail.
	auto := hls.NewProfiler(hls.ProfileOptions{})
	rep, err := auto.Profile(m)
	if err != nil {
		t.Fatalf("auto fallback: %v", err)
	}
	if rep.Engine != hls.EngineInterp || rep.Exit != 7 {
		t.Fatalf("auto fallback report: engine=%v exit=%d", rep.Engine, rep.Exit)
	}
}

// TestProfilerPoliciesAgree: the automatic cascade, the cross-checked
// sanitizer mode and the pinned interpreter report the same cycles.
func TestProfilerPoliciesAgree(t *testing.T) {
	m := mem2reg(progen.Benchmark("qsort"))
	var cycles []int64
	for _, opts := range []hls.ProfileOptions{
		{},
		{CrossCheck: true},
		{Engine: hls.EngineInterp},
	} {
		rep, err := hls.NewProfiler(opts).Profile(m)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		cycles = append(cycles, rep.Cycles)
	}
	if cycles[0] != cycles[2] || cycles[1] != cycles[2] {
		t.Fatalf("policy disagreement: auto=%d checked=%d interp=%d", cycles[0], cycles[1], cycles[2])
	}
}

// TestCrossCheckBypassesStore: the sanitizer mode runs every engine and
// neither reads nor writes an attached artifact store, even on a module
// the VM lowers.
func TestCrossCheckBypassesStore(t *testing.T) {
	st, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	prof := hls.NewProfiler(hls.ProfileOptions{CrossCheck: true, Store: st})
	rep, err := prof.Profile(dynamicFixture())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != hls.EngineVM {
		t.Fatalf("dynamic fixture answered by %v, want the VM", rep.Engine)
	}
	if s := st.Stats(); s.Hits != 0 || s.Misses != 0 || s.Writes != 0 {
		t.Fatalf("cross-check touched the store: hits=%d misses=%d writes=%d", s.Hits, s.Misses, s.Writes)
	}
}

// TestStoreMarksStoredReports: a profile the store answers is marked
// Stored and carries the live profile's numbers and engine; a live profile
// is not marked, and a profiler under other limits misses the record.
func TestStoreMarksStoredReports(t *testing.T) {
	st, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := dynamicFixture()
	prof := hls.NewProfiler(hls.ProfileOptions{Store: st})
	live, err := prof.Profile(m)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := prof.Profile(m)
	if err != nil {
		t.Fatal(err)
	}
	if live.Stored || !stored.Stored {
		t.Fatalf("Stored flags: live=%v stored=%v, want false then true", live.Stored, stored.Stored)
	}
	if stored.Cycles != live.Cycles || stored.AreaLUT != live.AreaLUT || stored.Steps != live.Steps ||
		stored.Exit != live.Exit || stored.Engine != live.Engine {
		t.Fatalf("stored report %+v, live report %+v", stored, live)
	}
	lim := interp.DefaultLimits
	lim.MaxSteps /= 2
	other, err := hls.NewProfiler(hls.ProfileOptions{Limits: lim, Store: st}).Profile(m)
	if err != nil {
		t.Fatal(err)
	}
	if other.Stored {
		t.Fatal("a profiler under other limits was answered by the first one's record")
	}
}

// FuzzVMDifferential drives random pass pipelines over benchmark and
// generated programs (the FuzzApplyVerify recipe) and cross-checks the
// bytecode VM against the interpreter on the result. A VM decline is
// acceptable; a disagreement never is.
func FuzzVMDifferential(f *testing.F) {
	f.Add(int64(1), []byte{38, 31, 30})     // mem2reg, simplifycfg, instcombine
	f.Add(int64(7), []byte{38, 7, 28, 32})  // mem2reg, gvn, adce, dse
	f.Add(int64(42), []byte{43, 26, 8, 0})  // sroa, early-cse, jump-threading, corr-prop
	f.Add(int64(-3), []byte{5, 23, 36, 33}) // sccp, loop-rotate, licm, loop-unroll
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		var m *ir.Module
		if seed%4 == 0 {
			bs := progen.Benchmarks()
			m = bs[int(uint64(seed)%uint64(len(bs)))].Clone()
		} else {
			m = progen.Generate(seed, progen.DefaultGen)
		}
		seq := make([]int, 0, len(raw))
		for _, b := range raw {
			idx := int(b) % passes.NumActions
			if idx == passes.TerminateIndex {
				continue
			}
			seq = append(seq, idx)
		}
		passes.Apply(m, seq)

		iref, ierr := interpReport(m, hls.DefaultConfig, interp.DefaultLimits)
		vrep, verr := hls.NewProfiler(hls.ProfileOptions{Engine: hls.EngineVM}).Profile(m)
		if errors.Is(verr, hls.ErrEngineDeclined) {
			return
		}
		if (verr == nil) != (ierr == nil) {
			t.Fatalf("vm err=%v, interp err=%v", verr, ierr)
		}
		if verr != nil {
			return
		}
		if vrep.Cycles != iref.Cycles || vrep.Steps != iref.Steps || vrep.Exit != iref.Exit {
			t.Fatalf("vm {cycles=%d steps=%d exit=%d} != interp {cycles=%d steps=%d exit=%d}",
				vrep.Cycles, vrep.Steps, vrep.Exit, iref.Cycles, iref.Steps, iref.Exit)
		}
	})
}
