package hls_test

import (
	"errors"
	"testing"

	"autophase/internal/analysis"
	"autophase/internal/hls"
	"autophase/internal/interp"
	"autophase/internal/ir"
	"autophase/internal/passes"
	"autophase/internal/progen"
	"autophase/internal/vm"
)

// staticFixture is a program squarely inside the static fragment once
// mem2reg has run: nested counted loops, a memset, in-bounds array traffic,
// a non-recursive call, and a constant return value.
func staticFixture() *ir.Module {
	m := ir.NewModule("staticfix")
	fe := progen.NewFE(m)
	triple := fe.Begin("triple", ir.I32, "x")
	fe.Ret(fe.Mul(fe.V("x"), fe.C(3)))
	fe.Begin("main", ir.I32)
	fe.Arr("buf", 16)
	fe.B.Memset(fe.Addr("buf"), fe.C(0), ir.ConstInt(ir.I32, 16))
	fe.Var("acc", 0)
	fe.For("i", 0, 10, 1, func(iv func() ir.Value) {
		fe.For("j", 0, 4, 1, func(jv func() ir.Value) {
			fe.Put("buf", jv(), fe.Add(fe.Get("buf", jv()), iv()))
			fe.Set("acc", fe.Add(fe.V("acc"), fe.Call(triple, jv())))
		})
	})
	fe.Print(fe.V("acc"))
	fe.Ret(fe.C(7))
	return m
}

// dynamicFixture branches on a value loaded from memory, which no static
// range can decide.
func dynamicFixture() *ir.Module {
	m := ir.NewModule("dynfix")
	g := m.NewGlobal("tab", ir.ArrayOf(ir.I32, 4), []int64{5, 6, 7, 8}, true)
	fe := progen.NewFE(m)
	fe.Begin("main", ir.I32)
	fe.Var("out", 1)
	fe.If(fe.Cmp(ir.CmpSLT, fe.GetG(g, fe.C(2)), fe.C(50)), func() {
		fe.Set("out", fe.C(2))
	}, func() {
		fe.Set("out", fe.C(3))
	})
	fe.Ret(fe.V("out"))
	return m
}

func mem2reg(m *ir.Module) *ir.Module {
	passes.Apply(m, []int{38})
	return m
}

// interpReport profiles m on the pinned interpreter, the reference engine.
func interpReport(m *ir.Module, cfg hls.Config, lim interp.Limits) (*hls.Report, error) {
	return hls.NewProfiler(hls.ProfileOptions{Config: cfg, Limits: lim, Engine: hls.EngineInterp}).Profile(m)
}

// TestStaticProfileCrafted: the crafted fixture takes the fast path, the
// automatic profiler answers it through the VM, and all of them agree with
// the interpreter exactly; the cross-checked profiler tags the static
// agreement.
func TestStaticProfileCrafted(t *testing.T) {
	m := mem2reg(staticFixture())
	cfg, lim := hls.DefaultConfig, interp.DefaultLimits
	static, ok := hls.StaticProfile(m, cfg, lim)
	if !ok {
		t.Fatal("crafted static fixture declined the fast path")
	}
	ref, err := interpReport(m, cfg, lim)
	if err != nil {
		t.Fatalf("interpreted profile failed: %v", err)
	}
	if static.Cycles != ref.Cycles || static.Steps != ref.Steps || static.AreaLUT != ref.AreaLUT {
		t.Fatalf("static (cycles=%d steps=%d area=%d) != interp (cycles=%d steps=%d area=%d)",
			static.Cycles, static.Steps, static.AreaLUT, ref.Cycles, ref.Steps, ref.AreaLUT)
	}
	if static.Engine != hls.EngineStatic || ref.Engine == hls.EngineStatic {
		t.Fatalf("engines: static=%v interp=%v", static.Engine, ref.Engine)
	}
	if static.Exit != 7 || ref.Exit != 7 {
		t.Fatalf("exit: static=%d interp=%d, want 7", static.Exit, ref.Exit)
	}
	auto, err := hls.NewProfiler(hls.ProfileOptions{Config: cfg, Limits: lim}).Profile(m)
	if err != nil || auto.Engine != hls.EngineVM || auto.Cycles != ref.Cycles || auto.Steps != ref.Steps {
		t.Fatalf("auto profile: %+v, %v", auto, err)
	}
	checked, err := hls.NewProfiler(hls.ProfileOptions{Config: cfg, Limits: lim, CrossCheck: true}).Profile(m)
	if err != nil || checked.Engine != hls.EngineStatic || checked.Cycles != ref.Cycles {
		t.Fatalf("cross-checked profile: %+v, %v", checked, err)
	}
}

// TestStaticProfileDeclines: a data-dependent branch must push the module
// off the fast path, and the automatic profiler must still answer via
// another engine.
func TestStaticProfileDeclines(t *testing.T) {
	m := mem2reg(dynamicFixture())
	cfg, lim := hls.DefaultConfig, interp.DefaultLimits
	if _, ok := hls.StaticProfile(m, cfg, lim); ok {
		t.Fatal("load-dependent branch must decline the static path")
	}
	rep, err := hls.NewProfiler(hls.ProfileOptions{Config: cfg, Limits: lim}).Profile(m)
	if err != nil || rep.Engine == hls.EngineStatic {
		t.Fatalf("fallback auto profile: %+v, %v", rep, err)
	}
	if rep.Exit != 2 {
		t.Fatalf("fallback exit = %d, want 2", rep.Exit)
	}
	if _, err := hls.NewProfiler(hls.ProfileOptions{Config: cfg, Limits: lim, CrossCheck: true}).Profile(m); err != nil {
		t.Fatalf("cross-checked profile on declined module: %v", err)
	}
}

// TestStaticProfileDifferential is the acceptance-criteria sweep: on every
// bundled benchmark under several pass pipelines, whenever StaticProfile
// claims applicability its cycle and step counts must equal the
// interpreter's exactly — and at least one benchmark must take the path.
func TestStaticProfileDifferential(t *testing.T) {
	preludes := map[string][]int{
		"mem2reg":       {38},
		"canonicalized": {38, 31, 30, 29, 23, 30},
		"o3":            passes.O3Sequence,
	}
	cfg, lim := hls.DefaultConfig, interp.DefaultLimits
	hits := 0
	for _, name := range progen.BenchmarkNames {
		for pname, seq := range preludes {
			m := progen.Benchmark(name)
			passes.Apply(m, seq)
			static, ok := hls.StaticProfile(m, cfg, lim)
			if !ok {
				continue
			}
			hits++
			ref, err := interpReport(m, cfg, lim)
			if err != nil {
				t.Errorf("%s/%s: static claimed success, interpreter failed: %v", name, pname, err)
				continue
			}
			if static.Cycles != ref.Cycles || static.Steps != ref.Steps {
				t.Errorf("%s/%s: static cycles=%d steps=%d, interp cycles=%d steps=%d",
					name, pname, static.Cycles, static.Steps, ref.Cycles, ref.Steps)
			}
			if static.Exit != 0 && static.Exit != ref.Exit {
				t.Errorf("%s/%s: static exit=%d, interp exit=%d", name, pname, static.Exit, ref.Exit)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no benchmark took the static fast path under any prelude")
	}
	t.Logf("static fast path taken on %d benchmark/prelude combinations", hits)
}

// TestProfileLimitErrors: each interpreter limit surfaces its own distinct
// error through hls.Profile.
func TestProfileLimitErrors(t *testing.T) {
	recur := func() *ir.Module {
		m := ir.NewModule("recur")
		fe := progen.NewFE(m)
		r := fe.Begin("r", ir.I32)
		fe.Ret(fe.Call(r))
		fe.Begin("main", ir.I32)
		fe.Ret(fe.Call(r))
		return m
	}
	cases := []struct {
		name string
		mod  *ir.Module
		lim  interp.Limits
		want error
	}{
		{"steps", progen.Benchmark("matmul"), interp.Limits{MaxSteps: 10, MaxDepth: 256, MaxCells: 1 << 20}, interp.ErrStepLimit},
		{"depth", recur(), interp.DefaultLimits, interp.ErrDepthLimit},
		{"cells", progen.Benchmark("matmul"), interp.Limits{MaxSteps: 4_000_000, MaxDepth: 256, MaxCells: 8}, interp.ErrMemLimit},
	}
	for _, tc := range cases {
		_, err := interpReport(tc.mod, hls.DefaultConfig, tc.lim)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		for _, other := range cases {
			if other.want != tc.want && errors.Is(err, other.want) {
				t.Errorf("%s: error %v also matches %v; limit errors must stay distinct", tc.name, err, other.want)
			}
		}
		// A limit overrun must also keep the static path honest: it may
		// decline, but it must never claim success.
		if _, ok := hls.StaticProfile(tc.mod, hls.DefaultConfig, tc.lim); ok {
			t.Errorf("%s: StaticProfile claimed success on a limit-exceeding run", tc.name)
		}
	}
}

// refTripSim is the legacy exit-test simulation the loop passes used before
// SCEV, reproduced here as the benchmark baseline.
func refTripSim(start, step, bound int64, bits int, pred ir.CmpPred, onNext, exitWhen bool, max int64) (int64, bool) {
	ty := ir.IntType(bits)
	cur := ty.TruncVal(start)
	for n := int64(1); n <= max; n++ {
		v := cur
		if onNext {
			v = ir.EvalBinary(ir.OpAdd, ty, cur, step)
		}
		if pred.Eval(v, bound, bits) == exitWhen {
			return n, true
		}
		cur = ir.EvalBinary(ir.OpAdd, ty, cur, step)
	}
	return 0, false
}

// BenchmarkTripCount quantifies the closed form against the old simulation
// on a million-iteration counted loop.
func BenchmarkTripCount(b *testing.B) {
	const (
		start = 0
		step  = 3
		bound = 3_000_000
	)
	b.Run("scev", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, kind := analysis.ExitCount(start, step, bound, 32, ir.CmpSLT, false, false)
			if kind != analysis.TripFinite || n != 1_000_001 {
				b.Fatalf("got %d, %v", n, kind)
			}
		}
	})
	b.Run("sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, ok := refTripSim(start, step, bound, 32, ir.CmpSLT, false, false, 1<<21)
			if !ok || n != 1_000_001 {
				b.Fatalf("got %d, %v", n, ok)
			}
		}
	})
}

// TestStaticProfileInterprocedural pins the interprocedural fast path on
// the two call-bearing programs it was built for: blowfish (a benchmark
// whose round function previously forced the interpreter on every
// pipeline) and the callheavy stress program (a three-level call chain).
// The cross-checked profiler asserts exact static/interp equality
// internally.
func TestStaticProfileInterprocedural(t *testing.T) {
	preludes := map[string][]int{
		"mem2reg":       {38},
		"canonicalized": {38, 31, 30, 29, 23, 30},
		"o3":            passes.O3Sequence,
	}
	cfg, lim := hls.DefaultConfig, interp.DefaultLimits
	for _, prog := range []struct {
		name string
		mod  func() *ir.Module
	}{
		{"blowfish", func() *ir.Module { return progen.Benchmark("blowfish") }},
		{"callheavy", progen.CallHeavy},
	} {
		for pname, seq := range preludes {
			m := prog.mod()
			passes.Apply(m, seq)
			rep, err := hls.NewProfiler(hls.ProfileOptions{Config: cfg, Limits: lim, CrossCheck: true}).Profile(m)
			if err != nil {
				t.Errorf("%s/%s: cross-checked profile: %v", prog.name, pname, err)
				continue
			}
			if rep.Engine != hls.EngineStatic {
				t.Errorf("%s/%s: expected the interprocedural static fast path, got the interpreter", prog.name, pname)
			}
		}
	}
}

// BenchmarkProfileStaticVsInterp compares the two reward paths on the
// mem2reg'd matmul benchmark plus the call-bearing blowfish and callheavy
// programs, whose static path must pay for the interprocedural
// context-sensitive range analysis.
func BenchmarkProfileStaticVsInterp(b *testing.B) {
	cfg, lim := hls.DefaultConfig, interp.DefaultLimits
	mods := []struct {
		name string
		mod  *ir.Module
	}{
		{"matmul", mem2reg(progen.Benchmark("matmul"))},
		{"blowfish", mem2reg(progen.Benchmark("blowfish"))},
		{"callheavy", mem2reg(progen.CallHeavy())},
	}
	for _, tc := range mods {
		b.Run(tc.name+"/static", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := hls.StaticProfile(tc.mod, cfg, lim); !ok {
					b.Fatal("static path declined")
				}
			}
		})
		b.Run(tc.name+"/vm", func(b *testing.B) {
			// What one VM-answered reward costs in the search loop: the
			// compile cache holds the fingerprint (core profiles through
			// ProfileFP), and every profile schedules, lowers, verifies and
			// runs the module.
			prof := hls.NewProfiler(hls.ProfileOptions{Config: cfg, Limits: lim, Engine: hls.EngineVM})
			fp := tc.mod.Fingerprint()
			for i := 0; i < b.N; i++ {
				if _, err := prof.ProfileFP(tc.mod, fp); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/vmrun", func(b *testing.B) {
			// The dispatch loop alone: lowered once outside the timer.
			sched := hls.Schedule(tc.mod, cfg)
			prog, err := vm.Lower(tc.mod, sched.StatesOf)
			if err == nil {
				err = vm.Verify(prog)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vm.Run(prog, lim); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/interp", func(b *testing.B) {
			prof := hls.NewProfiler(hls.ProfileOptions{Config: cfg, Limits: lim, Engine: hls.EngineInterp})
			for i := 0; i < b.N; i++ {
				if _, err := prof.Profile(tc.mod); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
