// Three-engine cross-check sweep: with the sanitizer enabled, every
// profile runs the static estimator, the bytecode VM and the tree-walking
// interpreter and demands bit-identical cycles/steps/exit/trace before a
// reward is released. This suite drives that mode through the evaluation
// engine over all nine benchmarks under the three reference pipeline
// shapes, at workers=1 and workers=8, and pins the answers to an
// interpreter-only reference — the engines must agree with each other and
// across worker counts.
package autophase_test

import (
	"fmt"
	"testing"

	"autophase/internal/core"
	"autophase/internal/hls"
	"autophase/internal/passes"
	"autophase/internal/progen"
)

// vmPipelines are the three pipeline shapes of the differential sweep:
// bare mem2reg, a canonicalization pipeline, and the -O3 reference.
var vmPipelines = [][]int{
	{38},
	{38, 31, 30, 29, 23, 30},
	passes.O3Sequence,
}

func TestThreeEngineCrossCheck(t *testing.T) {
	run := func(workers int) map[string]int64 {
		got := make(map[string]int64)
		for _, name := range progen.BenchmarkNames {
			p := detProgram(t, name)
			p.EnableSanitizer()
			ev := core.NewEvaluator(p, workers)
			for i, r := range ev.EvalBatch(vmPipelines) {
				if !r.Ok {
					t.Fatalf("%s pipeline %d (workers=%d): cross-checked compile failed: %v",
						name, i, workers, r.Fault)
				}
				got[fmt.Sprintf("%s/%d", name, i)] = r.Cycles
			}
			if st := p.EvalStats(); st.FPMismatches != 0 {
				t.Fatalf("%s (workers=%d): %d fingerprint mismatches under cross-check",
					name, workers, st.FPMismatches)
			}
		}
		return got
	}

	r1 := run(1)
	r8 := run(8)
	if len(r1) != len(r8) {
		t.Fatalf("worker sweeps scored different key sets: %d vs %d", len(r1), len(r8))
	}
	for k, c1 := range r1 {
		if c8 := r8[k]; c1 != c8 {
			t.Fatalf("%s: cycles diverged across worker counts: workers=1 %d, workers=8 %d", k, c1, c8)
		}
	}

	// Pin the tree-walking interpreter as the external reference: the
	// cross-checked engine answers must equal an interpreter-only profile
	// of the same IR, not merely agree among themselves.
	ref := hls.NewProfiler(hls.ProfileOptions{Engine: hls.EngineInterp})
	for _, name := range progen.BenchmarkNames {
		for i, seq := range vmPipelines {
			m := progen.Benchmark(name)
			passes.Apply(m, seq)
			rep, err := ref.Profile(m)
			if err != nil {
				t.Fatalf("%s pipeline %d: interpreter reference failed: %v", name, i, err)
			}
			if want := r1[fmt.Sprintf("%s/%d", name, i)]; rep.Cycles != want {
				t.Fatalf("%s pipeline %d: cross-checked cycles %d != interpreter reference %d",
					name, i, want, rep.Cycles)
			}
		}
	}
}
