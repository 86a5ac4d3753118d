// Warm-start differential suite: the persistent artifact store must be
// invisible in results (cache off, cold and warm runs produce bit-identical
// reports and search outcomes) and decisive in cost (a warm process answers
// previously seen (fingerprint, config, limits) keys from disk with zero
// engine executions).
package autophase_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"autophase/internal/artifact"
	"autophase/internal/core"
	"autophase/internal/hls"
	"autophase/internal/interp"
	"autophase/internal/ir"
	"autophase/internal/passes"
	"autophase/internal/progen"
	"autophase/internal/search"
)

// sweepPreludes are the three pipeline shapes of the nine-benchmark sweep
// (mirroring the hls profiler differential suite): bare mem2reg, a
// canonicalization pipeline, and the full -O3 reference sequence.
var sweepPreludes = [][]int{
	{38},
	{38, 31, 30, 29, 23, 30},
	passes.O3Sequence,
}

// sweepOutcome is everything observable about one benchmark × prelude cell;
// two sweeps are equivalent iff their outcome slices are deep-equal.
type sweepOutcome struct {
	name    string
	prelude int
	o0, o3  int64
	cycles  int64
	area    int64
	ok      bool
	feats   string
}

// runSweep evaluates the nine-benchmark × three-prelude grid with st as the
// process-default artifact store (nil = memory only), and aggregates the
// engine-execution and disk-hit counters across all programs.
func runSweep(t testing.TB, st *artifact.Store) (outs []sweepOutcome, engineRuns, diskHits int64) {
	t.Helper()
	core.SetDefaultArtifacts(st)
	defer core.SetDefaultArtifacts(nil)
	for _, name := range progen.BenchmarkNames {
		p, err := core.NewProgram(name, progen.Benchmark(name))
		if err != nil {
			t.Fatalf("NewProgram(%s): %v", name, err)
		}
		for pi, seq := range sweepPreludes {
			cycles, area, ok := p.CompileArea(seq)
			_, feats, _ := p.Compile(seq) // memoized: same sample, adds the vector
			outs = append(outs, sweepOutcome{
				name: name, prelude: pi, o0: p.O0Cycles, o3: p.O3Cycles,
				cycles: cycles, area: area, ok: ok, feats: fmt.Sprint(feats),
			})
		}
		es := p.EvalStats()
		engineRuns += es.StaticHits + es.VMHits + es.InterpHits
		diskHits += es.DiskHits
	}
	return outs, engineRuns, diskHits
}

func diffSweeps(t *testing.T, label string, a, b []sweepOutcome) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d outcomes", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: outcome diverged for %s/prelude %d:\n  %+v\n  %+v",
				label, a[i].name, a[i].prelude, a[i], b[i])
		}
	}
}

// TestWarmStartSweep is the acceptance differential: cache off, cold and
// warm sweeps agree bit-for-bit; the warm sweep runs zero engines for the
// previously seen keys and answers from disk.
func TestWarmStartSweep(t *testing.T) {
	off, offEngines, offDisk := runSweep(t, nil)
	if offEngines == 0 {
		t.Fatal("cache-off sweep reports zero engine executions — counter wiring broken")
	}
	if offDisk != 0 {
		t.Fatalf("cache-off sweep reports %d disk hits", offDisk)
	}

	dir := t.TempDir()
	st, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold, coldEngines, _ := runSweep(t, st)
	diffSweeps(t, "off vs cold", off, cold)
	if coldEngines == 0 {
		t.Fatal("cold sweep reports zero engine executions")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm, warmEngines, warmDisk := runSweep(t, st2)
	diffSweeps(t, "cold vs warm", cold, warm)
	if warmEngines != 0 {
		t.Fatalf("warm sweep executed an engine %d times for previously seen keys", warmEngines)
	}
	if warmDisk == 0 {
		t.Fatal("warm sweep reports zero disk hits")
	}
}

// TestWarmStartSearchIdentical runs the same seeded random search with the
// cache off, cold and warm: the incumbent (sequence and cycles) and the
// sample count must be identical in all three — the store is a pure
// performance tier, never a behavioural one.
func TestWarmStartSearchIdentical(t *testing.T) {
	run := func(st *artifact.Store) (int64, []int, int) {
		core.SetDefaultArtifacts(st)
		defer core.SetDefaultArtifacts(nil)
		p, err := core.NewProgram("matmul", progen.Benchmark("matmul"))
		if err != nil {
			t.Fatal(err)
		}
		obj := core.NewEvaluator(p, 4).Objective(10)
		search.Random(obj, rand.New(rand.NewSource(17)), 200)
		best, seq := p.BestCycles()
		return best, seq, p.Samples()
	}

	offBest, offSeq, offSamples := run(nil)

	dir := t.TempDir()
	st, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	coldBest, coldSeq, coldSamples := run(st)
	st.Close()
	st2, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warmBest, warmSeq, warmSamples := run(st2)

	for _, mode := range []struct {
		label   string
		best    int64
		seq     []int
		samples int
	}{
		{"cold", coldBest, coldSeq, coldSamples},
		{"warm", warmBest, warmSeq, warmSamples},
	} {
		if mode.best != offBest || fmt.Sprint(mode.seq) != fmt.Sprint(offSeq) || mode.samples != offSamples {
			t.Errorf("%s search diverged from cache-off: best %d seq %v samples %d, want %d %v %d",
				mode.label, mode.best, mode.seq, mode.samples, offBest, offSeq, offSamples)
		}
	}
}

// benchModules builds the nine-benchmark × three-prelude module set once.
// Pass application is deliberately outside the timed region below: the
// store persists profiling work (schedule + execution), not pass pipelines,
// so the cold/warm pair isolates exactly the stage the store amortizes.
var (
	benchModulesOnce sync.Once
	benchModulesSet  []*ir.Module
)

func benchModules() []*ir.Module {
	benchModulesOnce.Do(func() {
		for _, name := range progen.BenchmarkNames {
			for _, seq := range sweepPreludes {
				m := progen.Benchmark(name)
				passes.Apply(m, seq)
				benchModulesSet = append(benchModulesSet, m)
			}
		}
	})
	return benchModulesSet
}

// benchProfileAll profiles every module through a fresh interpreter-pinned
// profiler backed by st — a new profiler per call, so in-memory memoization
// never leaks between iterations and a warm run measures the disk tier.
func benchProfileAll(b *testing.B, st *artifact.Store, ms []*ir.Module) {
	prof := hls.NewProfiler(hls.ProfileOptions{Engine: hls.EngineInterp, Store: st})
	for _, m := range ms {
		if _, err := prof.Profile(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepColdStore: profile the nine-benchmark × three-prelude
// module set against a store that has never seen the keys — every profile
// schedules and executes, every report is written behind.
func BenchmarkSweepColdStore(b *testing.B) {
	ms := benchModules()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := artifact.Open(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		benchProfileAll(b, st, ms)
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}

// BenchmarkSweepWarmStore: the same profiles against a primed store
// reopened from disk — the repeated-run shape the persistence layer exists
// for. Compare ns/op against BenchmarkSweepColdStore; CI derives the
// speedup ratio.
func BenchmarkSweepWarmStore(b *testing.B) {
	ms := benchModules()
	dir := b.TempDir()
	st, err := artifact.Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchProfileAll(b, st, ms)
	st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := artifact.Open(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		benchProfileAll(b, st, ms)
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}

// TestWarmStartDeadlineNotKeyed pins that the wall-clock deadline is not
// part of the stored-profile key: a second Program with a different
// Limits.Deadline on the same store answers the first one's profiles from
// disk with no engine run. A deadline can only turn a success into an
// error, and errors are never stored.
func TestWarmStartDeadlineNotKeyed(t *testing.T) {
	st, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// run compiles the sweep's three pipelines under the given deadline and
	// returns their cycles with the engine runs and disk hits they caused
	// (the O0/-O3 baselines NewProgram profiles are not counted).
	run := func(deadline time.Duration) (cycles []int64, engines, diskHits int64) {
		p, err := core.NewProgram("matmul", progen.Benchmark("matmul"))
		if err != nil {
			t.Fatal(err)
		}
		p.SetArtifacts(st)
		lim := interp.DefaultLimits
		lim.Deadline = deadline
		p.SetLimits(lim)
		before := p.EvalStats()
		for _, seq := range sweepPreludes {
			c, _, ok := p.Compile(seq)
			if !ok {
				t.Fatalf("deadline %v: sequence %v failed", deadline, seq)
			}
			cycles = append(cycles, c)
		}
		after := p.EvalStats()
		engines = after.StaticHits + after.VMHits + after.InterpHits -
			(before.StaticHits + before.VMHits + before.InterpHits)
		return cycles, engines, after.DiskHits - before.DiskHits
	}
	first, _, hits1 := run(time.Minute)
	second, engines2, hits2 := run(2 * time.Minute)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("cycles differ across deadlines: %v vs %v", first, second)
	}
	if hits1 != 0 {
		t.Fatalf("first program hit the empty store %d times", hits1)
	}
	if engines2 != 0 || hits2 != int64(len(sweepPreludes)) {
		t.Fatalf("second program: %d engine runs, %d disk hits; want 0 and %d", engines2, hits2, len(sweepPreludes))
	}
}
