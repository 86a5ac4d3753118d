package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"autophase/internal/faults"
	"autophase/internal/ir"
	"autophase/internal/progen"
	"autophase/internal/search"
)

// baselineProfiles counts the profiles p's engines answered: a fresh
// Program has answered exactly its two baselines.
func baselineProfiles(p *Program) int64 {
	st := p.EvalStats()
	return st.StaticHits + st.VMHits + st.InterpHits + st.DiskHits
}

// fpSeeds snapshots p's fingerprint store.
func fpSeeds(p *Program) map[ir.Fingerprint]fpEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[ir.Fingerprint]fpEntry, len(p.fpEntries))
	for fp, e := range p.fpEntries {
		out[fp] = *e
	}
	return out
}

func rememberedCount(b *Baselines) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recs)
}

// TestBaselinesHitMatchesFresh: a Program built from a remembered
// baseline has the same baselines and the same seeded fingerprint store as
// one NewProgram builds, without profiling anything.
func TestBaselinesHitMatchesFresh(t *testing.T) {
	var b Baselines
	for _, name := range []string{"matmul", "qsort", "gsm"} {
		fresh := mustProgram(t, name)
		miss, err := b.NewProgram(name, progen.Benchmark(name))
		if err != nil {
			t.Fatal(err)
		}
		hit, err := b.NewProgram(name, progen.Benchmark(name))
		if err != nil {
			t.Fatal(err)
		}
		if got := baselineProfiles(miss); got != 2 {
			t.Fatalf("%s: a miss should profile both baselines, engines answered %d", name, got)
		}
		if got := baselineProfiles(hit); got != 0 {
			t.Fatalf("%s: a hit should profile nothing, engines answered %d", name, got)
		}
		want := fpSeeds(fresh)
		if len(want) == 0 {
			t.Fatalf("%s: fresh Program seeded no fingerprint record", name)
		}
		for _, p := range []*Program{miss, hit} {
			if p.O0Cycles != fresh.O0Cycles || p.O3Cycles != fresh.O3Cycles {
				t.Fatalf("%s: baselines O0=%d O3=%d, fresh O0=%d O3=%d",
					name, p.O0Cycles, p.O3Cycles, fresh.O0Cycles, fresh.O3Cycles)
			}
			if got := fpSeeds(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: fingerprint store seeded %+v, fresh %+v", name, got, want)
			}
		}
	}
	if n := rememberedCount(&b); n != 3 {
		t.Fatalf("remembered %d modules, want 3", n)
	}
}

// TestBaselinesHitSearchMatchesFresh: the same random search on a Program
// built from a remembered baseline and on a fresh one finds the same best
// cycles and sequence and spends the same samples.
func TestBaselinesHitSearchMatchesFresh(t *testing.T) {
	var b Baselines
	if _, err := b.NewProgram("matmul", progen.Benchmark("matmul")); err != nil {
		t.Fatal(err)
	}
	hit, err := b.NewProgram("matmul", progen.Benchmark("matmul"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := mustProgram(t, "matmul")
	type outcome struct {
		best    int64
		seq     []int
		samples int
	}
	run := func(p *Program) outcome {
		search.Random(NewEvaluator(p, 2).Objective(8), rand.New(rand.NewSource(5)), 48)
		best, seq := p.BestCycles()
		return outcome{best, seq, p.Samples()}
	}
	got, want := run(hit), run(fresh)
	if want.samples == 0 || want.seq == nil {
		t.Fatalf("degenerate search: %+v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("search on a remembered baseline %+v, on a fresh Program %+v", got, want)
	}
}

// TestBaselinesFailureNotRemembered: a baseline that fails or panics is
// not remembered, so the next build of the module profiles (and can fail)
// again.
func TestBaselinesFailureNotRemembered(t *testing.T) {
	var b Baselines
	enableFaults(t, "profile-err:1")
	for i := 0; i < 2; i++ {
		if _, err := b.NewProgram("matmul", progen.Benchmark("matmul")); err == nil {
			t.Fatalf("build %d: injected profile error did not fail the baseline", i)
		}
	}
	enableFaults(t, "pass-panic:1")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected pass panic did not escape the -O3 pipeline")
			}
		}()
		b.NewProgram("matmul", progen.Benchmark("matmul"))
	}()
	if n := rememberedCount(&b); n != 0 {
		t.Fatalf("a failed baseline was remembered (%d records)", n)
	}
	faults.Disable()
	p, err := b.NewProgram("matmul", progen.Benchmark("matmul"))
	if err != nil {
		t.Fatal(err)
	}
	if got := baselineProfiles(p); got != 2 {
		t.Fatalf("the build after a failure should profile both baselines, engines answered %d", got)
	}
	if n := rememberedCount(&b); n != 1 {
		t.Fatalf("remembered %d modules after a success, want 1", n)
	}
}

// TestBaselinesCap: once the memo is full a new module is computed and not
// stored, and the modules already remembered still hit.
func TestBaselinesCap(t *testing.T) {
	old := baselinesCap
	baselinesCap = 1
	t.Cleanup(func() { baselinesCap = old })
	var b Baselines
	build := func(name string) int64 {
		t.Helper()
		p, err := b.NewProgram(name, progen.Benchmark(name))
		if err != nil {
			t.Fatal(err)
		}
		return baselineProfiles(p)
	}
	if got := build("matmul"); got != 2 {
		t.Fatalf("first matmul build answered %d profiles, want 2", got)
	}
	for i := 0; i < 2; i++ {
		if got := build("qsort"); got != 2 {
			t.Fatalf("qsort build %d past the cap answered %d profiles, want 2", i, got)
		}
	}
	if got := build("matmul"); got != 0 {
		t.Fatalf("remembered matmul answered %d profiles, want 0", got)
	}
	if n := rememberedCount(&b); n != 1 {
		t.Fatalf("memo holds %d modules at cap 1", n)
	}
}

// TestBaselinesConcurrent builds Programs for a few modules from many
// goroutines on one memo; every build must carry the fresh baselines. Run
// it under -race.
func TestBaselinesConcurrent(t *testing.T) {
	names := []string{"matmul", "qsort", "gsm"}
	want := make(map[string][2]int64)
	for _, name := range names {
		p := mustProgram(t, name)
		want[name] = [2]int64{p.O0Cycles, p.O3Cycles}
	}
	var b Baselines
	const goroutines = 8
	errs := make(chan error, goroutines*len(names))
	got := make([][]*Program, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				name := names[(g+i)%len(names)]
				p, err := b.NewProgram(name, progen.Benchmark(name))
				if err != nil {
					errs <- err
					continue
				}
				got[g] = append(got[g], p)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, ps := range got {
		for _, p := range ps {
			if w := want[p.Name]; p.O0Cycles != w[0] || p.O3Cycles != w[1] {
				t.Fatalf("%s: concurrent build O0=%d O3=%d, fresh O0=%d O3=%d",
					p.Name, p.O0Cycles, p.O3Cycles, w[0], w[1])
			}
		}
	}
	if n := rememberedCount(&b); n != len(names) {
		t.Fatalf("remembered %d modules, want %d", n, len(names))
	}
}

// BenchmarkNewProgram times building a Program for one module without the
// memo (miss: both baseline profiles and the -O3 pipeline) and from a memo
// that remembers it (hit).
func BenchmarkNewProgram(b *testing.B) {
	m := progen.Benchmark("matmul")
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewProgram("matmul", m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		var memo Baselines
		if _, err := memo.NewProgram("matmul", m); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := memo.NewProgram("matmul", m); err != nil {
				b.Fatal(err)
			}
		}
	})
}
