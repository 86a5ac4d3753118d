package core

import (
	"fmt"
	"math/rand"
	"testing"

	"autophase/internal/progen"
)

// BenchmarkCompileParallel measures batch-evaluation throughput at
// increasing worker counts over one matmul-scale program. Each iteration
// drops the compile cache first, so the benchmark measures real compiles
// plus the sequence table's coordination, not memoized lookups.
func BenchmarkCompileParallel(b *testing.B) {
	p, err := NewProgram("matmul", progen.Benchmark("matmul"))
	if err != nil {
		b.Fatal(err)
	}
	seqs := randSeqs(rand.New(rand.NewSource(17)), 64, 8)

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ev := NewEvaluator(p, workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.ResetSamples(true)
				ev.EvalBatch(seqs)
			}
			b.ReportMetric(float64(b.N*len(seqs))/b.Elapsed().Seconds(), "compiles/s")
		})
	}
}

// BenchmarkCompileNoOpSuffix measures the no-op fast path: every sequence
// is a changing optimization prefix followed by a distinct all-no-op suffix
// (lowerinvoke/loweratomic never fire), so each Compile walks buildIR for a
// new key but must reuse the prefix module and its fingerprint outright —
// no re-hash, no physical profile. After the first compile has recorded
// both passes as no-ops on the prefix's fingerprint in the pass-step table,
// the walk skips every pass of a suffix without cloning or running it. The
// suffix encodes the iteration index in base 2 over the two no-op passes so
// no key repeats within a run.
func BenchmarkCompileNoOpSuffix(b *testing.B) {
	p, err := NewProgram("matmul", progen.Benchmark("matmul"))
	if err != nil {
		b.Fatal(err)
	}
	prefix := []int{38, 31, 30} // mem2reg, simplifycfg, instcombine
	if _, _, ok := p.Compile(prefix); !ok {
		b.Fatal("prefix compile failed")
	}
	noop := [2]int{2, 44} // lowerinvoke, loweratomic
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := append([]int(nil), prefix...)
		for v := i; ; v /= 2 {
			seq = append(seq, noop[v%2])
			if v < 2 {
				break
			}
		}
		if _, _, ok := p.Compile(seq); !ok {
			b.Fatal("compile failed")
		}
	}
	b.StopTimer()
	st := p.EvalStats()
	if st.Compiles != 1 {
		b.Fatalf("no-op suffixes triggered %d physical compiles, want 1", st.Compiles)
	}
	b.ReportMetric(float64(st.NoopIR), "noop-reuses")
}
