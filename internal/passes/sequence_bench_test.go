package passes

import (
	"math/rand"
	"testing"

	"autophase/internal/ir"
	"autophase/internal/progen"
)

var seqSink *ir.Module

// BenchmarkRunSequence builds the IR of fixed random 18-pass sequences
// from the -O0 module of each of the nine benchmarks: the prefix-free
// build a search sample pays on a sequence-cache miss. One op runs four
// sequences per benchmark.
func BenchmarkRunSequence(b *testing.B) {
	type job struct {
		base *ir.Module
		seq  []int
	}
	rng := rand.New(rand.NewSource(1))
	var jobs []job
	for _, m := range progen.Benchmarks() {
		for k := 0; k < 4; k++ {
			seq := make([]int, 18)
			for i := range seq {
				seq[i] = rng.Intn(NumActions)
			}
			jobs = append(jobs, job{m, seq})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			seqSink, _ = RunSequence(j.base, j.seq)
		}
	}
}
