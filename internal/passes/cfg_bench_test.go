package passes

import (
	"testing"

	"autophase/internal/ir"
	"autophase/internal/progen"
)

// Sinks keep the compiler from dropping the measured calls.
var (
	domSink   *ir.DomTree
	loopsSink []*ir.Loop
)

// cfgBenchFuncs returns every function of the nine benchmarks after
// mem2reg and loop-simplify, the shape the loop passes see.
func cfgBenchFuncs() []*ir.Func {
	var fs []*ir.Func
	for _, m := range progen.Benchmarks() {
		Apply(m, []int{38, 29}) // mem2reg, loop-simplify
		fs = append(fs, m.Funcs...)
	}
	return fs
}

// BenchmarkNewDomTree builds the dominator tree of every benchmark
// function once per op.
func BenchmarkNewDomTree(b *testing.B) {
	fs := cfgBenchFuncs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			domSink = ir.NewDomTree(f)
		}
	}
}

// BenchmarkLoopsOf runs the loop passes' analysis (dominator tree, loop
// finder, innermost-first order) on every benchmark function once per op.
// Sealing the module first drops the tree and loops the last op cached.
func BenchmarkLoopsOf(b *testing.B) {
	fs := cfgBenchFuncs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			f.Module().Seal()
			loopsSink = loopsOf(f)
		}
	}
}

// BenchmarkLoopsOfCached is BenchmarkLoopsOf on functions whose CFG has
// not changed since the last op: the cached loops are checked against the
// CFG, copied and ordered.
func BenchmarkLoopsOfCached(b *testing.B) {
	fs := cfgBenchFuncs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			loopsSink = loopsOf(f)
		}
	}
}
