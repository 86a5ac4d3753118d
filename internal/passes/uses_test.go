package passes

import (
	"testing"

	"autophase/internal/ir"
	"autophase/internal/progen"
)

// TestUseIndexMatchesUses checks the flat use index against f.Uses for
// every instruction of the nine benchmarks after each -O3 prefix and of a
// few generated programs: same users, same order, each user once.
func TestUseIndexMatchesUses(t *testing.T) {
	check := func(what string, m *ir.Module) {
		for _, f := range m.Funcs {
			x := newUseIndex(f)
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					got, want := x.of(in), f.Uses(in)
					if len(got) != len(want) {
						t.Fatalf("%s/%s: %d users indexed, f.Uses has %d", what, f.Name, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s/%s: user %d differs", what, f.Name, i)
						}
					}
				}
			}
			if x.of(&ir.Instr{Op: ir.OpAdd, Ty: ir.I32}) != nil {
				t.Fatalf("%s/%s: an instruction outside f has users", what, f.Name)
			}
		}
	}
	for i, m := range progen.Benchmarks() {
		for n := 0; n <= len(O3Sequence); n++ {
			check(progen.BenchmarkNames[i], m)
			if n < len(O3Sequence) {
				Apply(m, O3Sequence[n:n+1])
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		m := progen.Generate(seed, progen.DefaultGen)
		check("generated", m)
		Apply(m, []int{38, 30, 26}) // mem2reg, instcombine, early-cse
		check("generated+O", m)
	}
}
