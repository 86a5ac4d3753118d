package passes_test

import (
	"testing"

	"autophase/internal/passes"
	"autophase/internal/progen"
)

// TestUnchangedMeansUntouched pins the changed-reporting contract every
// pass owes the copy-on-write pipeline: a run that reports no change must
// leave the module exactly as it found it. Copy-on-write modules keep such
// a run's scratch function and hand it to the next pass as if it were the
// parent, so an under-reporting pass would leak its mutation instead of
// having it discarded. FuzzCloneCOW only catches that when the fuzzer
// reaches the pass; this walks every pass over the nine benchmarks after
// each prefix of the -O3 pipeline, deterministically.
func TestUnchangedMeansUntouched(t *testing.T) {
	for i, cur := range progen.Benchmarks() {
		name := progen.BenchmarkNames[i]
		for n := 0; n <= len(passes.O3Sequence); n++ {
			ref := cur.Clone()
			want, wantFP := ref.String(), ref.Fingerprint()
			for idx := 0; idx < passes.NumActions; idx++ {
				m := cur.Clone()
				if passes.ByIndex(idx).Run(m) {
					continue
				}
				if m.String() != want || m.Fingerprint() != wantFP {
					t.Errorf("%s after %d -O3 passes: %s reported no change but rewrote the module",
						name, n, passes.Table1Names[idx])
				}
			}
			if n < len(passes.O3Sequence) {
				passes.Apply(cur, passes.O3Sequence[n:n+1])
			}
		}
	}
}
