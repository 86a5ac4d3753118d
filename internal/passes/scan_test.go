package passes

import (
	"fmt"
	"testing"

	"autophase/internal/ir"
	"autophase/internal/progen"
)

// TestScansAreSound pins the no-op scan contract: wherever a pass's scan
// says false, running the pass on a clone reports no change and leaves the
// clone as it was. It walks the nine benchmarks and a few generated
// modules through every prefix of the -O3 pipeline. A funcPass scan is
// checked per function, a modPass scan per module.
func TestScansAreSound(t *testing.T) {
	var scanned []int
	for idx, p := range table1 {
		switch p := p.(type) {
		case funcPass:
			if p.scan != nil {
				scanned = append(scanned, idx)
			}
		case modPass:
			if p.scan != nil {
				scanned = append(scanned, idx)
			}
		}
	}
	// 20 passes plus -terminate.
	if len(scanned) != 21 {
		t.Fatalf("%d table entries carry a scan, want 21: %v", len(scanned), scanned)
	}

	mods, names := progen.Benchmarks(), append([]string(nil), progen.BenchmarkNames...)
	n := 4
	if testing.Short() {
		n = 2
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		mods = append(mods, progen.Generate(seed, progen.DefaultGen))
		names = append(names, fmt.Sprintf("progen-%d", seed))
	}
	negatives := 0
	for i, cur := range mods {
		for k := 0; k <= len(O3Sequence); k++ {
			where := fmt.Sprintf("%s after %d -O3 passes", names[i], k)
			for _, idx := range scanned {
				negatives += checkScan(t, where, table1[idx], cur)
			}
			if k < len(O3Sequence) {
				Apply(cur, O3Sequence[k:k+1])
			}
		}
	}
	if negatives == 0 {
		t.Fatal("no scan ever said false; the test checked nothing")
	}
}

// checkScan runs p on a clone of m wherever p's scan says false, fails t if
// the run reports or makes a change, and returns how many scans said false.
func checkScan(t *testing.T, where string, p Pass, m *ir.Module) int {
	t.Helper()
	negatives := 0
	switch p := p.(type) {
	case funcPass:
		for fi, f := range m.Funcs {
			if p.scan(f) {
				continue
			}
			negatives++
			c := m.Clone()
			want := c.String()
			if p.run(c.Funcs[fi]) || c.String() != want {
				t.Errorf("%s: %s scan said no change to @%s, but the pass changed it",
					where, p.name, f.Name)
			}
		}
	case modPass:
		if p.scan(m) {
			return 0
		}
		negatives++
		c := m.Clone()
		want := c.String()
		if p.run(c) || c.String() != want {
			t.Errorf("%s: %s scan said no change, but the pass changed the module", where, p.name)
		}
	}
	return negatives
}
