package core

import "testing"

// TestEngineStatsAttribution: the per-engine hit counters in EvalStats
// attribute every profile to the backend that answered it, and Auto
// answers a lowerable module through the VM.
func TestEngineStatsAttribution(t *testing.T) {
	p := mustProgram(t, "matmul")
	// NewProgram already profiled the original module and its -O3 form.
	st := p.EvalStats()
	if st.StaticHits+st.VMHits+st.InterpHits == 0 {
		t.Fatal("constructor profiles were not attributed to any engine")
	}
	before := st.VMHits + st.StaticHits + st.InterpHits

	if _, _, ok := p.Compile([]int{38}); !ok {
		t.Fatal("mem2reg compile failed")
	}
	st = p.EvalStats()
	if got := st.VMHits + st.StaticHits + st.InterpHits; got != before+1 {
		t.Fatalf("one fresh compile added %d engine hits, want 1", got-before)
	}
	if st.InterpHits != 0 || st.StaticHits != 0 {
		t.Fatalf("auto answered a lowerable module off the VM: %+v", st)
	}
}
