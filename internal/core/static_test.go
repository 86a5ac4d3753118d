package core

import (
	"testing"

	"autophase/internal/hls"
	"autophase/internal/interp"
	"autophase/internal/passes"
	"autophase/internal/progen"
)

// TestIRCacheEvictionOrder pins the irCache replacement policy: the cache
// never exceeds its cap, unrelated sequences are evicted oldest-first, and
// extending an episode never evicts the extension's own prefix chain.
func TestIRCacheEvictionOrder(t *testing.T) {
	oldCap := irCacheCap
	irCacheCap = 4
	defer func() { irCacheCap = oldCap }()

	p := mustProgram(t, "matmul")
	episode := []int{38, 31, 30, 29, 23, 30}
	for i := 1; i <= len(episode); i++ {
		p.Compile(episode[:i])
		if len(p.irCache) > irCacheCap {
			t.Fatalf("after %d extensions irCache holds %d modules, cap %d",
				i, len(p.irCache), irCacheCap)
		}
		if len(p.irCache) != len(p.irOrder) {
			t.Fatalf("irOrder out of sync: %d keys vs %d modules", len(p.irOrder), len(p.irCache))
		}
	}
	// The episode is longer than the cap, so early prefixes were evicted —
	// but the longest prefix (the episode's direct parent) must be resident
	// so the next extension applies exactly one pass.
	if _, ok := p.irCache[seqKey(episode[:len(episode)-1])]; !ok {
		t.Fatal("direct parent prefix of the active episode was evicted")
	}
	// Unrelated sequences are evicted before the active episode's prefixes.
	p.ResetSamples(true)
	for _, seq := range [][]int{{5}, {6}, {7}} {
		p.Compile(seq)
	}
	for i := 1; i <= 4; i++ {
		p.Compile(episode[:i])
	}
	for i := 1; i <= 4; i++ {
		if _, ok := p.irCache[seqKey(episode[:i])]; !ok {
			t.Fatalf("episode prefix of length %d evicted while unrelated entries were cached", i)
		}
	}
	for _, seq := range [][]int{{5}, {6}, {7}} {
		if _, ok := p.irCache[seqKey(seq)]; ok {
			t.Fatalf("unrelated sequence %v survived eviction ahead of the active episode", seq)
		}
	}
}

// TestLimitErrorsNotCached: a profile failing on interpreter limits must
// not be memoized as a compile result — every retry pays (and counts) a
// fresh profiler sample, since the verdict depends on the configured
// limits.
func TestLimitErrorsNotCached(t *testing.T) {
	p := mustProgram(t, "matmul")
	p.SetLimits(interp.Limits{MaxSteps: 10, MaxDepth: 256, MaxCells: 1 << 20})
	seq := []int{38}
	if _, _, ok := p.Compile(seq); ok {
		t.Fatal("compile must fail under a 10-step limit")
	}
	n := p.Samples()
	if _, _, ok := p.Compile(seq); ok {
		t.Fatal("second compile must fail too")
	}
	if p.Samples() != n+1 {
		t.Fatalf("failed compile was served from cache: samples %d -> %d", n, p.Samples())
	}
	// Restoring the limits makes the same sequence compile again.
	p.SetLimits(interp.DefaultLimits)
	if _, _, ok := p.Compile(seq); !ok {
		t.Fatal("compile must succeed under default limits")
	}
	n = p.Samples()
	if _, _, ok := p.Compile(seq); !ok || p.Samples() != n {
		t.Fatal("successful compile must be cached")
	}
}

// TestEnvStaticFastPath: a phase-ordering episode on matmul gets its
// reward from the VM even once mem2reg puts the module inside the SCEV
// static estimator's fragment. The estimator stays off the reward path
// outside the sanitizer, a pinned static profiler returns the same cycles
// and steps, and the sanitizer's cross-check still counts its agreement.
func TestEnvStaticFastPath(t *testing.T) {
	p := mustProgram(t, "matmul")
	env := NewPhaseEnv(p, DefaultEnv())
	env.Reset()
	before := p.EvalStats()
	if _, _, done := env.Step([]int{38}); done { // mem2reg
		t.Fatal("episode ended on the first step")
	}
	after := p.EvalStats()
	if after.StaticHits != 0 || after.VMHits != before.VMHits+1 {
		t.Fatalf("mem2reg'd matmul: static hits %d, VM hits %d -> %d; want 0 static and one VM hit",
			after.StaticHits, before.VMHits, after.VMHits)
	}
	cycles, _, ok := p.Compile([]int{38})
	if !ok {
		t.Fatal("compile failed")
	}

	m := progen.Benchmark("matmul")
	passes.Apply(m, []int{38})
	auto, err := hls.NewProfiler(hls.ProfileOptions{}).Profile(m)
	if err != nil {
		t.Fatal(err)
	}
	static, err := hls.NewProfiler(hls.ProfileOptions{Engine: hls.EngineStatic}).Profile(m)
	if err != nil {
		t.Fatalf("pinned static profiler declined mem2reg'd matmul: %v", err)
	}
	if auto.Cycles != cycles || static.Cycles != cycles || static.Steps != auto.Steps {
		t.Fatalf("program cycles %d; auto cycles=%d steps=%d; static cycles=%d steps=%d",
			cycles, auto.Cycles, auto.Steps, static.Cycles, static.Steps)
	}

	p2 := mustProgram(t, "matmul")
	p2.EnableSanitizer()
	c2, _, ok2 := p2.Compile([]int{38})
	if !ok2 || c2 != cycles {
		t.Fatalf("sanitized compile disagrees: %d vs %d (ok=%v)", c2, cycles, ok2)
	}
	if p2.EvalStats().StaticHits == 0 {
		t.Fatal("sanitized compile did not count the static estimator's agreement")
	}
}
