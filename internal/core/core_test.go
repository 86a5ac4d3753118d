package core

import (
	"math"
	"math/rand"
	"testing"

	"autophase/internal/features"
	"autophase/internal/forest"
	"autophase/internal/passes"
	"autophase/internal/progen"
)

func mustProgram(t *testing.T, name string) *Program {
	t.Helper()
	p, err := NewProgram(name, progen.Benchmark(name))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProgramBaselines(t *testing.T) {
	p := mustProgram(t, "matmul")
	if p.O0Cycles <= 0 || p.O3Cycles <= 0 {
		t.Fatalf("bad baselines O0=%d O3=%d", p.O0Cycles, p.O3Cycles)
	}
	if p.O3Cycles >= p.O0Cycles {
		t.Fatalf("-O3 should improve matmul: O0=%d O3=%d", p.O0Cycles, p.O3Cycles)
	}
	if s := p.SpeedupOverO3(p.O3Cycles); math.Abs(s) > 1e-12 {
		t.Fatalf("speedup at O3 cycles should be 0, got %f", s)
	}
}

func TestCompileCaching(t *testing.T) {
	p := mustProgram(t, "sha")
	seq := []int{38, 31, 30}
	c1, f1, ok := p.Compile(seq)
	if !ok {
		t.Fatal("compile failed")
	}
	n := p.Samples()
	c2, f2, _ := p.Compile(seq)
	if p.Samples() != n {
		t.Fatal("cache miss on identical sequence")
	}
	if c1 != c2 || len(f1) != len(f2) {
		t.Fatal("cache returned different result")
	}
	p.ResetSamples(true)
	if p.Samples() != 0 {
		t.Fatal("ResetSamples failed")
	}
	p.Compile(seq)
	if p.Samples() != 1 {
		t.Fatal("cache not dropped")
	}
}

func TestPhaseEnvEpisode(t *testing.T) {
	p := mustProgram(t, "mpeg2")
	cfg := DefaultEnv()
	cfg.EpisodeLen = 10
	env := NewPhaseEnv(p, cfg)
	obs := env.Reset()
	if len(obs) != env.ObsSize() {
		t.Fatalf("obs size %d != %d", len(obs), env.ObsSize())
	}
	if env.ActionDims()[0] != passes.NumActions {
		t.Fatalf("action dim %v", env.ActionDims())
	}
	total := 0.0
	steps := 0
	rng := rand.New(rand.NewSource(1))
	done := false
	for !done {
		var r float64
		obs, r, done = env.Step([]int{rng.Intn(passes.NumActions)})
		if len(obs) != env.ObsSize() {
			t.Fatal("obs size changed mid-episode")
		}
		total += r
		steps++
		if steps > cfg.EpisodeLen+1 {
			t.Fatal("episode did not terminate")
		}
	}
	// Sum of rewards telescopes to c_start - c_end.
	want := float64(p.O0Cycles - env.CurrentCycles())
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("reward sum %f != telescoped %f", total, want)
	}
}

func TestPhaseEnvHistogramObs(t *testing.T) {
	p := mustProgram(t, "adpcm")
	cfg := EnvConfig{Obs: ObsHistogram, EpisodeLen: 5}
	env := NewPhaseEnv(p, cfg)
	obs := env.Reset()
	if len(obs) != passes.NumActions {
		t.Fatalf("histogram obs size %d", len(obs))
	}
	obs, _, _ = env.Step([]int{7})
	if obs[7] != 1 {
		t.Fatalf("histogram not updated: %v", obs[:10])
	}
	obs, _, _ = env.Step([]int{7})
	if obs[7] != 2 {
		t.Fatal("histogram should count repeats")
	}
}

func TestNormalizationTechniques(t *testing.T) {
	p := mustProgram(t, "gsm")
	raw := p.Features()

	cLog := EnvConfig{Norm: NormLog}
	vLog := cLog.normalizeFeatures(raw)
	for i, v := range vLog {
		if want := math.Log1p(float64(raw[i])); math.Abs(v-want) > 1e-12 {
			t.Fatalf("log norm wrong at %d", i)
		}
	}
	cTot := EnvConfig{Norm: NormTotal}
	vTot := cTot.normalizeFeatures(raw)
	den := float64(raw[features.TotalInstructions])
	if math.Abs(vTot[features.TotalInstructions]-1.0) > 1e-12 {
		t.Fatalf("feature 51 should normalize to 1, got %f (den %f)", vTot[features.TotalInstructions], den)
	}
}

func TestFilteredSpaces(t *testing.T) {
	p := mustProgram(t, "blowfish")
	cfg := DefaultEnv()
	cfg.FeatureMask = []int{17, 23, 51}
	cfg.ActionList = []int{23, 33, 38}
	cfg.Obs = ObsBoth
	env := NewPhaseEnv(p, cfg)
	if env.ObsSize() != 3+3 {
		t.Fatalf("filtered obs size %d", env.ObsSize())
	}
	if env.ActionDims()[0] != 3 {
		t.Fatalf("filtered action dims %v", env.ActionDims())
	}
	env.Reset()
	env.Step([]int{0})
	if seq := env.Sequence(); len(seq) != 1 || seq[0] != 23 {
		t.Fatalf("action remap wrong: %v", seq)
	}
}

func TestMultiPhaseEnv(t *testing.T) {
	p := mustProgram(t, "aes")
	cfg := DefaultEnv()
	env := NewMultiPhaseEnv(p, cfg, 8, 6)
	obs := env.Reset()
	if len(obs) != env.ObsSize() {
		t.Fatalf("obs size %d != %d", len(obs), env.ObsSize())
	}
	if dims := env.ActionDims(); len(dims) != 8 || dims[0] != 3 {
		t.Fatalf("multi action dims %v", dims)
	}
	// All slots start at K/2.
	seq := env.Sequence()
	for _, s := range seq {
		if s != passes.NumActions/2 {
			t.Fatalf("slots not initialized to K/2: %v", seq)
		}
	}
	// A +1 on slot 0, -1 on slot 1, 0 elsewhere.
	acts := []int{2, 0, 1, 1, 1, 1, 1, 1}
	_, _, done := env.Step(acts)
	if done {
		t.Fatal("episode ended early")
	}
	seq = env.Sequence()
	if seq[0] != passes.NumActions/2+1 || seq[1] != passes.NumActions/2-1 || seq[2] != passes.NumActions/2 {
		t.Fatalf("slot updates wrong: %v", seq)
	}
	steps := 1
	for {
		_, _, done = env.Step(acts)
		steps++
		if done {
			break
		}
		if steps > 10 {
			t.Fatal("episode did not end")
		}
	}
	if steps != 6 {
		t.Fatalf("episode length %d want 6", steps)
	}
}

func TestImportancePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var progs []*Program
	seed := int64(300)
	for i := 0; i < 3; i++ {
		m, used := progen.GenerateFiltered(seed, progen.DefaultGen)
		seed = used + 1
		p, err := NewProgram("r", m)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	tuples := CollectTuples(progs, 4, 12, rng)
	if len(tuples) < 100 {
		t.Fatalf("too few tuples: %d", len(tuples))
	}
	cfg := forest.DefaultConfig
	cfg.Trees = 8
	imp := AnalyzeImportance(tuples, cfg)
	if len(imp.FeatureByPass) != passes.NumActions {
		t.Fatal("bad importance shape")
	}
	feats := imp.TopFeatures(24)
	if len(feats) != 24 {
		t.Fatalf("TopFeatures returned %d", len(feats))
	}
	for i := 1; i < len(feats); i++ {
		if feats[i] <= feats[i-1] {
			t.Fatal("TopFeatures not ascending/unique")
		}
	}
	pss := imp.TopPasses(16)
	// Win-rate gating may eliminate passes that never improved anything in
	// a small tuple set, so up to 16 come back.
	if len(pss) == 0 || len(pss) > 16 {
		t.Fatalf("TopPasses returned %d", len(pss))
	}
	for _, p := range pss {
		if p < 0 || p >= passes.NumActions {
			t.Fatalf("pass index out of range: %v", pss)
		}
	}
}

func TestAreaObjective(t *testing.T) {
	p := mustProgram(t, "matmul")
	cfg := DefaultEnv()
	cfg.Objective = MinimizeArea
	cfg.EpisodeLen = 4
	env := NewPhaseEnv(p, cfg)
	env.Reset()
	area0 := env.CurrentCycles()
	_, r, _ := env.Step([]int{38}) // mem2reg shrinks both area and cycles
	if env.CurrentCycles() < area0 && r <= 0 {
		t.Fatalf("area drop must earn a positive reward: r=%f", r)
	}
	// Cross-check against the profiler's area numbers.
	c, a, ok := p.CompileArea([]int{38})
	if !ok || a <= 0 || c <= 0 {
		t.Fatalf("CompileArea: c=%d a=%d ok=%v", c, a, ok)
	}
	if env.CurrentCycles() != a {
		t.Fatalf("area objective should track area: env=%d profiler=%d", env.CurrentCycles(), a)
	}
}

// TestMultiPhaseAreaObjective: the multi-action environment rewards the
// configured objective, as PhaseEnv does: under MinimizeArea its cost is the
// slot-decoded sequence's area and each step's reward is the area drop.
func TestMultiPhaseAreaObjective(t *testing.T) {
	p := mustProgram(t, "matmul")
	cfg := DefaultEnv()
	cfg.Objective = MinimizeArea
	cfg.ActionList = []int{38, 31, 30} // mem2reg, simplifycfg, instcombine
	env := NewMultiPhaseEnv(p, cfg, 2, 3)
	env.Reset()
	_, prev, ok := p.CompileArea(env.Sequence())
	if !ok || env.BestCycles() != prev {
		t.Fatalf("reset cost %d, area of %v is %d (ok=%v)", env.BestCycles(), env.Sequence(), prev, ok)
	}
	areaMoved := false
	for _, acts := range [][]int{{0, 1}, {1, 2}, {2, 0}} {
		_, r, _ := env.Step(acts)
		c, cur, ok := p.CompileArea(env.Sequence())
		if !ok {
			t.Fatalf("%v failed", env.Sequence())
		}
		if want := cfg.reward(prev, cur, p.O0Cycles); r != want {
			t.Fatalf("%v: reward %v, want the area drop %v (cycles %d)", env.Sequence(), r, want, c)
		}
		areaMoved = areaMoved || cur != prev
		prev = cur
	}
	if !areaMoved {
		t.Fatal("no step changed the area; the test cannot tell area from cycles")
	}
}

func TestAreaDelayObjective(t *testing.T) {
	p := mustProgram(t, "sha")
	cfg := DefaultEnv()
	cfg.Objective = MinimizeAreaDelay
	cfg.EpisodeLen = 3
	env := NewPhaseEnv(p, cfg)
	env.Reset()
	c, a, _ := p.CompileArea(nil)
	if want := c * a / 1024; env.CurrentCycles() != want {
		t.Fatalf("area-delay objective: env=%d want=%d", env.CurrentCycles(), want)
	}
}

func TestInferGreedyCostsOneSample(t *testing.T) {
	p := mustProgram(t, "mpeg2")
	p.ResetSamples(true)
	cfg := DefaultEnv()
	cfg.EpisodeLen = 10
	// A fixed "policy" applying mem2reg then simplifycfg then stopping via
	// out-of-range.
	step := 0
	seq, cycles, ok := InferGreedy(p, cfg, func(obs []float64) int {
		step++
		switch step {
		case 1:
			return 38
		case 2:
			return 31
		default:
			return -1
		}
	})
	if !ok || cycles <= 0 {
		t.Fatal("inference failed")
	}
	if len(seq) != 2 || seq[0] != 38 || seq[1] != 31 {
		t.Fatalf("sequence %v", seq)
	}
	if p.Samples() != 1 {
		t.Fatalf("inference cost %d samples, want 1 (features are free)", p.Samples())
	}
}

func TestIncrementalCompileMatchesFromScratch(t *testing.T) {
	// The prefix-cached IR path must produce identical results to a cold
	// compile of the full sequence.
	p1 := mustProgram(t, "aes")
	p2 := mustProgram(t, "aes")
	seq := []int{38, 23, 29, 33, 30, 31, 7, 28}
	// p1: incremental (prefix by prefix, as an env would).
	for i := 1; i <= len(seq); i++ {
		p1.Compile(seq[:i])
	}
	c1, f1, ok1 := p1.Compile(seq)
	// p2: straight to the full sequence.
	c2, f2, ok2 := p2.Compile(seq)
	if !ok1 || !ok2 || c1 != c2 {
		t.Fatalf("incremental %d vs cold %d (ok %v/%v)", c1, c2, ok1, ok2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("feature %d differs: %d vs %d", i, f1[i], f2[i])
		}
	}
}
