// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 and §6): the Figure 5/6 importance heat maps, Table 3's
// algorithm configurations, Figure 7's per-program comparison, Figure 8's
// generalization learning curves and Figure 9's zero-shot transfer
// comparison. cmd/experiments renders them; the root bench_test.go wraps
// them in testing.B benchmarks.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"autophase/internal/core"
	"autophase/internal/ir"
	"autophase/internal/progen"
)

// Scale sets the evaluation budgets. Full reproduces the paper's sample
// budgets; Quick shrinks everything so the whole evaluation runs in
// minutes on a laptop (relative comparisons, not absolute numbers, are the
// target — see EXPERIMENTS.md).
type Scale struct {
	Name string

	// Figure 7 per-program budgets.
	RLSteps      int // env steps for PPO1/PPO2/A3C/ES per program
	EpisodeLen   int // pass-sequence length N (45 in the paper)
	GreedyBudget int
	PPO3Steps    int
	OTBudget     int
	ESSteps      int
	GABudget     int
	RandBudget   int

	// Generalization (Figures 8/9, §6.2).
	TrainPrograms  int // 100 in the paper
	GenRLSteps     int // training steps for the generalization nets
	TransferBudget int // black-box search budget over the training set
	TestRandom     int // extra random test programs (12,874 in the paper)

	// Importance analysis (Figures 5/6).
	TupleEpisodes int // random-exploration episodes per program
	TupleLen      int

	// Filtered space sizes (§4).
	KeepFeatures int
	KeepPasses   int

	// Network size and learning rate for the deep-RL agents. The paper
	// uses 256×256; the quick scale shrinks it for wall-clock.
	Hidden []int
	LR     float64

	// Workers is the evaluation parallelism (the -workers CLI knob): batch
	// scoring in the black-box baselines, ES perturbation evaluation and
	// tuple collection all fan out this wide. 0 means one worker per
	// available CPU; Quick pins 1 so recorded trajectories stay bit-stable
	// across machines.
	Workers int
}

// workers resolves the Scale's worker count (0 = all CPUs).
func (sc Scale) workers() int {
	if sc.Workers > 0 {
		return sc.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Quick is the scaled-down default used by the benchmarks.
func Quick() Scale {
	return Scale{
		Name:         "quick",
		RLSteps:      3200,
		EpisodeLen:   18,
		GreedyBudget: 1100, PPO3Steps: 1800, OTBudget: 1300,
		ESSteps: 3200, GABudget: 1600, RandBudget: 1800,
		TrainPrograms: 10, GenRLSteps: 6000, TransferBudget: 150, TestRandom: 60,
		TupleEpisodes: 16, TupleLen: 14,
		KeepFeatures: 24, KeepPasses: 16,
		Hidden: []int{64, 64}, LR: 1e-3,
		Workers: 1,
	}
}

// Full mirrors the paper's budgets (Figure 7's dots): 88 RL samples
// translate to a few thousand env steps, greedy 2484, OpenTuner 4000,
// ES 4384, GA 6789, random 8400 samples per program, 100 training programs.
func Full() Scale {
	return Scale{
		Name:         "full",
		RLSteps:      3960,
		EpisodeLen:   45,
		GreedyBudget: 2484, PPO3Steps: 3510, OTBudget: 4000,
		ESSteps: 4384, GABudget: 6789, RandBudget: 8400,
		TrainPrograms: 100, GenRLSteps: 20000, TransferBudget: 600, TestRandom: 1000,
		TupleEpisodes: 12, TupleLen: 45,
		KeepFeatures: 24, KeepPasses: 16,
		Hidden: []int{256, 256}, LR: 5e-4,
	}
}

// BenchmarkPrograms wraps the nine real benchmarks.
func BenchmarkPrograms() ([]*core.Program, error) {
	var ps []*core.Program
	for _, name := range progen.BenchmarkNames {
		p, err := core.NewProgram(name, progen.Benchmark(name))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// RandomPrograms generates n filtered random programs starting at seed.
func RandomPrograms(n int, seed int64) ([]*core.Program, error) {
	var ps []*core.Program
	for i := 0; i < n; i++ {
		m, used := progen.GenerateFiltered(seed, progen.DefaultGen)
		seed = used + 1
		p, err := core.NewProgram(fmt.Sprintf("rand%d", used), m)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// meanImprovement aggregates per-program improvements as the geometric
// mean of the speedup ratios (1+improvement) — the standard aggregation
// for ratio data, robust to a single program with an outsized win.
func meanImprovement(per map[string]float64) float64 {
	if len(per) == 0 {
		return 0
	}
	var logSum float64
	for _, v := range per {
		r := 1 + v
		if r < 1e-6 {
			r = 1e-6
		}
		logSum += math.Log(r)
	}
	return math.Exp(logSum/float64(len(per))) - 1
}

// rng returns a deterministic source per experiment component.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// benchmarkModule builds one named benchmark module (test helper seam).
func benchmarkModule(name string) *ir.Module { return progen.Benchmark(name) }
