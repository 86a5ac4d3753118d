// Worker-count determinism sweep: every population-style consumer of the
// evaluation engine must produce bit-identical results (and identical
// sample accounting) at workers=1 and workers=8. This is the engine's core
// contract — parallelism buys wall-clock, never a different answer.
package autophase_test

import (
	"math/rand"
	"reflect"
	"testing"

	"autophase/internal/core"
	"autophase/internal/progen"
	"autophase/internal/rl"
	"autophase/internal/search"
)

// core.Env is a superset of what the rl trainers need; the sweep relies on
// passing core environments straight into rl.
var _ rl.Env = (core.Env)(nil)

func detProgram(t *testing.T, name string) *core.Program {
	t.Helper()
	p, err := core.NewProgram(name, progen.Benchmark(name))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestESWorkerDeterminism(t *testing.T) {
	run := func(workers int) ([]int, int64, int) {
		p := detProgram(t, "matmul")
		envCfg := core.DefaultEnv()
		envCfg.Obs = core.ObsFeatures
		envCfg.EpisodeLen = 6
		// The candidate→environment mapping (i%len(envs)) is part of the
		// trajectory, so the env count stays fixed; only Workers varies.
		envs := make([]rl.Env, 8)
		for i := range envs {
			envs[i] = core.NewPhaseEnv(p, envCfg)
		}
		cfg := rl.DefaultES()
		cfg.Hidden = []int{16}
		cfg.Population = 4
		cfg.Seed = 5
		cfg.Workers = workers
		agent := rl.NewES(cfg, envs[0].ObsSize(), envs[0].ActionDims())
		for g := 0; g < 2; g++ {
			agent.Generation(envs)
		}
		best, seq := p.BestCycles()
		return seq, best, p.Samples()
	}
	seq1, best1, n1 := run(1)
	seq8, best8, n8 := run(8)
	if best1 != best8 || !reflect.DeepEqual(seq1, seq8) {
		t.Fatalf("ES best diverged: workers=1 (%d, %v) vs workers=8 (%d, %v)",
			best1, seq1, best8, seq8)
	}
	if n1 != n8 {
		t.Fatalf("ES sample counts diverged: workers=1 %d vs workers=8 %d", n1, n8)
	}
}

func TestGeneticWorkerDeterminism(t *testing.T) {
	search1 := func(ev *core.Evaluator) (search.Result, int) {
		r := search.Genetic(ev.Objective(8), rand.New(rand.NewSource(9)), search.DefaultGA(), 120)
		return r, ev.Program().Samples()
	}
	run := func(workers int) (search.Result, int) {
		return search1(core.NewEvaluator(detProgram(t, "matmul"), workers))
	}
	r1, n1 := run(1)
	r8, n8 := run(8)
	if r1.Cycles != r8.Cycles || r1.Samples != r8.Samples || !reflect.DeepEqual(r1.Seq, r8.Seq) {
		t.Fatalf("genetic diverged: workers=1 %+v vs workers=8 %+v", r1, r8)
	}
	if n1 != n8 {
		t.Fatalf("genetic sample counts diverged: workers=1 %d vs workers=8 %d", n1, n8)
	}

	// Two searches on one shared budget, as the service runs its jobs:
	// each must match its own one-worker run.
	budget := core.NewBudget(3)
	rq1, nq1 := search1(core.NewEvaluator(detProgram(t, "qsort"), 1))
	var rs, rq search.Result
	var ns, nq int
	qsort := budget.Evaluator(detProgram(t, "qsort"))
	done := make(chan struct{})
	go func() {
		defer close(done)
		rq, nq = search1(qsort)
	}()
	rs, ns = search1(budget.Evaluator(detProgram(t, "matmul")))
	<-done
	if rs.Cycles != r1.Cycles || !reflect.DeepEqual(rs.Seq, r1.Seq) || ns != n1 {
		t.Fatalf("genetic on a shared budget diverged: %+v (%d samples) vs workers=1 %+v (%d samples)", rs, ns, r1, n1)
	}
	if rq.Cycles != rq1.Cycles || !reflect.DeepEqual(rq.Seq, rq1.Seq) || nq != nq1 {
		t.Fatalf("concurrent genetic on a shared budget diverged: %+v (%d samples) vs workers=1 %+v (%d samples)", rq, nq, rq1, nq1)
	}
}

func TestRandomWorkerDeterminism(t *testing.T) {
	run := func(workers int) (search.Result, int) {
		p := detProgram(t, "qsort")
		obj := core.NewEvaluator(p, workers).Objective(10)
		r := search.Random(obj, rand.New(rand.NewSource(4)), 100)
		return r, p.Samples()
	}
	r1, n1 := run(1)
	r8, n8 := run(8)
	if r1.Cycles != r8.Cycles || !reflect.DeepEqual(r1.Seq, r8.Seq) || n1 != n8 {
		t.Fatalf("random search diverged: workers=1 %+v (%d samples) vs workers=8 %+v (%d samples)",
			r1, n1, r8, n8)
	}
}
