package main

import (
	"math/rand"
	"time"

	"autophase/internal/core"
	"autophase/internal/search"
)

// search-sweep is the black-box half of Figure 7. Every round runs Greedy,
// OpenTuner, the DEAP-style genetic algorithm and random search on each of
// the nine benchmarks, one job per (program, algorithm). Each job builds a
// fresh core.Program and a one-worker core.Evaluator with no artifact
// store, so nearly every sample applies a full-length pass sequence from
// scratch: the reward path (passes, then the engines) does almost all the
// work. No RL runs.
//
// One worker, because on a two-vCPU VM the second vCPU delivers anywhere
// from about 60% to all of a core, changing within seconds: two workers
// kept both busy and their throughput drifted by more than the benchmark's
// bounds between sets of runs, while one-thread work stays steady. The seed orders the jobs; each job's search seed is fixed, so the
// work and the results are the same for every seed (speedup_vs_o3_pct is
// pinned), and every round must find the same results as the first.

const sweepSeqLen = 18 // the Quick scale's pass-sequence length

// sweepAlgos are the four searches with their per-program sample budgets:
// one eighth of the Quick scale's, so that a round takes a few seconds.
var sweepAlgos = []struct {
	name   string
	budget int
}{
	{"greedy", 1100 / 8},
	{"opentuner", 1300 / 8},
	{"genetic", 1600 / 8},
	{"random", 1800 / 8},
}

func runSearchSweep(cfg config) (*result, error) {
	res := &result{inputKey: "search-sweep"}
	var refs []*reference
	var err error
	res.setups, err = setUp(func() error {
		refs, err = benchmarkRefs(cfg.tiny)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	type job struct{ prog, algo int }
	var order []job
	for i := range refs {
		for a := range sweepAlgos {
			order = append(order, job{i, a})
		}
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	tr := newTracer(cfg)
	var total core.EvalStats
	var first, last []best
	u0 := snapshot()
	res.rounds, err = measure(cfg, func() error {
		found := make([][]best, len(refs))
		for i := range found {
			found[i] = make([]best, len(sweepAlgos))
		}
		for _, jb := range order {
			ref, algo := refs[jb.prog], sweepAlgos[jb.algo]
			budget := algo.budget
			if cfg.tiny {
				budget = 12
			}
			rng := rand.New(rand.NewSource(int64(jb.prog)*101 + int64(jb.algo) + 1))
			t0 := time.Now()
			p, err := tr.newProgram(ref)
			if err != nil {
				return err
			}
			ev := core.NewEvaluator(p, 1)
			obj := ev.Objective(sweepSeqLen)
			tr.wrapObjective(obj, ref.mod)
			tr.client(func() {
				switch algo.name {
				case "greedy":
					search.Greedy(obj, budget)
				case "opentuner":
					search.OpenTuner(obj, rng, budget)
				case "genetic":
					search.Genetic(obj, rng, search.DefaultGA(), budget)
				default:
					search.Random(obj, rng, budget)
				}
			})
			res.jobs = append(res.jobs, time.Since(t0))
			res.attempted++
			st := ev.Stats()
			total.Add(st)
			res.evals += int64(obj.Samples())
			if err := checkAccounting(ref.name+"/"+algo.name, st); err != nil {
				res.fail("%v", err)
				res.failedJobs++
			}
			cycles, seq := p.BestCycles()
			found[jb.prog][jb.algo].update(cycles, seq, p.O3Cycles)
		}
		// Reduce in algorithm order, so ties resolve the same for every
		// job order.
		round := make([]best, len(refs))
		for i := range refs {
			for _, f := range found[i] {
				round[i].update(f.cycles, f.seq, f.o3)
			}
		}
		if first == nil {
			first = round
		} else if !sameBests(first, round) {
			res.fail("round %d found different best results than round 1", len(res.rounds)+1)
		}
		last = round
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.use = snapshot().sub(u0)
	res.samples = total.Samples
	res.speedup = speedupPct(last)
	for i, ref := range refs {
		if err := ref.check(last[i].seq); err != nil {
			res.fail("%v", err)
		}
	}
	if tr == nil {
		return res, nil
	}
	if err := res.traceBenchmarks(cfg, tr, refs, total, "search algorithms outside Objective.EvalBatch"); err != nil {
		return nil, err
	}
	res.notes = append(res.notes,
		"client.call_s is the time inside core.Evaluator.EvalBatch (the reward path, one worker); client.self_s is the search algorithms' own time.",
		"passes.RunSequence is counted once per sample: a sample is a sequence-cache miss, and every miss builds its IR; fingerprint hits skip only the engine.")
	return res, nil
}
