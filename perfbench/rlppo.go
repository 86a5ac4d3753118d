package main

import (
	"math/rand"
	"time"

	"autophase/internal/core"
	"autophase/internal/rl"
)

// rl-ppo trains PPO at the Quick settings (64×64 hidden layers, learning
// rate 1e-3, 128-step rollouts) on core.PhaseEnv with the 56-feature
// observation and 18-pass episodes: one fresh agent and program per
// benchmark, one thread, no artifact store. Each step applies a one-pass
// suffix to a cached prefix, so the passes and the IR prefix cache work
// incrementally while the learner's network does most of the work. A job
// is one training iteration (rollout plus update). The seed orders the
// programs; each agent's seed is fixed, so the work and the results are
// the same for every seed, and every round must find the same results.

const (
	ppoIterations = 6 // training iterations per program per round
	ppoRollout    = 128
	ppoEpisodeLen = 18
)

func runRLPPO(cfg config) (*result, error) {
	res := &result{inputKey: "rl-ppo"}
	var refs []*reference
	var err error
	res.setups, err = setUp(func() error {
		refs, err = benchmarkRefs(cfg.tiny)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	iterations, rollout := ppoIterations, ppoRollout
	if cfg.tiny {
		iterations, rollout = 1, 16
	}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(refs))
	tr := newTracer(cfg)
	var total core.EvalStats
	var first, last []best
	u0 := snapshot()
	res.rounds, err = measure(cfg, func() error {
		round := make([]best, len(refs))
		for _, i := range order {
			ref := refs[i]
			p, err := tr.newProgram(ref)
			if err != nil {
				return err
			}
			env := core.NewPhaseEnv(p, core.EnvConfig{Obs: core.ObsFeatures, EpisodeLen: ppoEpisodeLen})
			pc := rl.DefaultPPO()
			pc.Hidden = []int{64, 64}
			pc.LR = 1e-3
			pc.RolloutSteps = rollout
			pc.Seed = int64(i) + 1
			agent := rl.NewPPO(pc, env.ObsSize(), env.ActionDims())
			envs := []rl.Env{tr.wrapEnv(env, ref.mod)}
			var stats rl.Stats
			for k := 0; k < iterations; k++ {
				t0 := time.Now()
				tr.client(func() { stats = agent.TrainIteration(envs) })
				res.jobs = append(res.jobs, time.Since(t0))
				res.attempted++
			}
			res.evals += int64(stats.TotalSteps)
			st := p.EvalStats()
			total.Add(st)
			if err := checkAccounting(ref.name, st); err != nil {
				res.fail("%v", err)
				res.failedJobs++
			}
			cycles, seq := p.BestCycles()
			round[i].update(cycles, seq, p.O3Cycles)
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
	if err := res.traceBenchmarks(cfg, tr, refs, total, "PPO learner outside Env.Step/Reset"); err != nil {
		return nil, err
	}
	res.notes = append(res.notes,
		"client.call_s is the time inside core.PhaseEnv Reset/Step (rl.env_step_s); client.self_s is the PPO learner (rl.learner_s).",
		"Each replayed step applies its last pass to the already-built prefix, as the environment's IR prefix cache does.")
	return res, nil
}
