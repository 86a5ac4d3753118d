package experiments

import (
	"autophase/internal/core"
	"autophase/internal/passes"
	"autophase/internal/rl"
	"autophase/internal/search"
)

// AlgoResult is one bar (plus its samples-per-program dot) of Figure 7 or
// Figure 9.
type AlgoResult struct {
	Algo              string
	PerProgram        map[string]float64 // fractional improvement over -O3
	Mean              float64
	SamplesPerProgram float64
}

// Fig7Algorithms lists the Figure 7 x-axis in the paper's order.
var Fig7Algorithms = []string{
	"-O0", "-O3", "RL-PPO1", "RL-PPO2", "RL-A3C", "Greedy",
	"RL-PPO3", "OpenTuner", "RL-ES", "Genetic-DEAP", "random",
}

// Fig7 reproduces the §6.1 per-program comparison: every algorithm
// optimizes each of the nine benchmarks independently (unnormalized
// features, pass length N); the score is the best cycle count the
// algorithm's profiler samples discovered.
func Fig7(programs []*core.Program, sc Scale) []AlgoResult {
	var out []AlgoResult
	for _, algo := range Fig7Algorithms {
		res := AlgoResult{Algo: algo, PerProgram: make(map[string]float64)}
		var totalSamples float64
		for _, p := range programs {
			p.ResetSamples(true)
			best := RunFig7Algo(algo, p, sc)
			res.PerProgram[p.Name] = p.SpeedupOverO3(best)
			if algo == "-O0" || algo == "-O3" {
				totalSamples++
			} else {
				totalSamples += float64(p.Samples())
			}
		}
		res.Mean = meanImprovement(res.PerProgram)
		res.SamplesPerProgram = totalSamples / float64(len(programs))
		out = append(out, res)
	}
	return out
}

// RunFig7Algo runs one algorithm on one program and returns the best cycle
// count it discovered.
func RunFig7Algo(algo string, p *core.Program, sc Scale) int64 {
	switch algo {
	case "-O0":
		return p.O0Cycles
	case "-O3":
		return p.O3Cycles
	case "RL-PPO1": // PPO explorer with zeroed rewards (control).
		cfg := ppoCfg(sc)
		cfg.ZeroRewards = true
		env := core.NewPhaseEnv(p, envCfg(core.ObsFeatures, sc))
		agent := rl.NewPPO(cfg, env.ObsSize(), env.ActionDims())
		agent.Train([]rl.Env{env}, sc.RLSteps, nil)
	case "RL-PPO2": // PPO on the applied-pass histogram.
		cfg := ppoCfg(sc)
		env := core.NewPhaseEnv(p, envCfg(core.ObsHistogram, sc))
		agent := rl.NewPPO(cfg, env.ObsSize(), env.ActionDims())
		agent.Train([]rl.Env{env}, sc.RLSteps, nil)
	case "RL-A3C": // A3C on program features.
		cfg := rl.DefaultA3C()
		cfg.Workers = sc.workers()
		cfg.Hidden = sc.Hidden
		cfg.LR = sc.LR
		cfg.EntCoef = 0.02
		proto := core.NewPhaseEnv(p, envCfg(core.ObsFeatures, sc))
		agent := rl.NewA3C(cfg, proto.ObsSize(), proto.ActionDims())
		agent.Train(func(w int) rl.Env {
			return core.NewPhaseEnv(p, envCfg(core.ObsFeatures, sc))
		}, sc.RLSteps, nil)
	case "Greedy":
		obj := objective(p, sc)
		search.Greedy(obj, sc.GreedyBudget)
	case "RL-PPO3": // multiple passes per action (§5.2).
		cfg := ppoCfg(sc)
		cfg.RolloutSteps = min(128, sc.PPO3Steps)
		slots := sc.EpisodeLen
		// Slots start at K/2 (§5.2); the episode must be long enough for a
		// slot to drift to any pass index.
		steps := sc.EpisodeLen + passes.NumActions/2 + 3
		env := core.NewMultiPhaseEnv(p, envCfg(core.ObsBoth, sc), slots, steps)
		agent := rl.NewPPO(cfg, env.ObsSize(), env.ActionDims())
		agent.Train([]rl.Env{env}, sc.PPO3Steps, nil)
	case "OpenTuner":
		obj := objective(p, sc)
		search.OpenTuner(obj, rng(hash(p.Name)+2), sc.OTBudget)
	case "RL-ES":
		cfg := rl.DefaultES()
		cfg.Population = 8
		cfg.Sigma = 0.12
		cfg.Hidden = sc.Hidden
		cfg.LR = 0.08
		cfg.Workers = sc.workers()
		// One environment per worker: perturbations spread across them
		// through the sharded compile cache (candidate i on env i%w).
		envs := make([]rl.Env, sc.workers())
		for i := range envs {
			envs[i] = core.NewPhaseEnv(p, envCfg(core.ObsFeatures, sc))
		}
		agent := rl.NewES(cfg, envs[0].ObsSize(), envs[0].ActionDims())
		agent.Train(envs, sc.ESSteps, nil)
	case "Genetic-DEAP":
		obj := objective(p, sc)
		search.Genetic(obj, rng(hash(p.Name)+3), search.DefaultGA(), sc.GABudget)
	case "random":
		obj := objective(p, sc)
		search.Random(obj, rng(hash(p.Name)+4), sc.RandBudget)
	}
	best, _ := p.BestCycles()
	return best
}

// ppoCfg instantiates the scale's PPO hyperparameters.
func ppoCfg(sc Scale) rl.PPOConfig {
	cfg := rl.DefaultPPO()
	cfg.Hidden = sc.Hidden
	cfg.LR = sc.LR
	cfg.RolloutSteps = min(128, sc.RLSteps)
	return cfg
}

func envCfg(obs core.ObsKind, sc Scale) core.EnvConfig {
	cfg := core.DefaultEnv()
	cfg.Obs = obs
	cfg.EpisodeLen = sc.EpisodeLen
	return cfg
}

// objective adapts a Program to the black-box search interface through the
// batch evaluation engine (sc.workers() concurrent compiles).
func objective(p *core.Program, sc Scale) *search.Objective {
	return core.NewEvaluator(p, sc.workers()).Objective(sc.EpisodeLen)
}

func hash(s string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range s {
		h = (h ^ int64(c)) * 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
