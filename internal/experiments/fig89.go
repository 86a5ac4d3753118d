package experiments

import (
	"autophase/internal/core"
	"autophase/internal/forest"
	"autophase/internal/rl"
	"autophase/internal/search"
)

// CurvePoint is one point of a Figure 8 learning curve.
type CurvePoint struct {
	Step       int
	RewardMean float64
}

// GenSetting names one §6.2 training configuration.
type GenSetting struct {
	Name string
	Cfg  core.EnvConfig
}

// GenSettings builds the three Figure 8 configurations from an importance
// analysis: original-norm2 (all features/passes, technique 2),
// filtered-norm1 (§4-filtered spaces, technique 1) and filtered-norm2.
func GenSettings(imp *core.Importance, sc Scale) []GenSetting {
	feats := imp.TopFeatures(sc.KeepFeatures)
	pass := imp.TopPasses(sc.KeepPasses)
	base := core.EnvConfig{Obs: core.ObsBoth, EpisodeLen: sc.EpisodeLen, RewardLog: true}

	orig := base
	orig.Norm = core.NormTotal

	f1 := base
	f1.Norm = core.NormLog
	f1.FeatureMask = feats
	f1.ActionList = pass

	f2 := base
	f2.Norm = core.NormTotal
	f2.FeatureMask = feats
	f2.ActionList = pass

	return []GenSetting{
		{"original-norm2", orig},
		{"filtered-norm1", f1},
		{"filtered-norm2", f2},
	}
}

// TrainGeneralizer trains one PPO agent across all training programs under
// the setting, recording the episode-reward-mean curve (Figure 8). It
// returns the agent for later inference (Figure 9).
func TrainGeneralizer(train []*core.Program, set GenSetting, sc Scale, seed int64) (*rl.PPO, []CurvePoint) {
	envs := make([]rl.Env, len(train))
	for i, p := range train {
		envs[i] = core.NewPhaseEnv(p, set.Cfg)
	}
	cfg := rl.DefaultPPO()
	cfg.Seed = seed
	if sc.Hidden != nil {
		cfg.Hidden = sc.Hidden
	}
	if sc.LR > 0 {
		cfg.LR = sc.LR
	}
	agent := rl.NewPPO(cfg, envs[0].ObsSize(), envs[0].ActionDims())
	var curve []CurvePoint
	agent.Train(envs, sc.GenRLSteps, func(st rl.Stats) {
		curve = append(curve, CurvePoint{Step: st.TotalSteps, RewardMean: st.EpisodeRewardMean})
	})
	return agent, curve
}

// Fig8 reproduces the learning-curve comparison: the same PPO recipe under
// the three normalization/filtering settings. Higher curves mean faster
// circuits discovered per episode.
func Fig8(train []*core.Program, imp *core.Importance, sc Scale) map[string][]CurvePoint {
	out := make(map[string][]CurvePoint)
	for i, set := range GenSettings(imp, sc) {
		for _, p := range train {
			p.ResetSamples(true)
		}
		_, curve := TrainGeneralizer(train, set, sc, int64(100+i))
		out[set.Name] = curve
	}
	return out
}

// Fig9Algorithms lists the Figure 9 x-axis in the paper's order.
var Fig9Algorithms = []string{
	"-O0", "-O3", "Genetic-DEAP", "OpenTuner", "Greedy",
	"RL-filtered-norm1", "RL-filtered-norm2",
}

// Fig9 reproduces the zero-shot generalization comparison (§6.2): the
// black-box algorithms search one pass sequence minimizing the aggregate
// cycles of the training programs and transfer it verbatim; the deep-RL
// agents train on the same programs and run one greedy inference rollout
// per unseen test program. Every algorithm pays exactly one profiler
// sample per test program.
func Fig9(train, test []*core.Program, imp *core.Importance, sc Scale) []AlgoResult {
	var out []AlgoResult
	settings := GenSettings(imp, sc)

	transfer := func(name string, seqFor func() []int) AlgoResult {
		res := AlgoResult{Algo: name, PerProgram: make(map[string]float64), SamplesPerProgram: 1}
		seq := seqFor()
		for _, p := range test {
			p.ResetSamples(true)
			c, _, ok := p.Compile(seq)
			if !ok {
				c = p.O0Cycles
			}
			res.PerProgram[p.Name] = p.SpeedupOverO3(c)
		}
		res.Mean = meanImprovement(res.PerProgram)
		return res
	}

	aggObjective := func() *search.Objective {
		return &search.Objective{
			K: 45, N: sc.EpisodeLen,
			Eval: func(seq []int) (int64, bool) {
				var total int64
				for _, p := range train {
					c, _, ok := p.Compile(seq)
					if !ok {
						return 0, false
					}
					total += c
				}
				return total, true
			},
		}
	}

	for _, algo := range Fig9Algorithms {
		switch algo {
		case "-O0":
			res := AlgoResult{Algo: algo, PerProgram: make(map[string]float64), SamplesPerProgram: 1}
			for _, p := range test {
				res.PerProgram[p.Name] = p.SpeedupOverO3(p.O0Cycles)
			}
			res.Mean = meanImprovement(res.PerProgram)
			out = append(out, res)
		case "-O3":
			res := AlgoResult{Algo: algo, PerProgram: make(map[string]float64), SamplesPerProgram: 1}
			for _, p := range test {
				res.PerProgram[p.Name] = 0
			}
			out = append(out, res)
		case "Genetic-DEAP":
			out = append(out, transfer(algo, func() []int {
				r := search.Genetic(aggObjective(), rng(11), search.DefaultGA(), sc.TransferBudget)
				return r.Seq
			}))
		case "OpenTuner":
			out = append(out, transfer(algo, func() []int {
				r := search.OpenTuner(aggObjective(), rng(12), sc.TransferBudget)
				return r.Seq
			}))
		case "Greedy":
			out = append(out, transfer(algo, func() []int {
				r := search.Greedy(aggObjective(), sc.TransferBudget)
				return r.Seq
			}))
		case "RL-filtered-norm1", "RL-filtered-norm2":
			set := settings[1]
			if algo == "RL-filtered-norm2" {
				set = settings[2]
			}
			agent, _ := TrainGeneralizer(train, set, sc, hash(algo))
			res := AlgoResult{Algo: algo, PerProgram: make(map[string]float64), SamplesPerProgram: 1}
			for _, p := range test {
				p.ResetSamples(true)
				_, c, ok := core.InferGreedy(p, set.Cfg, func(obs []float64) int {
					return agent.Act(obs, true)[0]
				})
				if !ok {
					c = p.O0Cycles
				}
				res.PerProgram[p.Name] = p.SpeedupOverO3(c)
			}
			res.Mean = meanImprovement(res.PerProgram)
			out = append(out, res)
		}
	}
	return out
}

// RandomGeneralization evaluates a trained agent on n unseen random
// programs (§6.2's 12,874-program experiment, scaled) and returns the mean
// improvement over -O3.
func RandomGeneralization(agent *rl.PPO, cfg core.EnvConfig, n int, seed int64) (float64, error) {
	test, err := RandomPrograms(n, seed)
	if err != nil {
		return 0, err
	}
	per := make(map[string]float64, len(test))
	for _, p := range test {
		_, c, ok := core.InferGreedy(p, cfg, func(obs []float64) int {
			return agent.Act(obs, true)[0]
		})
		if !ok {
			c = p.O0Cycles
		}
		per[p.Name] = p.SpeedupOverO3(c)
	}
	return meanImprovement(per), nil
}

// Importance collects exploration tuples over the training programs and
// runs the §4 random-forest analysis feeding Figures 5 and 6.
func Importance(train []*core.Program, sc Scale, seed int64) *core.Importance {
	tuples := core.CollectTuplesParallel(train, sc.TupleEpisodes, sc.TupleLen, rng(seed), sc.workers())
	cfg := forest.DefaultConfig
	cfg.Trees = 16
	cfg.Seed = seed
	return core.AnalyzeImportance(tuples, cfg)
}
