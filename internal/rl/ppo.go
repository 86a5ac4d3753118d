package rl

import (
	"math"
	"math/rand"

	"autophase/internal/nn"
)

// PPOConfig holds the Proximal Policy Optimization hyperparameters. The
// defaults follow RLlib's PPO defaults scaled to this problem size with the
// paper's 256×256 fully connected network.
type PPOConfig struct {
	Hidden        []int
	Gamma         float64
	Lambda        float64
	Clip          float64
	LR            float64
	Epochs        int
	MinibatchSize int
	RolloutSteps  int
	EntCoef       float64
	VfCoef        float64
	Seed          int64
	// NoObsFilter disables the running mean/std observation filter
	// (RLlib's default preprocessor, on unless disabled).
	NoObsFilter bool
	// ZeroRewards replicates the paper's RL-PPO1 control: every reward is
	// forced to 0, testing whether learning signal matters.
	ZeroRewards bool
}

// DefaultPPO mirrors the paper's setting (256x256 net).
func DefaultPPO() PPOConfig {
	return PPOConfig{
		Hidden:        []int{256, 256},
		Gamma:         0.99,
		Lambda:        0.95,
		Clip:          0.2,
		LR:            5e-4,
		Epochs:        6,
		MinibatchSize: 64,
		RolloutSteps:  256,
		EntCoef:       0.01,
		VfCoef:        0.5,
		Seed:          1,
	}
}

// PPO is the clipped-surrogate PPO learner.
type PPO struct {
	Cfg    PPOConfig
	Policy *Policy
	Value  *nn.MLP
	Filter *MeanStd
	rng    *rand.Rand
	optP   *nn.Adam
	optV   *nn.Adam
	tape   *tape // built on the first update, after any RestorePPO swap

	// rollPol and rollVal are the rollout's packed copies of the nets,
	// repacked at the start of every iteration.
	rollPol, rollVal nn.Packed

	iter     int
	steps    int
	episodes int
}

// NewPPO builds a PPO agent for the given observation/action shape.
func NewPPO(cfg PPOConfig, obsSize int, dims []int) *PPO {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pol := NewPolicy(rng, obsSize, dims, cfg.Hidden...)
	vsizes := append(append([]int{obsSize}, cfg.Hidden...), 1)
	val := nn.NewMLP(rng, nn.ReLU, vsizes...)
	p := &PPO{Cfg: cfg, Policy: pol, Value: val, rng: rng}
	if !cfg.NoObsFilter {
		p.Filter = NewMeanStd(obsSize)
	}
	p.optP = nn.NewAdam(pol.Net, cfg.LR)
	p.optV = nn.NewAdam(val, cfg.LR)
	p.optP.MaxNorm = 10
	p.optV.MaxNorm = 10
	return p
}

// Act picks an action tuple for obs; greedy selects the mode. The
// observation passes through the (frozen) filter.
func (p *PPO) Act(obs []float64, greedy bool) []int {
	obs = applyFilter(p.Filter, obs)
	if greedy {
		return p.Policy.Greedy(obs)
	}
	a, _ := p.Policy.Sample(p.rng, obs)
	return a
}

// TrainIteration collects one rollout across the environments (cycled
// round-robin on episode end) and performs the PPO update, returning
// iteration statistics.
func (p *PPO) TrainIteration(envs []Env) Stats {
	p.iter++
	buf := make([]Transition, 0, p.Cfg.RolloutSteps)
	ei := p.rng.Intn(len(envs))
	env := envs[ei]
	obs := observeFilter(p.Filter, env.Reset())
	epReward, rewardSum := 0.0, 0.0
	epRews := newRewardWindow(0)

	// The weights stay fixed for the whole rollout: pack both nets once.
	p.Policy.Net.PackInto(&p.rollPol)
	p.Value.PackInto(&p.rollVal)
	for len(buf) < p.Cfg.RolloutSteps {
		actions, logp := p.Policy.sampleLogits(p.rng, p.rollPol.Forward(obs))
		val := p.rollVal.Forward(obs)[0]
		next, r, done := env.Step(actions)
		if p.Cfg.ZeroRewards {
			r = 0
		}
		buf = append(buf, Transition{
			Obs: append([]float64(nil), obs...), Actions: actions,
			Reward: r, Done: done, LogP: logp, Value: val,
		})
		epReward += r
		rewardSum += r
		obs = observeFilter(p.Filter, next)
		p.steps++
		if done {
			epRews.add(epReward)
			epReward = 0
			p.episodes++
			ei = (ei + 1) % len(envs)
			env = envs[ei]
			obs = observeFilter(p.Filter, env.Reset())
		}
	}
	lastVal := p.rollVal.Forward(obs)[0]
	computeGAE(buf, p.Cfg.Gamma, p.Cfg.Lambda, lastVal)

	// Advantage normalization (RLlib default).
	var mean, sq float64
	for _, tr := range buf {
		mean += tr.Adv
	}
	mean /= float64(len(buf))
	for _, tr := range buf {
		d := tr.Adv - mean
		sq += d * d
	}
	std := math.Sqrt(sq/float64(len(buf))) + 1e-8
	for i := range buf {
		buf[i].Adv = (buf[i].Adv - mean) / std
	}

	stats := Stats{Iteration: p.iter, TotalSteps: p.steps, TotalEpisodes: p.episodes}
	if epRews.count() > 0 {
		stats.EpisodeRewardMean = epRews.mean()
	} else {
		stats.EpisodeRewardMean = rewardSum
	}

	// Minibatch epochs over the rollout.
	idx := make([]int, len(buf))
	for i := range idx {
		idx[i] = i
	}
	if p.tape == nil {
		p.tape = newTape(p.Policy, p.Value)
	}
	t := p.tape
	var plSum, vlSum, entSum float64
	var nUpd int
	for e := 0; e < p.Cfg.Epochs; e++ {
		p.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += p.Cfg.MinibatchSize {
			end := start + p.Cfg.MinibatchSize
			if end > len(idx) {
				end = len(idx)
			}
			mb := idx[start:end]
			logits, w, values := t.forward(p.Policy, p.Value, buf, mb)
			scale := 1.0 / float64(len(mb))
			for k, i := range mb {
				tr := &buf[i]
				logp, ent := p.Policy.logProbOf(logits[k*w:(k+1)*w], tr.Actions, t.probs, t.ents)
				ratio := math.Exp(logp - tr.LogP)
				clipped := ratio < 1-p.Cfg.Clip || ratio > 1+p.Cfg.Clip
				// Surrogate: L = -min(r*A, clip(r)*A); gradient flows only
				// through the unclipped branch when it is the active min.
				pgCoef := 0.0
				if !clipped || (tr.Adv > 0 && ratio < 1-p.Cfg.Clip) || (tr.Adv < 0 && ratio > 1+p.Cfg.Clip) {
					pgCoef = tr.Adv * ratio
				}
				p.Policy.gradForHeads(t.polOut[k*w:(k+1)*w], t.probs, t.ents, tr.Actions, pgCoef*scale, p.Cfg.EntCoef*scale, t.eg)

				dv := values[k] - tr.Ret
				t.valOut[k] = 2 * p.Cfg.VfCoef * dv * scale

				plSum += -pgCoef
				vlSum += dv * dv
				entSum += ent
				nUpd++
			}
			t.backward(p.Policy, p.Value)
			p.optP.Step(p.Policy.Net, t.gp)
			p.optV.Step(p.Value, t.gv)
		}
	}
	if nUpd > 0 {
		stats.PolicyLoss = plSum / float64(nUpd)
		stats.ValueLoss = vlSum / float64(nUpd)
		stats.Entropy = entSum / float64(nUpd)
	}
	return stats
}

// Train runs iterations until totalSteps environment steps have been
// consumed, invoking cb (if non-nil) after each iteration.
func (p *PPO) Train(envs []Env, totalSteps int, cb func(Stats)) {
	for p.steps < totalSteps {
		st := p.TrainIteration(envs)
		if cb != nil {
			cb(st)
		}
	}
}
