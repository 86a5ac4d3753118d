package rl

import (
	"math"
	"math/rand"
	"sync"

	"autophase/internal/nn"
)

// A3CConfig holds the asynchronous advantage actor-critic hyperparameters.
type A3CConfig struct {
	Hidden  []int
	Gamma   float64
	LR      float64
	EntCoef float64
	VfCoef  float64
	NSteps  int // n-step bootstrap horizon
	Workers int
	Seed    int64
}

// DefaultA3C mirrors the paper's setting.
func DefaultA3C() A3CConfig {
	return A3CConfig{
		Hidden:  []int{256, 256},
		Gamma:   0.99,
		LR:      5e-4,
		EntCoef: 0.01,
		VfCoef:  0.5,
		NSteps:  8,
		Workers: 4,
		Seed:    1,
	}
}

// A3C runs asynchronous workers that compute n-step actor-critic gradients
// against a shared parameter server (mutex-guarded, as in the original
// Hogwild-style implementation).
type A3C struct {
	Cfg    A3CConfig
	Policy *Policy
	Value  *nn.MLP
	Filter *MeanStd

	mu       sync.Mutex
	optP     *nn.Adam
	optV     *nn.Adam
	steps    int
	episodes int
	epRews   *rewardWindow
}

// NewA3C builds the shared networks.
func NewA3C(cfg A3CConfig, obsSize int, dims []int) *A3C {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pol := NewPolicy(rng, obsSize, dims, cfg.Hidden...)
	vsizes := append(append([]int{obsSize}, cfg.Hidden...), 1)
	val := nn.NewMLP(rng, nn.ReLU, vsizes...)
	a := &A3C{Cfg: cfg, Policy: pol, Value: val, Filter: NewMeanStd(obsSize),
		epRews: newRewardWindow(64)}
	a.optP = nn.NewAdam(pol.Net, cfg.LR)
	a.optV = nn.NewAdam(val, cfg.LR)
	a.optP.MaxNorm = 10
	a.optV.MaxNorm = 10
	return a
}

// Act picks an action tuple with the shared policy.
func (a *A3C) Act(obs []float64, greedy bool) []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	obs = applyFilter(a.Filter, obs)
	if greedy {
		return a.Policy.Greedy(obs)
	}
	rng := rand.New(rand.NewSource(int64(a.steps) + a.Cfg.Seed))
	act, _ := a.Policy.Sample(rng, obs)
	return act
}

// Train runs the asynchronous workers until totalSteps environment steps
// are consumed. envFactory must return an independent environment per
// worker (they run concurrently).
func (a *A3C) Train(envFactory func(worker int) Env, totalSteps int, cb func(Stats)) {
	var wg sync.WaitGroup
	per := a.Cfg.Workers
	if per < 1 {
		per = 1
	}
	for w := 0; w < per; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a.worker(w, envFactory(w), totalSteps, cb)
		}(w)
	}
	wg.Wait()
}

func (a *A3C) worker(id int, env Env, totalSteps int, cb func(Stats)) {
	rng := rand.New(rand.NewSource(a.Cfg.Seed + int64(id)*7919))
	// Local snapshots of the shared parameters.
	a.mu.Lock()
	localP := a.Policy.Net.Clone()
	localV := a.Value.Clone()
	a.mu.Unlock()
	pol := &Policy{Net: localP, Dims: a.Policy.Dims}
	t := newTape(pol, localV)

	obs := observeFilter(a.Filter, env.Reset())
	epReward := 0.0
	for {
		a.mu.Lock()
		if a.steps >= totalSteps {
			a.mu.Unlock()
			return
		}
		localP.CopyFrom(a.Policy.Net)
		localV.CopyFrom(a.Value)
		a.mu.Unlock()

		// Collect up to NSteps transitions with the local nets.
		var buf []Transition
		done := false
		for t := 0; t < a.Cfg.NSteps && !done; t++ {
			actions, logp := pol.Sample(rng, obs)
			v := localV.Forward(obs)[0]
			next, r, d := env.Step(actions)
			buf = append(buf, Transition{
				Obs: append([]float64(nil), obs...), Actions: actions,
				Reward: r, Done: d, LogP: logp, Value: v,
			})
			epReward += r
			obs = observeFilter(a.Filter, next)
			done = d
		}
		// n-step returns with bootstrap.
		ret := 0.0
		if !done {
			ret = localV.Forward(obs)[0]
		}
		rets := make([]float64, len(buf))
		advs := make([]float64, len(buf))
		for i := len(buf) - 1; i >= 0; i-- {
			ret = buf[i].Reward + a.Cfg.Gamma*ret
			rets[i] = ret
			advs[i] = ret - buf[i].Value
		}
		// Normalize advantages within the batch: raw rewards are cycle
		// counts whose magnitude would otherwise saturate the policy.
		var mean, sq float64
		for _, v := range advs {
			mean += v
		}
		mean /= float64(len(advs))
		for _, v := range advs {
			d := v - mean
			sq += d * d
		}
		std := math.Sqrt(sq/float64(len(advs))) + 1e-8
		logits, w, values := t.forward(pol, localV, buf, nil)
		for i := range buf {
			tr := &buf[i]
			adv := (advs[i] - mean) / std
			pol.logProbOf(logits[i*w:(i+1)*w], tr.Actions, t.probs, t.ents)
			pol.gradForHeads(t.polOut[i*w:(i+1)*w], t.probs, t.ents, tr.Actions, adv, a.Cfg.EntCoef, t.eg)
			t.valOut[i] = 2 * a.Cfg.VfCoef * (values[i] - rets[i])
		}
		t.backward(pol, localV)
		scale := 1.0 / float64(len(buf))
		t.gp.Scale(scale)
		t.gv.Scale(scale)

		// Apply to the shared parameters.
		a.mu.Lock()
		a.optP.Step(a.Policy.Net, t.gp)
		a.optV.Step(a.Value, t.gv)
		a.steps += len(buf)
		if done {
			a.episodes++
			a.epRews.add(epReward)
			if cb != nil {
				cb(Stats{
					TotalSteps:        a.steps,
					TotalEpisodes:     a.episodes,
					EpisodeRewardMean: a.epRews.mean(),
				})
			}
		}
		a.mu.Unlock()
		if done {
			epReward = 0
			obs = observeFilter(a.Filter, env.Reset())
		}
	}
}
