package rl

import (
	"fmt"
	"math/rand"
	"testing"
)

// synthEnv has the phase-ordering environment's shape without a compiler:
// 56-float observations, 46 actions and 18-step episodes. Observations are
// seeded noise on feature-count scales, and the reward favours one action
// per step, so the learner's cost is all that a benchmark measures.
type synthEnv struct {
	rng  *rand.Rand
	step int
}

func (e *synthEnv) obs() []float64 {
	o := make([]float64, 56)
	for i := range o {
		o[i] = float64(e.rng.Intn(200))
	}
	return o
}

func (e *synthEnv) Reset() []float64 {
	e.step = 0
	return e.obs()
}

func (e *synthEnv) Step(actions []int) ([]float64, float64, bool) {
	r := 0.0
	if actions[0] == (e.step*7)%46 {
		r = 1
	}
	e.step++
	return e.obs(), r, e.step >= 18
}

func (e *synthEnv) ActionDims() []int { return []int{46} }
func (e *synthEnv) ObsSize() int      { return 56 }

// BenchmarkPPOTrainIteration times one PPO iteration (rollout plus six
// epochs of 64-sample minibatches) at the benchmark's 64×64 hidden layers
// and the paper's 256×256.
func BenchmarkPPOTrainIteration(b *testing.B) {
	for _, h := range []int{64, 256} {
		b.Run(fmt.Sprintf("hidden=%dx%d", h, h), func(b *testing.B) {
			cfg := DefaultPPO()
			cfg.Hidden = []int{h, h}
			env := &synthEnv{rng: rand.New(rand.NewSource(1))}
			p := NewPPO(cfg, env.ObsSize(), env.ActionDims())
			envs := []Env{env}
			p.TrainIteration(envs) // warm the tape's buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.TrainIteration(envs)
			}
		})
	}
}
