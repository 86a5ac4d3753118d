// Package rl implements the deep reinforcement-learning algorithms the
// paper evaluates — PPO (clipped surrogate with GAE), A3C (asynchronous
// advantage actor-critic) and OpenAI-style evolution strategies — over a
// gym-like environment interface with factored categorical actions (the
// multiple-passes-per-action variant of §5.2 needs N simultaneous
// sub-actions).
package rl

import (
	"math/rand"
	"slices"

	"autophase/internal/nn"
)

// Env is a gym-like episodic environment. Actions are factored: one
// categorical choice per entry of ActionDims (a single-action space is
// ActionDims() == [K]).
type Env interface {
	// Reset starts a new episode and returns the initial observation.
	Reset() []float64
	// Step applies one action tuple; it returns the next observation, the
	// reward, and whether the episode ended.
	Step(actions []int) (obs []float64, reward float64, done bool)
	// ActionDims lists the cardinality of each action head.
	ActionDims() []int
	// ObsSize is the observation vector length.
	ObsSize() int
}

// Policy wraps a logits network over factored heads.
type Policy struct {
	Net  *nn.MLP
	Dims []int
}

// NewPolicy builds a policy MLP with the given hidden sizes.
func NewPolicy(rng *rand.Rand, obsSize int, dims []int, hidden ...int) *Policy {
	total := 0
	for _, d := range dims {
		total += d
	}
	sizes := append(append([]int{obsSize}, hidden...), total)
	return &Policy{Net: nn.NewMLP(rng, nn.ReLU, sizes...), Dims: dims}
}

// Sample draws an action tuple and returns it with its total log-prob.
func (p *Policy) Sample(rng *rand.Rand, obs []float64) (actions []int, logp float64) {
	return p.sampleLogits(rng, p.Net.Forward(obs))
}

// sampleLogits is Sample given the policy network's output for the
// observation.
func (p *Policy) sampleLogits(rng *rand.Rand, logits []float64) (actions []int, logp float64) {
	probs := make([]float64, len(logits))
	off := 0
	for _, d := range p.Dims {
		h, ph := logits[off:off+d], probs[off:off+d]
		lse := nn.SoftmaxInto(ph, h)
		a := nn.SampleCategorical(rng, ph)
		actions = append(actions, a)
		logp += h[a] - lse
		off += d
	}
	return actions, logp
}

// Greedy returns the argmax action tuple.
func (p *Policy) Greedy(obs []float64) []int {
	logits := p.Net.Forward(obs)
	actions := make([]int, 0, len(p.Dims))
	off := 0
	for _, d := range p.Dims {
		actions = append(actions, nn.Argmax(logits[off:off+d]))
		off += d
	}
	return actions
}

// logProbOf returns the total log-probability of an action tuple under the
// flat logits, and the mean head entropy. It leaves each head's softmax in
// probs (one entry per logit) and its entropy in ents (one per head) for
// gradForHeads, so a head's softmax is computed once per sample.
func (p *Policy) logProbOf(logits []float64, actions []int, probs, ents []float64) (logp, entropy float64) {
	off := 0
	for i, d := range p.Dims {
		ph := probs[off : off+d]
		lse := nn.SoftmaxInto(ph, logits[off:off+d])
		logp += logits[off+actions[i]] - lse
		ents[i] = nn.Entropy(ph)
		entropy += ents[i]
		off += d
	}
	entropy /= float64(len(p.Dims))
	return logp, entropy
}

// gradForHeads writes dL/dlogits (flat) into grad from per-head
// contributions: policy-gradient coefficient pgCoef (multiplying -grad
// logp) and entropy bonus entCoef (ascending entropy => descending
// -entCoef*H). probs and ents are what logProbOf left for this sample; eg
// is scratch as wide as the widest head.
func (p *Policy) gradForHeads(grad, probs, ents []float64, actions []int, pgCoef, entCoef float64, eg []float64) {
	off := 0
	for i, d := range p.Dims {
		g, ph := grad[off:off+d], probs[off:off+d]
		nn.CategoricalGrad(g, ph, actions[i], pgCoef)
		if entCoef != 0 {
			e := eg[:d]
			nn.EntropyGrad(e, ph, ents[i])
			for j := range g {
				g[j] -= entCoef * e[j] / float64(len(p.Dims))
			}
		}
		off += d
	}
}

// tape is a learner's reusable minibatch workspace: both nets' forward
// tapes, the gradient buffers, the dL/dlogits and dL/dvalue rows handed to
// BackwardBatch, and one sample's softmax scratch. It allocates nothing
// once it has seen the largest minibatch.
type tape struct {
	xs             [][]float64
	pol, val       nn.Batch
	gp, gv         *nn.Grads
	polOut, valOut []float64
	probs, ents    []float64 // logProbOf's per-head softmax and entropy
	eg             []float64 // gradForHeads scratch
}

func newTape(pol *Policy, val *nn.MLP) *tape {
	width := pol.Net.Sizes[len(pol.Net.Sizes)-1]
	return &tape{
		gp: pol.Net.NewGrads(), gv: val.NewGrads(),
		probs: make([]float64, width), ents: make([]float64, len(pol.Dims)), eg: make([]float64, width),
	}
}

// forward clears the gradients and runs both nets over the observations of
// buf[mb] (all of buf when mb is nil), returning the flat logits (one row
// of width per sample) and the values.
func (t *tape) forward(pol *Policy, val *nn.MLP, buf []Transition, mb []int) (logits []float64, width int, values []float64) {
	t.gp.Zero()
	t.gv.Zero()
	t.xs = t.xs[:0]
	if mb == nil {
		for i := range buf {
			t.xs = append(t.xs, buf[i].Obs)
		}
	} else {
		for _, i := range mb {
			t.xs = append(t.xs, buf[i].Obs)
		}
	}
	logits = pol.Net.ForwardBatch(&t.pol, t.xs)
	values = val.ForwardBatch(&t.val, t.xs)
	t.polOut = slices.Grow(t.polOut[:0], len(logits))[:len(logits)]
	t.valOut = slices.Grow(t.valOut[:0], len(values))[:len(values)]
	return logits, pol.Net.Sizes[len(pol.Net.Sizes)-1], values
}

// backward backpropagates polOut and valOut, which the caller filled row by
// row, into gp and gv.
func (t *tape) backward(pol *Policy, val *nn.MLP) {
	pol.Net.BackwardBatch(&t.pol, t.polOut, t.gp)
	val.BackwardBatch(&t.val, t.valOut, t.gv)
}

// Transition is one environment step in a rollout buffer.
type Transition struct {
	Obs     []float64
	Actions []int
	Reward  float64
	Done    bool
	LogP    float64
	Value   float64
	Adv     float64
	Ret     float64
}

// computeGAE fills Adv and Ret over a rollout using generalized advantage
// estimation: delta_t = r_t + γ·V(s_{t+1})·(1−done_t) − V(s_t) and
// adv_t = delta_t + γλ·(1−done_t)·adv_{t+1}. lastValue bootstraps a rollout
// truncated mid-episode.
func computeGAE(buf []Transition, gamma, lambda, lastValue float64) {
	adv := 0.0
	nextValue := lastValue
	for i := len(buf) - 1; i >= 0; i-- {
		nonTerm := 1.0
		if buf[i].Done {
			nonTerm = 0
		}
		delta := buf[i].Reward + gamma*nextValue*nonTerm - buf[i].Value
		adv = delta + gamma*lambda*nonTerm*adv
		buf[i].Adv = adv
		buf[i].Ret = adv + buf[i].Value
		nextValue = buf[i].Value
	}
}

// applyFilter standardizes obs through f without updating its statistics
// (the frozen, inference-time path); a nil filter passes obs through.
func applyFilter(f *MeanStd, obs []float64) []float64 {
	if f == nil {
		return obs
	}
	return f.Apply(obs)
}

// observeFilter folds obs into f's running statistics and returns it
// standardized (the training-time path); a nil filter passes obs through.
func observeFilter(f *MeanStd, obs []float64) []float64 {
	if f == nil {
		return obs
	}
	return f.ObserveApply(obs)
}

// rewardWindow tracks a sliding window of finished-episode returns — the
// EpisodeRewardMean bookkeeping every trainer needs. size<=0 keeps every
// return.
type rewardWindow struct {
	size int
	rews []float64
}

func newRewardWindow(size int) *rewardWindow { return &rewardWindow{size: size} }

func (w *rewardWindow) add(r float64) {
	w.rews = append(w.rews, r)
	if w.size > 0 && len(w.rews) > w.size {
		w.rews = w.rews[len(w.rews)-w.size:]
	}
}

func (w *rewardWindow) count() int { return len(w.rews) }

func (w *rewardWindow) mean() float64 {
	if len(w.rews) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range w.rews {
		s += r
	}
	return s / float64(len(w.rews))
}

// Stats reports one training iteration.
type Stats struct {
	Iteration         int
	TotalSteps        int
	TotalEpisodes     int
	EpisodeRewardMean float64
	PolicyLoss        float64
	ValueLoss         float64
	Entropy           float64
}
