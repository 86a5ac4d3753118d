package rl

import (
	"math/rand"
	"testing"
)

// chainEnv is a small contextual task: the agent sees a one-hot context and
// earns 1 for matching it, over 6-step episodes. Solvable only by using the
// observation, so it validates that the learners actually learn.
type chainEnv struct {
	rng  *rand.Rand
	ctx  int
	step int
	n    int
}

func newChainEnv(seed int64) *chainEnv {
	return &chainEnv{rng: rand.New(rand.NewSource(seed)), n: 4}
}

func (c *chainEnv) obs() []float64 {
	o := make([]float64, c.n)
	o[c.ctx] = 1
	return o
}

func (c *chainEnv) Reset() []float64 {
	c.step = 0
	c.ctx = c.rng.Intn(c.n)
	return c.obs()
}

func (c *chainEnv) Step(actions []int) ([]float64, float64, bool) {
	r := 0.0
	if actions[0] == c.ctx {
		r = 1
	}
	c.step++
	c.ctx = c.rng.Intn(c.n)
	return c.obs(), r, c.step >= 6
}

func (c *chainEnv) ActionDims() []int { return []int{c.n} }
func (c *chainEnv) ObsSize() int      { return c.n }

func TestPPOLearnsContextualTask(t *testing.T) {
	cfg := DefaultPPO()
	cfg.Hidden = []int{32}
	cfg.RolloutSteps = 128
	cfg.Seed = 3
	p := NewPPO(cfg, 4, []int{4})
	envs := []Env{newChainEnv(1), newChainEnv(2)}
	var last Stats
	p.Train(envs, 12000, func(s Stats) { last = s })
	if last.EpisodeRewardMean < 4.5 { // max 6
		t.Fatalf("PPO failed to learn: reward mean %.2f", last.EpisodeRewardMean)
	}
	// Greedy policy should match contexts.
	correct := 0
	for ctx := 0; ctx < 4; ctx++ {
		o := make([]float64, 4)
		o[ctx] = 1
		if p.Act(o, true)[0] == ctx {
			correct++
		}
	}
	if correct < 4 {
		t.Fatalf("greedy policy only matches %d/4 contexts", correct)
	}
}

func TestPPOZeroRewardsDoesNotLearn(t *testing.T) {
	cfg := DefaultPPO()
	cfg.Hidden = []int{32}
	cfg.RolloutSteps = 128
	cfg.Seed = 3
	cfg.ZeroRewards = true // the paper's RL-PPO1 control
	p := NewPPO(cfg, 4, []int{4})
	envs := []Env{newChainEnv(1)}
	p.Train(envs, 6000, nil)
	correct := 0
	for ctx := 0; ctx < 4; ctx++ {
		o := make([]float64, 4)
		o[ctx] = 1
		if p.Act(o, true)[0] == ctx {
			correct++
		}
	}
	if correct == 4 {
		t.Fatalf("zero-reward PPO should not solve the task")
	}
}

func TestA3CLearnsContextualTask(t *testing.T) {
	cfg := DefaultA3C()
	cfg.Hidden = []int{32}
	cfg.Workers = 3
	cfg.Seed = 5
	a := NewA3C(cfg, 4, []int{4})
	var last Stats
	a.Train(func(w int) Env { return newChainEnv(int64(10 + w)) }, 20000,
		func(s Stats) { last = s })
	if last.EpisodeRewardMean < 4.0 {
		t.Fatalf("A3C failed to learn: reward mean %.2f", last.EpisodeRewardMean)
	}
}

func TestESImprovesFitness(t *testing.T) {
	cfg := DefaultES()
	cfg.Hidden = []int{16}
	cfg.Population = 10
	cfg.Seed = 7
	e := NewES(cfg, 4, []int{4})
	envs := []Env{newChainEnv(21), newChainEnv(22)}
	first := e.Generation(envs)
	var last Stats
	for i := 0; i < 60; i++ {
		last = e.Generation(envs)
	}
	if last.EpisodeRewardMean <= first.EpisodeRewardMean {
		t.Fatalf("ES did not improve: first %.2f last %.2f",
			first.EpisodeRewardMean, last.EpisodeRewardMean)
	}
}

func TestMultiHeadPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPolicy(rng, 3, []int{3, 3, 3}, 16)
	obs := []float64{0.1, 0.5, -0.3}
	a, logp := p.Sample(rng, obs)
	if len(a) != 3 {
		t.Fatalf("want 3 heads, got %d", len(a))
	}
	for _, x := range a {
		if x < 0 || x > 2 {
			t.Fatalf("action out of range: %v", a)
		}
	}
	lp, _, ent := p.LogProb(obs, a)
	if lp > 0 || ent < 0 {
		t.Fatalf("bad logp %f or entropy %f", lp, ent)
	}
	if diff := lp - logp; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("LogProb disagrees with Sample: %f vs %f", lp, logp)
	}
}

func TestGAEMatchesHandComputed(t *testing.T) {
	buf := []Transition{
		{Reward: 1, Value: 0.5},
		{Reward: 0, Value: 0.4},
		{Reward: 2, Value: 0.3, Done: true},
	}
	gamma, lambda := 0.9, 0.8
	computeGAE(buf, gamma, lambda, 99 /* ignored: final transition is done */)
	// Backward by hand.
	d2 := 2 + 0 - 0.3
	a2 := d2
	d1 := 0 + gamma*0.3 - 0.4
	a1 := d1 + gamma*lambda*a2
	d0 := 1 + gamma*0.4 - 0.5
	a0 := d0 + gamma*lambda*a1
	for i, want := range []float64{a0, a1, a2} {
		if diff := buf[i].Adv - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("adv[%d]=%f want %f", i, buf[i].Adv, want)
		}
		if diff := buf[i].Ret - (want + buf[i].Value); diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("ret[%d] mismatch", i)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	cfg := DefaultPPO()
	cfg.Hidden = []int{16}
	p := NewPPO(cfg, 4, []int{4})
	envs := []Env{newChainEnv(1)}
	p.Train(envs, 1500, nil)

	path := t.TempDir() + "/agent.json"
	if err := p.Snapshot().Save(path); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	q, err := RestorePPO(snap)
	if err != nil {
		t.Fatal(err)
	}
	// The restored agent must act identically (greedy) on arbitrary obs.
	for ctx := 0; ctx < 4; ctx++ {
		o := make([]float64, 4)
		o[ctx] = 1
		if a, b := p.Act(o, true)[0], q.Act(o, true)[0]; a != b {
			t.Fatalf("restored agent diverges: %d vs %d on ctx %d", a, b, ctx)
		}
	}
}

func TestSnapshotRejectsBadKind(t *testing.T) {
	s := &Snapshot{Kind: "es"}
	if _, err := RestorePPO(s); err == nil {
		t.Fatal("accepted wrong snapshot kind")
	}
	if _, err := LoadSnapshot("/nonexistent/agent.json"); err == nil {
		t.Fatal("accepted missing file")
	}
}
