package core

import "autophase/internal/passes"

// Env is the common surface of the phase-ordering environments: the
// gym-style subset (Reset/Step/ObsSize/ActionDims) the rl trainers consume,
// plus the episode read-backs (Sequence/BestCycles) the drivers use to
// score a rollout. Both the §5.1 single-action and the §5.2 multi-action
// formulations implement it, so drivers and trainers never need the
// concrete types.
type Env interface {
	Reset() []float64
	Step(actions []int) (obs []float64, reward float64, done bool)
	ObsSize() int
	ActionDims() []int
	Sequence() []int
	BestCycles() int64
}

var (
	_ Env = (*PhaseEnv)(nil)
	_ Env = (*MultiPhaseEnv)(nil)
)

// PhaseEnv is the single-action phase-ordering environment of §5.1: each
// step applies one more pass to the current sequence, the observation is
// the program-feature vector and/or the applied-pass histogram, and the
// reward is the drop in estimated clock cycles.
type PhaseEnv struct {
	Cfg     EnvConfig
	Program *Program

	seq   []int
	hist  []int
	steps int // actions taken this episode, including rolled-back faults
	score
}

// NewPhaseEnv builds an environment over one program.
func NewPhaseEnv(p *Program, cfg EnvConfig) *PhaseEnv {
	if cfg.Sanitize {
		p.EnableSanitizer()
	}
	return &PhaseEnv{Cfg: cfg, Program: p}
}

// ObsSize implements rl.Env.
func (e *PhaseEnv) ObsSize() int {
	n := 0
	switch e.Cfg.Obs {
	case ObsFeatures:
		n = len(e.Cfg.featIdx())
	case ObsHistogram:
		n = len(e.Cfg.actions())
	case ObsBoth:
		n = len(e.Cfg.actions()) + len(e.Cfg.featIdx())
	}
	return n
}

// ActionDims implements rl.Env: one categorical head over the (possibly
// filtered) pass list.
func (e *PhaseEnv) ActionDims() []int { return []int{len(e.Cfg.actions())} }

func (e *PhaseEnv) observe(rawFeats []int64) []float64 {
	var obs []float64
	if e.Cfg.Obs == ObsHistogram || e.Cfg.Obs == ObsBoth {
		for _, h := range e.hist {
			obs = append(obs, float64(h))
		}
	}
	if e.Cfg.Obs == ObsFeatures || e.Cfg.Obs == ObsBoth {
		obs = append(obs, e.Cfg.normalizeFeatures(rawFeats)...)
	}
	return obs
}

// score is the episode state both environment kinds reward from: the cost
// of the current sequence, the best cost seen, and the features of the
// last healthy compile, which a fault's observation reuses.
type score struct {
	cycles, best int64
	lastFeats    []int64
}

// BestCycles returns the best cost seen this episode (the cycle count,
// under the default objective).
func (s *score) BestCycles() int64 { return s.best }

// start scores the episode's first sequence and returns its features; a
// failing compile starts from the unoptimized program.
func (s *score) start(cfg EnvConfig, p *Program, seq []int) []int64 {
	cost, feats, ok, _ := cfg.cost(p, seq)
	if !ok {
		cost, feats = p.O0Cycles, p.Features()
	}
	s.cycles, s.best, s.lastFeats = cost, cost, feats
	return feats
}

// advance scores seq as the episode's next sequence and returns the
// features to observe and the reward. A contained panic- or deadline-class
// fault keeps the last healthy state (rollback: the caller undoes the
// action); any other failure (limit blowout, sanitizer flag) ends the
// episode. Both are charged −1.
func (s *score) advance(cfg EnvConfig, p *Program, seq []int) (feats []int64, r float64, rollback, end bool) {
	cost, feats, ok, fault := cfg.cost(p, seq)
	switch {
	case ok:
		r = cfg.reward(s.cycles, cost, p.O0Cycles)
		s.cycles, s.best, s.lastFeats = cost, min(s.best, cost), feats
		return feats, r, false, false
	case fault != nil && fault.Kind.quarantinable():
		return s.lastFeats, -1, true, false
	}
	return p.Features(), -1, false, true
}

// cost evaluates the configured objective for seq on p. It is the one
// objective rule both environment kinds reward.
func (c EnvConfig) cost(p *Program, seq []int) (int64, []int64, bool, *EvalFault) {
	if c.NoProfile {
		// Inference mode: observation only, no profiler sample, no reward.
		return 0, p.FeaturesAfter(seq), true, nil
	}
	r := p.compile(seq)
	switch c.Objective {
	case MinimizeArea:
		return r.area, r.feats, r.ok, r.fault
	case MinimizeAreaDelay:
		// Scaled area-delay product keeps rewards in a trainable range.
		return r.cycles * r.area / 1024, r.feats, r.ok, r.fault
	default:
		return r.cycles, r.feats, r.ok, r.fault
	}
}

// Reset implements rl.Env.
func (e *PhaseEnv) Reset() []float64 {
	e.seq = e.seq[:0]
	e.hist = make([]int, len(e.Cfg.actions()))
	e.steps = 0
	return e.observe(e.start(e.Cfg, e.Program, nil))
}

// Step implements rl.Env. The action indexes the configured pass list; the
// environment applies the pass, recompiles, and rewards the drop in the
// configured objective.
//
// A contained panic- or deadline-class fault does not forfeit the episode:
// the faulting pass is rolled back (it is quarantined and would fault again
// anyway), the agent is charged a −1 reward, and the episode continues from
// the last healthy state. The done condition counts actions taken, not
// sequence length, so sustained faults cannot starve episode termination.
func (e *PhaseEnv) Step(actions []int) ([]float64, float64, bool) {
	acts := e.Cfg.actions()
	a := actions[0]
	if a < 0 || a >= len(acts) {
		a = 0
	}
	pass := acts[a]
	e.seq = append(e.seq, pass)
	e.hist[a]++
	e.steps++

	feats, r, rollback, end := e.advance(e.Cfg, e.Program, e.seq)
	if rollback {
		e.seq = e.seq[:len(e.seq)-1]
		e.hist[a]--
	}
	return e.observe(feats), r, end || e.steps >= e.Cfg.EpisodeLen || pass == passes.TerminateIndex
}

// Sequence returns the passes applied so far this episode.
func (e *PhaseEnv) Sequence() []int { return append([]int(nil), e.seq...) }

// CurrentCycles returns the cycle count of the current sequence.
func (e *PhaseEnv) CurrentCycles() int64 { return e.cycles }

// MultiPhaseEnv is the §5.2 alternative action formulation: the agent
// maintains all N pass slots at once (initialized to K/2) and each step
// nudges every slot by −1, 0 or +1, evaluating the whole sequence per step.
type MultiPhaseEnv struct {
	Cfg     EnvConfig
	Program *Program
	Slots   int // N
	Steps   int // RL steps per episode

	slots []int
	step  int
	score
}

// NewMultiPhaseEnv builds the multiple-passes-per-action environment.
func NewMultiPhaseEnv(p *Program, cfg EnvConfig, slots, steps int) *MultiPhaseEnv {
	if cfg.Sanitize {
		p.EnableSanitizer()
	}
	return &MultiPhaseEnv{Cfg: cfg, Program: p, Slots: slots, Steps: steps}
}

// ObsSize implements rl.Env: the current slot vector plus (optionally) the
// program features.
func (e *MultiPhaseEnv) ObsSize() int {
	n := e.Slots
	if e.Cfg.Obs == ObsFeatures || e.Cfg.Obs == ObsBoth {
		n += len(e.Cfg.featIdx())
	}
	return n
}

// ActionDims implements rl.Env: N ternary heads ([-1, 0, +1] per slot).
func (e *MultiPhaseEnv) ActionDims() []int {
	dims := make([]int, e.Slots)
	for i := range dims {
		dims[i] = 3
	}
	return dims
}

// Sequence returns the current slot-decoded pass sequence.
func (e *MultiPhaseEnv) Sequence() []int {
	acts := e.Cfg.actions()
	seq := make([]int, len(e.slots))
	for i, s := range e.slots {
		seq[i] = acts[s]
	}
	return seq
}

func (e *MultiPhaseEnv) observe(rawFeats []int64) []float64 {
	obs := make([]float64, 0, e.ObsSize())
	k := float64(len(e.Cfg.actions()))
	for _, s := range e.slots {
		obs = append(obs, float64(s)/k)
	}
	if e.Cfg.Obs == ObsFeatures || e.Cfg.Obs == ObsBoth {
		obs = append(obs, e.Cfg.normalizeFeatures(rawFeats)...)
	}
	return obs
}

// Reset implements rl.Env: every slot returns to K/2 (§5.2).
func (e *MultiPhaseEnv) Reset() []float64 {
	k := len(e.Cfg.actions())
	e.slots = make([]int, e.Slots)
	for i := range e.slots {
		e.slots[i] = k / 2
	}
	e.step = 0
	return e.observe(e.start(e.Cfg, e.Program, e.Sequence()))
}

// Step implements rl.Env: one −1/0/+1 update per slot, then a single
// compilation of the whole sequence. As in PhaseEnv, a contained panic- or
// deadline-class fault restores the previous slot vector, charges a −1
// reward, and lets the episode continue.
func (e *MultiPhaseEnv) Step(actions []int) ([]float64, float64, bool) {
	k := len(e.Cfg.actions())
	prev := append([]int(nil), e.slots...)
	for i := 0; i < e.Slots && i < len(actions); i++ {
		e.slots[i] += actions[i] - 1
		if e.slots[i] < 0 {
			e.slots[i] = 0
		}
		if e.slots[i] >= k {
			e.slots[i] = k - 1
		}
	}
	e.step++
	feats, r, rollback, end := e.advance(e.Cfg, e.Program, e.Sequence())
	if rollback {
		e.slots = prev
	}
	return e.observe(feats), r, end || e.step >= e.Steps
}

// InferGreedy runs one inference rollout: the policy picks passes from
// observations served by a NoProfile environment (feature extraction only),
// and the resulting sequence is profiled once at the end — one profiler
// sample, as the paper counts deep-RL inference.
func InferGreedy(p *Program, cfg EnvConfig, policy func(obs []float64) int) (seq []int, cycles int64, ok bool) {
	cfg.NoProfile = true
	acts := cfg.actions()
	var env Env = NewPhaseEnv(p, cfg)
	obs := env.Reset()
	done := cfg.EpisodeLen <= 0
	for !done {
		a := policy(obs)
		// Out-of-range and explicit-terminate actions end the rollout
		// before stepping (Step would clamp them into the sequence).
		if a < 0 || a >= len(acts) || acts[a] == passes.TerminateIndex {
			break
		}
		obs, _, done = env.Step([]int{a})
	}
	seq = env.Sequence()
	cycles, _, ok = p.Compile(seq)
	return seq, cycles, ok
}
