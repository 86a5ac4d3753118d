// Package search implements the black-box phase-ordering baselines the
// paper compares against: random search, the greedy insertion algorithm of
// Huang et al. 2013, a DEAP-style genetic algorithm, and an OpenTuner-style
// AUC-bandit ensemble over particle-swarm and genetic sub-techniques.
//
// All algorithms optimize the same objective: a pass sequence (integer
// vector over Table 1 indices) is compiled and profiled, and the estimated
// cycle count is minimized. Every profiler invocation counts as one sample,
// matching the paper's samples-per-program axis.
package search

import (
	"math"
	"math/rand"
)

// Objective evaluates candidate pass sequences.
type Objective struct {
	// Eval compiles a clone of the program with the sequence and returns
	// the estimated cycle count. Optional when EvalBatch is set.
	Eval func(seq []int) (int64, bool)
	// EvalBatch scores many candidates at once (typically through
	// core.Evaluator, which spreads a batch over its compile budget).
	// Optional: when nil, EvaluateBatch falls back to scalar Eval calls;
	// when set, scalar Evaluate becomes a one-element batch.
	EvalBatch func(seqs [][]int) []EvalOutcome
	// Batch hints how many candidates the backend can usefully score
	// concurrently (the -workers knob). Sequential algorithms with
	// batchable inner loops (OpenTuner's bandit rounds) propose this many
	// per round; 0 or 1 means scalar.
	Batch int
	// K is the number of selectable passes.
	K int
	// N is the maximum sequence length.
	N int

	samples int
	bestSeq []int
	bestVal int64
	hasBest bool
}

// EvalOutcome is one batched evaluation verdict. A failed compile reports
// Ok=false with Val forced to math.MaxInt64, mirroring scalar Evaluate.
type EvalOutcome struct {
	Val int64
	Ok  bool
}

// Evaluate scores a sequence, tracking sample count and the incumbent.
func (o *Objective) Evaluate(seq []int) (int64, bool) {
	if o.Eval == nil && o.EvalBatch != nil {
		r := o.EvaluateBatch([][]int{seq})[0]
		return r.Val, r.Ok
	}
	o.samples++
	v, ok := o.Eval(seq)
	if !ok {
		return math.MaxInt64, false
	}
	if !o.hasBest || v < o.bestVal {
		o.bestVal = v
		o.bestSeq = append([]int(nil), seq...)
		o.hasBest = true
	}
	return v, true
}

// EvaluateBatch scores candidates in submission order: the sample counter
// and the incumbent update exactly as len(seqs) scalar Evaluate calls
// would, so a search algorithm that generates its candidates before
// scoring them is bit-identical at any worker count.
func (o *Objective) EvaluateBatch(seqs [][]int) []EvalOutcome {
	if len(seqs) == 0 {
		return nil
	}
	var outs []EvalOutcome
	if o.EvalBatch != nil {
		outs = o.EvalBatch(seqs)
	} else {
		outs = make([]EvalOutcome, len(seqs))
		for i, s := range seqs {
			v, ok := o.Eval(s)
			outs[i] = EvalOutcome{Val: v, Ok: ok}
		}
	}
	for i := range outs {
		o.samples++
		if !outs[i].Ok {
			outs[i].Val = math.MaxInt64
			continue
		}
		if !o.hasBest || outs[i].Val < o.bestVal {
			o.bestVal = outs[i].Val
			o.bestSeq = append([]int(nil), seqs[i]...)
			o.hasBest = true
		}
	}
	return outs
}

// batchSize is the per-round proposal count for sequential algorithms.
func (o *Objective) batchSize() int {
	if o.Batch > 1 {
		return o.Batch
	}
	return 1
}

// Samples returns the number of objective evaluations so far.
func (o *Objective) Samples() int { return o.samples }

// Best returns the incumbent sequence and its value.
func (o *Objective) Best() ([]int, int64) { return o.bestSeq, o.bestVal }

// Result reports a finished search.
type Result struct {
	Seq     []int
	Cycles  int64
	Samples int
}

func (o *Objective) result() Result {
	seq, v := o.Best()
	return Result{Seq: seq, Cycles: v, Samples: o.Samples()}
}

// Random generates `budget` random sequences of full length N at once, as
// the paper's `random` baseline does, and returns the best. Candidates are
// drawn from rng in order and scored in worker-pool-sized chunks, so the
// result is identical at any worker count.
func Random(o *Objective, rng *rand.Rand, budget int) Result {
	const chunk = 128
	for s := 0; s < budget; {
		n := budget - s
		if n > chunk {
			n = chunk
		}
		seqs := make([][]int, n)
		for j := range seqs {
			seq := make([]int, o.N)
			for i := range seq {
				seq[i] = rng.Intn(o.K)
			}
			seqs[j] = seq
		}
		o.EvaluateBatch(seqs)
		s += n
	}
	return o.result()
}

// Greedy is the insertion algorithm of Huang et al. 2013: repeatedly insert
// the (pass, position) pair that lowers the cycle count the most into the
// current sequence, stopping when no insertion helps or the budget runs
// out.
func Greedy(o *Objective, budget int) Result {
	var cur []int
	curVal, ok := o.Evaluate(cur)
	if !ok {
		curVal = math.MaxInt64
	}
	for len(cur) < o.N && o.Samples() < budget {
		bestVal := curVal
		var bestSeq []int
		for p := 0; p < o.K && o.Samples() < budget; p++ {
			for pos := 0; pos <= len(cur) && o.Samples() < budget; pos++ {
				trial := make([]int, 0, len(cur)+1)
				trial = append(trial, cur[:pos]...)
				trial = append(trial, p)
				trial = append(trial, cur[pos:]...)
				v, ok := o.Evaluate(trial)
				if ok && v < bestVal {
					bestVal = v
					bestSeq = trial
				}
			}
		}
		if bestSeq == nil {
			break
		}
		cur, curVal = bestSeq, bestVal
	}
	return o.result()
}

// GAConfig tunes the genetic algorithm.
type GAConfig struct {
	Population int
	Tournament int
	CxProb     float64
	MutProb    float64
	MutIndProb float64 // per-gene mutation probability
	Crossover  CrossoverOp
}

// CrossoverOp selects the recombination operator (OpenTuner's ensemble
// uses GA and PSO each under three different crossover settings).
type CrossoverOp int

// Crossover operators.
const (
	OnePoint CrossoverOp = iota
	TwoPoint
	Uniform
)

// DefaultGA mirrors DEAP's basic integer GA.
func DefaultGA() GAConfig {
	return GAConfig{Population: 24, Tournament: 3, CxProb: 0.9, MutProb: 0.3, MutIndProb: 0.1, Crossover: TwoPoint}
}

func crossover(rng *rand.Rand, op CrossoverOp, a, b []int) ([]int, []int) {
	n := len(a)
	ca := append([]int(nil), a...)
	cb := append([]int(nil), b...)
	switch op {
	case OnePoint:
		if n > 1 {
			p := 1 + rng.Intn(n-1)
			for i := p; i < n; i++ {
				ca[i], cb[i] = cb[i], ca[i]
			}
		}
	case TwoPoint:
		if n > 2 {
			p := 1 + rng.Intn(n-2)
			q := p + 1 + rng.Intn(n-p-1)
			for i := p; i < q; i++ {
				ca[i], cb[i] = cb[i], ca[i]
			}
		}
	case Uniform:
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				ca[i], cb[i] = cb[i], ca[i]
			}
		}
	}
	return ca, cb
}

// Genetic runs the DEAP-style GA until the sample budget is exhausted.
func Genetic(o *Objective, rng *rand.Rand, cfg GAConfig, budget int) Result {
	type indiv struct {
		seq []int
		val int64
	}
	newInd := func() indiv {
		seq := make([]int, o.N)
		for i := range seq {
			seq[i] = rng.Intn(o.K)
		}
		return indiv{seq: seq}
	}
	// evalPop scores the individuals as one batch, truncating to whatever
	// budget remains; batch order matches the sequential evaluation order.
	evalPop := func(inds []indiv) []indiv {
		if m := budget - o.Samples(); len(inds) > m {
			if m < 0 {
				m = 0
			}
			inds = inds[:m]
		}
		if len(inds) == 0 {
			return inds
		}
		seqs := make([][]int, len(inds))
		for i := range inds {
			seqs[i] = inds[i].seq
		}
		outs := o.EvaluateBatch(seqs)
		for i := range inds {
			inds[i].val = outs[i].Val
		}
		return inds
	}
	pop := make([]indiv, cfg.Population)
	for i := range pop {
		pop[i] = newInd()
	}
	if scored := evalPop(pop); len(scored) < len(pop) {
		pop = pop[:len(scored)]
	}
	if len(pop) == 0 {
		return o.result()
	}
	tournament := func() indiv {
		best := pop[rng.Intn(len(pop))]
		for k := 1; k < cfg.Tournament; k++ {
			c := pop[rng.Intn(len(pop))]
			if c.val < best.val {
				best = c
			}
		}
		return best
	}
	for o.Samples() < budget {
		var next []indiv
		for len(next) < cfg.Population {
			p1, p2 := tournament(), tournament()
			c1 := append([]int(nil), p1.seq...)
			c2 := append([]int(nil), p2.seq...)
			if rng.Float64() < cfg.CxProb {
				c1, c2 = crossover(rng, cfg.Crossover, c1, c2)
			}
			for _, c := range [][]int{c1, c2} {
				if rng.Float64() < cfg.MutProb {
					for i := range c {
						if rng.Float64() < cfg.MutIndProb {
							c[i] = rng.Intn(o.K)
						}
					}
				}
			}
			next = append(next, indiv{seq: c1}, indiv{seq: c2})
		}
		next = evalPop(next)
		if len(next) == 0 {
			break
		}
		pop = next
	}
	return o.result()
}
