package core

import (
	"math/rand"

	"autophase/internal/features"
	"autophase/internal/forest"
	"autophase/internal/passes"
)

// Tuple is one feature–action–reward record (§4): the program state before
// a pass was applied, the histogram of previously applied passes, the pass,
// and whether it improved the estimated cycle count.
type Tuple struct {
	Features []int64
	Hist     []int
	Action   int
	Improved bool
}

// CollectTuples gathers tuples by running high-exploration episodes
// (uniform-random pass choices, the limiting case of the paper's
// high-exploration PPO) over the given programs.
func CollectTuples(programs []*Program, episodes, episodeLen int, rng *rand.Rand) []Tuple {
	return CollectTuplesParallel(programs, episodes, episodeLen, rng, 1)
}

// CollectTuplesParallel is CollectTuples with episodes spread over a
// private budget of workers compile slots.
// Every episode's action sequence is drawn from rng up front, in episode
// order, so the tuple set is a function of the seed alone: workers only
// decide which episodes replay concurrently, and the concatenated result is
// bit-identical at workers=1 and workers=N.
func CollectTuplesParallel(programs []*Program, episodes, episodeLen int, rng *rand.Rand, workers int) []Tuple {
	type episode struct {
		prog    *Program
		actions []int
		tuples  []Tuple
	}
	var eps []*episode
	for _, p := range programs {
		for e := 0; e < episodes; e++ {
			actions := make([]int, episodeLen)
			for i := range actions {
				actions[i] = rng.Intn(passes.NumActions)
			}
			eps = append(eps, &episode{prog: p, actions: actions})
		}
	}
	// A faulting episode contributes the tuples it finished.
	NewBudget(workers).run(len(eps), func(i int) {
		ep := eps[i]
		p := ep.prog
		var seq []int
		hist := make([]int, passes.NumActions)
		cycles, feats, ok := p.Compile(nil)
		if !ok {
			return
		}
		for _, a := range ep.actions {
			tu := Tuple{
				Features: append([]int64(nil), feats...),
				Hist:     append([]int(nil), hist...),
				Action:   a,
			}
			seq = append(seq, a)
			hist[a]++
			nc, nf, ok := p.Compile(seq)
			if !ok {
				break
			}
			tu.Improved = nc < cycles
			cycles, feats = nc, nf
			ep.tuples = append(ep.tuples, tu)
		}
	})
	var tuples []Tuple
	for _, ep := range eps {
		tuples = append(tuples, ep.tuples...)
	}
	return tuples
}

// Importance holds the two §4 heat maps: for every pass, the importance of
// each program feature (Figure 5) and of each previously-applied pass
// (Figure 6) in predicting whether applying the pass helps. Rows are
// normalized to sum to 1 (or all-zero when a pass never had signal).
type Importance struct {
	FeatureByPass [][]float64 // [pass][feature]
	PassByPass    [][]float64 // [pass][previous pass]
	// WinRate is the empirical fraction of applications of each pass that
	// improved the cycle count in the tuple set.
	WinRate []float64
}

// AnalyzeImportance trains two random forests per pass, one on program
// features and one on applied-pass histograms, and extracts Gini
// importances.
func AnalyzeImportance(tuples []Tuple, cfg forest.Config) *Importance {
	imp := &Importance{
		FeatureByPass: make([][]float64, passes.NumActions),
		PassByPass:    make([][]float64, passes.NumActions),
		WinRate:       make([]float64, passes.NumActions),
	}
	seen := make([]int, passes.NumActions)
	wins := make([]int, passes.NumActions)
	for _, t := range tuples {
		if t.Action >= 0 && t.Action < passes.NumActions {
			seen[t.Action]++
			if t.Improved {
				wins[t.Action]++
			}
		}
	}
	for a := range imp.WinRate {
		if seen[a] > 0 {
			imp.WinRate[a] = float64(wins[a]) / float64(seen[a])
		}
	}
	for a := 0; a < passes.NumActions; a++ {
		var Xf, Xh [][]float64
		var y []int
		for _, t := range tuples {
			if t.Action != a {
				continue
			}
			xf := make([]float64, len(t.Features))
			for i, v := range t.Features {
				xf[i] = float64(v)
			}
			xh := make([]float64, len(t.Hist))
			for i, v := range t.Hist {
				xh[i] = float64(v)
			}
			Xf = append(Xf, xf)
			Xh = append(Xh, xh)
			if t.Improved {
				y = append(y, 1)
			} else {
				y = append(y, 0)
			}
		}
		if len(y) < cfg.MinSamples {
			imp.FeatureByPass[a] = make([]float64, features.NumFeatures)
			imp.PassByPass[a] = make([]float64, passes.NumActions)
			continue
		}
		fcfg := cfg
		fcfg.Seed = cfg.Seed + int64(a)
		imp.FeatureByPass[a] = forest.Fit(fcfg, Xf, y).Importances()
		fcfg.Seed += 1000
		imp.PassByPass[a] = forest.Fit(fcfg, Xh, y).Importances()
	}
	return imp
}

// TopFeatures ranks features by total importance across passes and returns
// the best n indices (ascending index order), the §4 filtered state space.
func (imp *Importance) TopFeatures(n int) []int {
	return topIndices(imp.FeatureByPass, features.NumFeatures, n)
}

// TopPasses ranks passes by their total importance as *previously applied*
// passes (how much having run them matters), returning the best n indices —
// the §4 filtered action space. Passes that never improved any program in
// the tuple set are excluded outright: a pass with zero empirical wins
// cannot be "impactful on the performance" (§4.2) however the forests'
// impurity noise ranks it.
func (imp *Importance) TopPasses(n int) []int {
	total := make([]float64, passes.NumActions)
	for _, row := range imp.PassByPass {
		for i, v := range row {
			total[i] += v
		}
	}
	type iv struct {
		i     int
		score float64
	}
	// Enabler passes (e.g. -functionattrs certifying calls for -licm)
	// never improve the cycle count by themselves, but Figure 6 assigns
	// them high history importance. Keep a pass when it either wins
	// empirically or its column importance is clearly above the median.
	med := medianPositive(total)
	var order []iv
	for i := 0; i < passes.NumActions; i++ {
		if imp.WinRate != nil && imp.WinRate[i] <= 0 && total[i] <= med {
			continue
		}
		// Importance carries the ranking; the win rate breaks ties and
		// keeps empirically strong passes ahead of impurity noise.
		score := total[i]
		if imp.WinRate != nil {
			score += imp.WinRate[i]
		}
		order = append(order, iv{i, score})
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j].score > order[i].score {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	if n > len(order) {
		n = len(order)
	}
	picked := make([]int, 0, n)
	for i := 0; i < n; i++ {
		picked = append(picked, order[i].i)
	}
	for i := 0; i < len(picked); i++ {
		for j := i + 1; j < len(picked); j++ {
			if picked[j] < picked[i] {
				picked[i], picked[j] = picked[j], picked[i]
			}
		}
	}
	return picked
}

// medianPositive returns the median of the strictly positive entries
// (zero when none are positive).
func medianPositive(v []float64) float64 {
	var pos []float64
	for _, x := range v {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	if len(pos) == 0 {
		return 0
	}
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			if pos[j] < pos[i] {
				pos[i], pos[j] = pos[j], pos[i]
			}
		}
	}
	return pos[len(pos)/2]
}

func topIndices(rows [][]float64, width, n int) []int {
	total := make([]float64, width)
	for _, row := range rows {
		for i, v := range row {
			if i < width {
				total[i] += v
			}
		}
	}
	type iv struct {
		i int
		v float64
	}
	order := make([]iv, width)
	for i, v := range total {
		order[i] = iv{i, v}
	}
	// Selection of the n largest, then ascending index order.
	for i := 0; i < n && i < len(order); i++ {
		maxJ := i
		for j := i + 1; j < len(order); j++ {
			if order[j].v > order[maxJ].v {
				maxJ = j
			}
		}
		order[i], order[maxJ] = order[maxJ], order[i]
	}
	if n > width {
		n = width
	}
	picked := make([]int, n)
	for i := 0; i < n; i++ {
		picked[i] = order[i].i
	}
	// Ascending index order for stable observation layouts.
	for i := 0; i < len(picked); i++ {
		for j := i + 1; j < len(picked); j++ {
			if picked[j] < picked[i] {
				picked[i], picked[j] = picked[j], picked[i]
			}
		}
	}
	return picked
}
