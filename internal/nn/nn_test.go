package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refForward and refBackward are the per-sample forward and backward
// passes the minibatch tape replaced, kept as the reference it must match
// bit for bit.
func refForward(m *MLP, x []float64) (pre, acts [][]float64) {
	L := len(m.W)
	acts = make([][]float64, L+1)
	pre = make([][]float64, L)
	acts[0] = x
	for l := 0; l < L; l++ {
		in, out := m.Sizes[l], m.Sizes[l+1]
		z := make([]float64, out)
		a := make([]float64, out)
		w := m.W[l]
		for o := 0; o < out; o++ {
			s := m.B[l][o]
			row := w[o*in : (o+1)*in]
			for i, v := range acts[l] {
				s += float64(row[i] * v)
			}
			z[o] = s
			if l < L-1 {
				a[o] = m.Act.apply(s)
			} else {
				a[o] = s
			}
		}
		pre[l] = z
		acts[l+1] = a
	}
	return pre, acts
}

func refBackward(m *MLP, x []float64, gradOut []float64, g *Grads) {
	L := len(m.W)
	pre, acts := refForward(m, x)
	delta := append([]float64(nil), gradOut...)
	for l := L - 1; l >= 0; l-- {
		in, out := m.Sizes[l], m.Sizes[l+1]
		if l < L-1 {
			for o := 0; o < out; o++ {
				delta[o] *= m.Act.deriv(pre[l][o], acts[l+1][o])
			}
		}
		w := m.W[l]
		gw := g.W[l]
		gb := g.B[l]
		prev := acts[l]
		next := make([]float64, in)
		for o := 0; o < out; o++ {
			d := delta[o]
			gb[o] += d
			row := w[o*in : (o+1)*in]
			grow := gw[o*in : (o+1)*in]
			for i := 0; i < in; i++ {
				grow[i] += float64(d * prev[i])
				next[i] += float64(d * row[i])
			}
		}
		delta = next
	}
	g.N++
}

func randRows(rng *rand.Rand, n, width int) [][]float64 {
	rows := make([][]float64, n)
	for s := range rows {
		rows[s] = make([]float64, width)
		for i := range rows[s] {
			rows[s][i] = rng.NormFloat64()
		}
	}
	return rows
}

// TestBatchMatchesPerSample checks that ForwardBatch and BackwardBatch are
// bit-identical to the per-sample passes for batch sizes that cover the
// four-sample blocks and their tails, accumulating into gradients that are
// already nonzero, under every kernel set the CPU runs.
func TestBatchMatchesPerSample(t *testing.T) {
	for _, ks := range kernelSets {
		t.Run(ks.name, func(t *testing.T) {
			useKernels(t, ks)
			testBatchMatchesPerSample(t)
		})
	}
}

func testBatchMatchesPerSample(t *testing.T) {
	for _, act := range []Activation{ReLU, Tanh} {
		for _, n := range []int{1, 3, 4, 5, 64, 65} {
			rng := rand.New(rand.NewSource(int64(n)))
			m := NewMLP(rng, act, 7, 9, 6, 5)
			xs := randRows(rng, n, 7)
			gradOut := make([]float64, 0, n*5)
			for _, row := range randRows(rng, n, 5) {
				gradOut = append(gradOut, row...)
			}
			gradOut[0] = 0 // a zero delta must still be accumulated
			want, got := m.NewGrads(), m.NewGrads()
			for l := range want.W {
				for i := range want.W[l] {
					want.W[l][i] = rng.NormFloat64()
				}
				for i := range want.B[l] {
					want.B[l][i] = rng.NormFloat64()
				}
			}
			got.Add(want)
			for s, x := range xs {
				refBackward(m, x, gradOut[s*5:(s+1)*5], want)
			}

			var b Batch
			// A larger minibatch first: the tape must reuse its buffers.
			m.ForwardBatch(&b, randRows(rng, 70, 7))
			ys := m.ForwardBatch(&b, xs)
			for s, x := range xs {
				for o, v := range m.Forward(x) {
					if math.Float64bits(v) != math.Float64bits(ys[s*5+o]) {
						t.Fatalf("act=%v n=%d sample %d output %d: batch %v, per-sample %v", act, n, s, o, ys[s*5+o], v)
					}
				}
			}
			m.BackwardBatch(&b, gradOut, got)
			if got.N != want.N {
				t.Fatalf("act=%v n=%d: N = %d, want %d", act, n, got.N, want.N)
			}
			for l := range want.W {
				for i, v := range want.W[l] {
					if math.Float64bits(v) != math.Float64bits(got.W[l][i]) {
						t.Fatalf("act=%v n=%d gw[%d][%d]: batch %v, per-sample %v", act, n, l, i, got.W[l][i], v)
					}
				}
				for i, v := range want.B[l] {
					if math.Float64bits(v) != math.Float64bits(got.B[l][i]) {
						t.Fatalf("act=%v n=%d gb[%d][%d]: batch %v, per-sample %v", act, n, l, i, got.B[l][i], v)
					}
				}
			}
		}
	}
}

// TestGradientCheck verifies backprop against finite differences for a
// scalar loss L = Σ_samples sum(y) over a three-sample minibatch on a
// two-hidden-layer net.
func TestGradientCheck(t *testing.T) {
	for _, act := range []Activation{ReLU, Tanh} {
		rng := rand.New(rand.NewSource(1))
		m := NewMLP(rng, act, 5, 7, 6, 3)
		xs := randRows(rng, 3, 5)
		gradOut := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}
		g := m.NewGrads()
		var b Batch
		m.ForwardBatch(&b, xs)
		m.BackwardBatch(&b, gradOut, g)

		loss := func() float64 {
			var s float64
			for _, x := range xs {
				for _, v := range m.Forward(x) {
					s += v
				}
			}
			return s
		}
		const eps = 1e-6
		checked := 0
		for l := range m.W {
			for i := 0; i < len(m.W[l]); i += 7 {
				old := m.W[l][i]
				m.W[l][i] = old + eps
				lp := loss()
				m.W[l][i] = old - eps
				lm := loss()
				m.W[l][i] = old
				num := (lp - lm) / (2 * eps)
				if math.Abs(num-g.W[l][i]) > 1e-4*(1+math.Abs(num)) {
					t.Fatalf("act=%v layer %d w[%d]: analytic %g numeric %g", act, l, i, g.W[l][i], num)
				}
				checked++
			}
		}
		if checked < 10 {
			t.Fatal("gradient check covered too few weights")
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			logits = append(logits, math.Mod(v, 50))
		}
		p := Softmax(logits)
		var sum float64
		for _, x := range p {
			if x < 0 || x > 1 || math.IsNaN(x) {
				return false
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		lse := SoftmaxInto(make([]float64, len(logits)), logits)
		for i := range p {
			if p[i] > 1e-12 && math.Abs(math.Exp(logits[i]-lse)-p[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCategoricalGradDirection(t *testing.T) {
	// Descending the policy-gradient loss for positive coef should raise
	// the chosen action's probability... with coef = -advantage; check the
	// finite-difference consistency instead: L = -coef*logp[a].
	logits := []float64{0.1, -0.5, 1.2}
	a := 1
	coef := 0.7
	g := make([]float64, len(logits))
	CategoricalGrad(g, Softmax(logits), a, coef)
	const eps = 1e-6
	for i := range logits {
		lp := append([]float64(nil), logits...)
		lm := append([]float64(nil), logits...)
		lp[i] += eps
		lm[i] -= eps
		logp := func(l []float64) float64 { return l[a] - SoftmaxInto(make([]float64, len(l)), l) }
		num := (-coef*logp(lp) + coef*logp(lm)) / (2 * eps)
		if math.Abs(num-g[i]) > 1e-6 {
			t.Fatalf("grad %d: analytic %g numeric %g", i, g[i], num)
		}
	}
}

func TestEntropyGrad(t *testing.T) {
	logits := []float64{0.3, -1.1, 0.8, 0.0}
	p := Softmax(logits)
	g := make([]float64, len(logits))
	EntropyGrad(g, p, Entropy(p))
	const eps = 1e-6
	for i := range logits {
		lp := append([]float64(nil), logits...)
		lm := append([]float64(nil), logits...)
		lp[i] += eps
		lm[i] -= eps
		num := (Entropy(Softmax(lp)) - Entropy(Softmax(lm))) / (2 * eps)
		if math.Abs(num-g[i]) > 1e-6 {
			t.Fatalf("entropy grad %d: analytic %g numeric %g", i, g[i], num)
		}
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, ReLU, 3, 16, 1)
	opt := NewAdam(m, 1e-2)
	target := func(x []float64) float64 { return 2*x[0] - x[1] + 0.5*x[2] }
	loss := func() float64 {
		var s float64
		r := rand.New(rand.NewSource(7))
		for k := 0; k < 32; k++ {
			x := []float64{r.Float64(), r.Float64(), r.Float64()}
			d := m.Forward(x)[0] - target(x)
			s += d * d
		}
		return s / 32
	}
	before := loss()
	r := rand.New(rand.NewSource(7))
	var b Batch
	xs := make([][]float64, 32)
	gradOut := make([]float64, 32)
	for step := 0; step < 300; step++ {
		g := m.NewGrads()
		for k := range xs {
			xs[k] = []float64{r.Float64(), r.Float64(), r.Float64()}
		}
		ys := m.ForwardBatch(&b, xs)
		for k, x := range xs {
			gradOut[k] = 2 * (ys[k] - target(x)) / 32
		}
		m.BackwardBatch(&b, gradOut, g)
		opt.Step(m, g)
	}
	after := loss()
	if after > before/10 {
		t.Fatalf("Adam failed to fit linear target: before=%g after=%g", before, after)
	}
}

func TestSampleCategoricalBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := []float64{0.2, 0.5, 0.3}
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		a := SampleCategorical(rng, p)
		if a < 0 || a > 2 {
			t.Fatalf("out of range sample %d", a)
		}
		counts[a]++
	}
	if counts[1] < counts[0] || counts[1] < counts[2] {
		t.Fatalf("sampling ignores probabilities: %v", counts)
	}
}

func TestCloneAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(rng, Tanh, 4, 5, 2)
	c := m.Clone()
	eps := make([]float64, m.NumParams())
	for i := range eps {
		eps[i] = 1
	}
	c.AddNoise(eps, 0.01)
	diff := 0.0
	for l := range m.W {
		for i := range m.W[l] {
			diff += math.Abs(c.W[l][i] - m.W[l][i])
		}
	}
	if diff == 0 {
		t.Fatal("AddNoise changed nothing")
	}
	x := []float64{1, 2, 3, 4}
	y0 := m.Forward(x)
	c.CopyFrom(m)
	y1 := c.Forward(x)
	for i := range y0 {
		if y0[i] != y1[i] {
			t.Fatal("CopyFrom did not restore parameters")
		}
	}
}

func TestMLPJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP(rng, Tanh, 3, 8, 2)
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var m2 MLP
	if err := m2.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -1, 2}
	a, b := m.Forward(x), m2.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("serialized net computes differently")
		}
	}
	// Shape validation.
	if err := m2.UnmarshalJSON([]byte(`{"sizes":[3,2],"act":0,"w":[[1]],"b":[[1,2]]}`)); err == nil {
		t.Fatal("accepted malformed weights")
	}
}
