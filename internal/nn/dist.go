package nn

import (
	"math"
	"math/rand"
)

// Softmax returns the softmax of logits (numerically stabilized).
func Softmax(logits []float64) []float64 {
	p := make([]float64, len(logits))
	SoftmaxInto(p, logits)
	return p
}

// SoftmaxInto writes the softmax of logits into p, which must have the same
// length, and returns lse = log Σ_i exp(logits[i]), so that
// logits[i]-lse is the log-probability of i without a second pass.
func SoftmaxInto(p, logits []float64) (lse float64) {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	p = p[:len(logits)]
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		p[i] = e
		sum += e
	}
	for i := range p {
		p[i] /= sum
	}
	return maxv + math.Log(sum)
}

// SampleCategorical draws an index from the distribution given by probs.
func SampleCategorical(rng *rand.Rand, probs []float64) int {
	u := rng.Float64()
	var c float64
	for i, p := range probs {
		c += p
		if u < c {
			return i
		}
	}
	return len(probs) - 1
}

// Argmax returns the index of the maximum element.
func Argmax(v []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// Entropy computes the Shannon entropy of a probability vector.
func Entropy(p []float64) float64 {
	var h float64
	for _, x := range p {
		if x > 1e-12 {
			h -= x * math.Log(x)
		}
	}
	return h
}

// CategoricalGrad writes dL/dlogits for L = -coef*logp[action] (policy
// gradient through a softmax) into g, given p = softmax(logits):
// g = coef * (p - onehot(action)).
func CategoricalGrad(g, p []float64, action int, coef float64) {
	g = g[:len(p)]
	for i := range p {
		g[i] = coef * p[i]
	}
	g[action] -= coef
}

// EntropyGrad writes dH/dlogits for the softmax entropy H (ascending) into
// g, given p = softmax(logits) and h = Entropy(p):
// dH/dlogit_i = -p_i * (log p_i + H); the caller negates it as needed.
func EntropyGrad(g, p []float64, h float64) {
	g = g[:len(p)]
	for i := range p {
		lp := math.Log(math.Max(p[i], 1e-12))
		g[i] = -p[i] * (lp + h)
	}
}
