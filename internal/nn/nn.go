// Package nn is a minimal dense neural-network library with reverse-mode
// gradients and the Adam optimizer — enough to train the paper's 256×256
// fully connected policy and value networks without any external ML
// dependency.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects the nonlinearity between hidden layers.
type Activation int

// Supported activations.
const (
	ReLU Activation = iota
	Tanh
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	}
	return x
}

func (a Activation) deriv(x, y float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return 1
	case Tanh:
		return 1 - y*y
	}
	return 1
}

// MLP is a fully connected network with a linear output layer. Weights are
// stored flat: W[l][o*in+i].
type MLP struct {
	Sizes []int // layer widths, input first, output last
	Act   Activation
	W     [][]float64
	B     [][]float64
}

// NewMLP builds a network with Xavier-uniform initialization from rng.
func NewMLP(rng *rand.Rand, act Activation, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	m := &MLP{Sizes: append([]int(nil), sizes...), Act: act}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		limit := math.Sqrt(6.0 / float64(in+out))
		w := make([]float64, in*out)
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * limit
		}
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float64, out))
	}
	return m
}

// NumLayers returns the number of weight layers.
func (m *MLP) NumLayers() int { return len(m.W) }

// Forward computes the network output for a single input vector.
func (m *MLP) Forward(x []float64) []float64 {
	h := x
	for l := range m.W {
		h = m.layerForward(l, h, l < len(m.W)-1)
	}
	return h
}

func (m *MLP) layerForward(l int, h []float64, activate bool) []float64 {
	in, out := m.Sizes[l], m.Sizes[l+1]
	if len(h) != in {
		panic(fmt.Sprintf("nn: layer %d wants %d inputs, got %d", l, in, len(h)))
	}
	y := make([]float64, out)
	w := m.W[l]
	for o := 0; o < out; o++ {
		s := m.B[l][o]
		row := w[o*in : (o+1)*in]
		for i, v := range h {
			s += float64(row[i] * v)
		}
		if activate {
			s = m.Act.apply(s)
		}
		y[o] = s
	}
	return y
}

// layerShape returns layer l's input and output widths, and panics unless
// its weights and biases have the lengths Sizes implies: the kernels read
// them without bounds checks.
func (m *MLP) layerShape(l int) (in, out int) {
	in, out = m.Sizes[l], m.Sizes[l+1]
	if len(m.W[l]) != in*out || len(m.B[l]) != out {
		panic(fmt.Sprintf("nn: layer %d has %d weights and %d biases, want %d and %d", l, len(m.W[l]), len(m.B[l]), in*out, out))
	}
	return in, out
}

// Grads accumulates parameter gradients with the same shapes as the MLP.
type Grads struct {
	W [][]float64
	B [][]float64
	N int // samples accumulated
}

// NewGrads allocates a gradient buffer for m.
func (m *MLP) NewGrads() *Grads {
	g := &Grads{}
	for l := range m.W {
		g.W = append(g.W, make([]float64, len(m.W[l])))
		g.B = append(g.B, make([]float64, len(m.B[l])))
	}
	return g
}

// Zero clears the buffer.
func (g *Grads) Zero() {
	for l := range g.W {
		for i := range g.W[l] {
			g.W[l][i] = 0
		}
		for i := range g.B[l] {
			g.B[l][i] = 0
		}
	}
	g.N = 0
}

// Add accumulates another gradient buffer into g.
func (g *Grads) Add(o *Grads) {
	for l := range g.W {
		for i := range g.W[l] {
			g.W[l][i] += o.W[l][i]
		}
		for i := range g.B[l] {
			g.B[l][i] += o.B[l][i]
		}
	}
	g.N += o.N
}

// Scale multiplies all gradients by k.
func (g *Grads) Scale(k float64) {
	for l := range g.W {
		for i := range g.W[l] {
			g.W[l][i] *= k
		}
		for i := range g.B[l] {
			g.B[l][i] *= k
		}
	}
}

// Clone deep-copies the network (A3C workers snapshot the shared net).
func (m *MLP) Clone() *MLP {
	c := &MLP{Sizes: append([]int(nil), m.Sizes...), Act: m.Act}
	for l := range m.W {
		c.W = append(c.W, append([]float64(nil), m.W[l]...))
		c.B = append(c.B, append([]float64(nil), m.B[l]...))
	}
	return c
}

// CopyFrom overwrites m's parameters with src's.
func (m *MLP) CopyFrom(src *MLP) {
	for l := range m.W {
		copy(m.W[l], src.W[l])
		copy(m.B[l], src.B[l])
	}
}

// NumParams counts trainable parameters.
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.W {
		n += len(m.W[l]) + len(m.B[l])
	}
	return n
}

// AddNoise perturbs parameters in place with sigma-scaled entries of eps
// (used by evolution strategies); eps must have NumParams entries.
func (m *MLP) AddNoise(eps []float64, sigma float64) {
	k := 0
	for l := range m.W {
		for i := range m.W[l] {
			m.W[l][i] += sigma * eps[k]
			k++
		}
		for i := range m.B[l] {
			m.B[l][i] += sigma * eps[k]
			k++
		}
	}
}
