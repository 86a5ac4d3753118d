package nn

import "fmt"

// Batch is the minibatch tape: a reusable workspace that keeps every
// layer's pre-activations and activations for the n samples of one
// ForwardBatch, stored as flat sample-major rows (row s of layer l is
// [s*Sizes[l+1], (s+1)*Sizes[l+1])), so BackwardBatch reads them instead of
// running the forward pass again.
//
// The zero value is ready to use. The caller owns a Batch and reuses it
// across minibatches: its buffers grow to the largest minibatch and network
// seen and allocate nothing after that. A Batch serves one goroutine at a
// time, and BackwardBatch must follow a ForwardBatch of the same network
// with the parameters unchanged in between.
type Batch struct {
	m     *MLP
	xs    [][]float64 // inputs of the last ForwardBatch (not copied)
	pre   [][]float64 // pre[l]: layer l's pre-activations; the last layer's are the outputs
	act   [][]float64 // act[l]: hidden layer l's activations
	delta []float64   // backward scratch: dL/d(pre-activation) of the current layer
	next  []float64   // backward scratch: dL/d(input) of the current layer
	in4   []float64   // kernel scratch: a four-sample block's inputs (transposed for forward4)
	out4  []float64   // kernel scratch: a four-sample block's outputs or output gradients, transposed
}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is too small. The contents are not cleared.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// input returns the input row of layer l for sample s.
func (b *Batch) input(l, s, in int) []float64 {
	if l == 0 {
		return b.xs[s]
	}
	return b.act[l-1][s*in : (s+1)*in]
}

// ForwardBatch runs the network on every input of xs and records the tape
// in b. It returns the outputs as n flat rows of Sizes[last] values; the
// slice belongs to b and is valid until b's next ForwardBatch. Each output
// is bit-identical to Forward on the same input: every unit sums
// bias + Σ_i w[o][i]·h[i] with i ascending.
func (m *MLP) ForwardBatch(b *Batch, xs [][]float64) []float64 {
	L := len(m.W)
	n := len(xs)
	for s, x := range xs {
		if len(x) != m.Sizes[0] {
			panic(fmt.Sprintf("nn: sample %d has %d inputs, want %d", s, len(x), m.Sizes[0]))
		}
	}
	b.m, b.xs = m, xs
	if len(b.pre) != L {
		b.pre = make([][]float64, L)
		b.act = make([][]float64, L-1)
	}
	for l := 0; l < L; l++ {
		_, out := m.layerShape(l)
		b.pre[l] = grow(b.pre[l], n*out)
		if l < L-1 {
			b.act[l] = grow(b.act[l], n*out)
		}
		m.forwardLayer(b, l, n)
	}
	return b.pre[L-1]
}

// forwardLayer fills layer l's rows of the tape: four samples at a time
// through the forward4 kernel, so each weight row is loaded once per block,
// and the samples left over one at a time.
func (m *MLP) forwardLayer(b *Batch, l, n int) {
	in, out := m.Sizes[l], m.Sizes[l+1]
	w, bias, z := m.W[l], m.B[l], b.pre[l]
	var a []float64
	if l < len(m.W)-1 {
		a = b.act[l]
	}
	b.in4, b.out4 = grow(b.in4, 4*in), grow(b.out4, 4*out)
	hT, y := b.in4[:4*in], b.out4[:4*out]
	s := 0
	for ; s+4 <= n; s += 4 {
		for k := 0; k < 4; k++ {
			for i, v := range b.input(l, s+k, in) {
				hT[4*i+k] = v
			}
		}
		kernels.forward4(y, hT, w, bias)
		for k := 0; k < 4; k++ {
			zk := z[(s+k)*out : (s+k+1)*out]
			for o := range zk {
				zk[o] = y[4*o+k]
			}
		}
	}
	for ; s < n; s++ {
		h := b.input(l, s, in)
		for o := 0; o < out; o++ {
			row := w[o*in : (o+1)*in]
			h := h[:len(row)]
			s0 := bias[o]
			for i, v := range row {
				s0 += float64(v * h[i])
			}
			z[s*out+o] = s0
		}
	}
	if a != nil {
		for k, v := range z[:n*out] {
			a[k] = m.Act.apply(v)
		}
	}
}

// BackwardBatch backpropagates gradOut — dL/dy for each sample of the
// last ForwardBatch on b, as n flat rows of Sizes[last] values — and adds
// the parameter gradients into g. It stops after the input layer's weight
// gradient: dL/dx is never formed.
//
// The result is bit-identical to backpropagating the samples one at a
// time in minibatch order: every g.W and g.B element adds the samples'
// contributions in minibatch order, and every dL/dh element sums over the
// layer's outputs in ascending order. Zero deltas are not skipped.
func (m *MLP) BackwardBatch(b *Batch, gradOut []float64, g *Grads) {
	L := len(m.W)
	n := len(b.xs)
	if b.m != m {
		panic("nn: BackwardBatch without a ForwardBatch of this network")
	}
	if len(gradOut) != n*m.Sizes[L] {
		panic(fmt.Sprintf("nn: gradOut has %d values, want %d", len(gradOut), n*m.Sizes[L]))
	}
	for l := range m.W {
		in, out := m.layerShape(l)
		if len(g.W[l]) != in*out || len(g.B[l]) != out {
			panic(fmt.Sprintf("nn: gradient layer %d has %d weights and %d biases, want %d and %d", l, len(g.W[l]), len(g.B[l]), in*out, out))
		}
	}
	b.delta = grow(b.delta, len(gradOut))
	copy(b.delta, gradOut)
	for l := L - 1; l >= 0; l-- {
		in, out := m.Sizes[l], m.Sizes[l+1]
		delta := b.delta[:n*out]
		if l < L-1 {
			z, a := b.pre[l], b.act[l]
			for k := range delta {
				delta[k] *= m.Act.deriv(z[k], a[k])
			}
		}
		var next []float64
		if l > 0 {
			b.next = grow(b.next, n*in)
			next = b.next
			clear(next)
		}
		m.backwardLayer(b, l, delta, next, g)
		if l > 0 {
			b.delta, b.next = b.next, b.delta
		}
	}
	g.N += n
}

// backwardLayer adds layer l's weight and bias gradients into g and, when
// next is non-nil, dL/d(input) into next: four samples at a time through
// the backward4 kernel, so each gradient and weight row is loaded once per
// block, and the samples left over one at a time.
func (m *MLP) backwardLayer(b *Batch, l int, delta, next []float64, g *Grads) {
	n := len(b.xs)
	in, out := m.Sizes[l], m.Sizes[l+1]
	w, gw, gb := m.W[l], g.W[l], g.B[l]
	b.in4, b.out4 = grow(b.in4, 4*in), grow(b.out4, 4*out)
	dT := b.out4[:4*out]
	s := 0
	for ; s+4 <= n; s += 4 {
		for k := 0; k < 4; k++ {
			for o, d := range delta[(s+k)*out : (s+k+1)*out] {
				dT[4*o+k] = d
			}
		}
		var p []float64
		if l == 0 {
			p = b.in4[:4*in]
			for k := 0; k < 4; k++ {
				copy(p[k*in:(k+1)*in], b.xs[s+k])
			}
		} else {
			p = b.act[l-1][s*in : (s+4)*in]
		}
		var nx []float64
		if next != nil {
			nx = next[s*in : (s+4)*in]
		}
		kernels.backward4(gw, gb, w, dT, p, nx)
	}
	for ; s < n; s++ {
		p := b.input(l, s, in)
		for o := 0; o < out; o++ {
			d := delta[s*out+o]
			gb[o] += d
			grow := gw[o*in : (o+1)*in]
			p := p[:len(grow)]
			for i := range grow {
				grow[i] += float64(d * p[i])
			}
			if next == nil {
				continue
			}
			row := w[o*in : (o+1)*in]
			nx := next[s*in : (s+1)*in][:len(row)]
			for i, v := range row {
				nx[i] += float64(d * v)
			}
		}
	}
}
