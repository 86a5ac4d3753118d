package nn

import "fmt"

// Packed is an inference copy of an MLP for one input at a time: each
// layer's weights transposed into blocks of four outputs, [ob][i][4], with
// the bias padded to a multiple of four, and a buffer per layer for its
// outputs, so Forward allocates nothing. Its outputs are bit-identical to
// MLP.Forward's on the network it was packed from.
//
// A Packed holds a copy of the weights: it is valid until the next change
// to that network's parameters, and PackInto refreshes it. The zero value
// must be packed before use; a Packed serves one goroutine at a time.
type Packed struct {
	sizes []int
	act   Activation
	w     [][]float64 // w[l][((o/4)*in+i)*4+o%4] = W[l][o*in+i], zero for padded outputs
	b     [][]float64 // b[l]: the bias, zero-padded to a multiple of four
	y     [][]float64 // y[l]: layer l's outputs, padded like b[l]
}

// PackInto copies m's current parameters into p, reusing p's buffers.
func (m *MLP) PackInto(p *Packed) {
	L := len(m.W)
	p.sizes = append(p.sizes[:0], m.Sizes...)
	p.act = m.Act
	if len(p.w) != L {
		p.w, p.b, p.y = make([][]float64, L), make([][]float64, L), make([][]float64, L)
	}
	for l := range m.W {
		in, out := m.layerShape(l)
		out4 := (out + 3) &^ 3
		w := grow(p.w[l], out4*in)
		clear(w[out*in:])
		src := m.W[l]
		for o := 0; o < out; o++ {
			blk := w[(o/4)*4*in:]
			for i, v := range src[o*in : (o+1)*in] {
				blk[4*i+o%4] = v
			}
		}
		b := grow(p.b[l], out4)
		clear(b[copy(b, m.B[l]):])
		p.w[l], p.b[l], p.y[l] = w, b, grow(p.y[l], out4)
	}
}

// Forward computes the network output for a single input vector, like
// MLP.Forward. The result belongs to p and is valid until p's next Forward
// or PackInto.
func (p *Packed) Forward(x []float64) []float64 {
	if len(p.sizes) == 0 {
		panic("nn: Forward on an unpacked Packed")
	}
	if len(x) != p.sizes[0] {
		panic(fmt.Sprintf("nn: layer 0 wants %d inputs, got %d", p.sizes[0], len(x)))
	}
	h := x
	for l := range p.w {
		kernels.packedForward(p.y[l], h, p.w[l], p.b[l])
		h = p.y[l][:p.sizes[l+1]]
		if l < len(p.w)-1 {
			for k, v := range h {
				h[k] = p.act.apply(v)
			}
		}
	}
	return h
}
