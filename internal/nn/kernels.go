package nn

// The dense-layer kernels: the inner work of ForwardBatch, BackwardBatch and
// Packed.Forward. Each kernel has a portable Go implementation, below, and
// may have a vector implementation for the CPU the program runs on; the
// package picks one set at init. Every implementation rounds each product
// before adding it and keeps every sum in the order documented here, so
// all sets produce the same bits (NaN payloads aside) and the Go set is the
// test oracle for the others. The explicit float64 conversions in the Go
// kernels stop the compiler from fusing a multiply and an add on targets
// that have FMA.

// kernelSet is one implementation of the dense-layer kernels.
type kernelSet struct {
	name string

	// forward4 computes one four-sample block of a dense layer's
	// pre-activations: y[o*4+k] = bias[o] + Σ_i w[o*in+i]·hT[i*4+k], summed
	// with i ascending, for in = len(hT)/4 and out = len(bias). hT holds the
	// block's four input rows transposed; w has out*in entries and y 4*out.
	forward4 func(y, hT, w, bias []float64)

	// backward4 accumulates one four-sample block of a dense layer's
	// backward pass, for in = len(p)/4 and out = len(gb). dT holds the
	// block's output gradients transposed (dT[o*4+k] for sample k) and p the
	// block's four input rows back to back. For every o, gb[o] adds dT for
	// samples 0 to 3 in turn, and so does each gw[o*in+i] with
	// dT[o*4+k]·p[k*in+i]. When nx is non-empty it holds the block's four
	// dL/dh rows back to back, and nx[k*in+i] adds dT[o*4+k]·w[o*in+i] with
	// o ascending.
	backward4 func(gw, gb, w, dT, p, nx []float64)

	// packedForward computes one layer of a single-sample forward pass over
	// weights packed in blocks of four outputs: y[o] = bias[o] +
	// Σ_i wT[((o/4)*in+i)*4+o%4]·h[i], summed with i ascending, for
	// in = len(h) and every o < len(bias), a multiple of four.
	packedForward func(y, h, wT, bias []float64)
}

// goKernels is the portable kernel set.
var goKernels = kernelSet{
	name:          "go",
	forward4:      forward4Go,
	backward4:     backward4Go,
	packedForward: packedForwardGo,
}

// kernelSets lists the kernel sets this build and CPU can run, the portable
// one first; init appends the vector sets the CPU supports.
var kernelSets = []kernelSet{goKernels}

// kernels is the set in use: the last of kernelSets, chosen at init.
var kernels = goKernels

func forward4Go(y, hT, w, bias []float64) {
	in := len(hT) / 4
	for o, b := range bias {
		s0, s1, s2, s3 := b, b, b, b
		for i, v := range w[o*in : (o+1)*in] {
			h := (*[4]float64)(hT[4*i:])
			s0 += float64(v * h[0])
			s1 += float64(v * h[1])
			s2 += float64(v * h[2])
			s3 += float64(v * h[3])
		}
		y[4*o], y[4*o+1], y[4*o+2], y[4*o+3] = s0, s1, s2, s3
	}
}

func backward4Go(gw, gb, w, dT, p, nx []float64) {
	in := len(p) / 4
	p0, p1, p2, p3 := p[:in], p[in:2*in], p[2*in:3*in], p[3*in:4*in]
	var n0, n1, n2, n3 []float64
	if len(nx) > 0 {
		n0, n1, n2, n3 = nx[:in], nx[in:2*in], nx[2*in:3*in], nx[3*in:4*in]
	}
	for o := range gb {
		d0, d1, d2, d3 := dT[4*o], dT[4*o+1], dT[4*o+2], dT[4*o+3]
		gb[o] += d0
		gb[o] += d1
		gb[o] += d2
		gb[o] += d3
		grow := gw[o*in : (o+1)*in]
		p0, p1, p2, p3 := p0[:len(grow)], p1[:len(grow)], p2[:len(grow)], p3[:len(grow)]
		for i, x := range grow {
			x += float64(d0 * p0[i])
			x += float64(d1 * p1[i])
			x += float64(d2 * p2[i])
			x += float64(d3 * p3[i])
			grow[i] = x
		}
		if n0 == nil {
			continue
		}
		row := w[o*in : (o+1)*in]
		n0, n1, n2, n3 := n0[:len(row)], n1[:len(row)], n2[:len(row)], n3[:len(row)]
		for i, v := range row {
			n0[i] += float64(d0 * v)
			n1[i] += float64(d1 * v)
			n2[i] += float64(d2 * v)
			n3[i] += float64(d3 * v)
		}
	}
}

func packedForwardGo(y, h, wT, bias []float64) {
	in := len(h)
	for o := 0; o+4 <= len(bias); o += 4 {
		blk := wT[o*in : (o+4)*in]
		s0, s1, s2, s3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
		for i, v := range h {
			w := (*[4]float64)(blk[4*i:])
			s0 += float64(w[0] * v)
			s1 += float64(w[1] * v)
			s2 += float64(w[2] * v)
			s3 += float64(w[3] * v)
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
}
