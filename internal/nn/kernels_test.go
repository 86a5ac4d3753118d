package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// useKernels makes ks the kernel set in use until t ends.
func useKernels(t testing.TB, ks kernelSet) {
	old := kernels
	kernels = ks
	t.Cleanup(func() { kernels = old })
}

// vectorSets returns the kernel sets other than the Go one that this CPU
// runs, skipping t when there are none.
func vectorSets(t *testing.T) []kernelSet {
	if len(kernelSets) < 2 {
		t.Skip("no vector kernels on this CPU")
	}
	return kernelSets[1:]
}

// specials are inputs whose handling must not differ between kernel sets:
// signed zeros, subnormals, values whose products overflow, infinities and
// NaN.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
	1e300, -1e300, 1e200, math.Inf(1), math.Inf(-1), math.NaN(),
}

// vec returns n normal deviates; when special is set, about a quarter of
// them are replaced with entries of specials.
func vec(rng *rand.Rand, n int, special bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
		if special && rng.Intn(4) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

// sameBits reports whether a and b have the same bits, or are both NaN:
// the Go compiler may swap the operands of a commutative MULSD or ADDSD,
// and x86 returns the first operand's payload when both are NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func checkSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

var (
	kernelIns  = []int{1, 3, 4, 5, 56, 64, 65}
	kernelOuts = []int{1, 2, 3, 4, 5, 46, 64}
	kernelNs   = []int{1, 3, 4, 5, 8, 64, 65}
)

// TestKernelsMatchGeneric checks every vector kernel against the Go one,
// bit for bit, on every output, weight-gradient and dL/dh element, for
// shapes that cover the vector blocks and their tails, with and without
// special values; then whole ForwardBatch and BackwardBatch calls over
// batch sizes that cover the four-sample blocks and their tails.
func TestKernelsMatchGeneric(t *testing.T) {
	for _, ks := range vectorSets(t) {
		for _, special := range []bool{false, true} {
			for _, in := range kernelIns {
				for _, out := range kernelOuts {
					name := fmt.Sprintf("%s in=%d out=%d special=%v", ks.name, in, out, special)
					rng := rand.New(rand.NewSource(int64(in*100 + out)))
					compareKernels(t, name, rng, ks, in, out, special)
				}
			}
		}
		for _, in := range kernelIns {
			for _, out := range kernelOuts {
				for _, n := range kernelNs {
					name := fmt.Sprintf("%s in=%d out=%d n=%d", ks.name, in, out, n)
					rng := rand.New(rand.NewSource(int64(in*10000 + out*100 + n)))
					compareBatch(t, name, rng, ks, in, out, n)
				}
			}
		}
	}
}

func compareKernels(t *testing.T, name string, rng *rand.Rand, ks kernelSet, in, out int, special bool) {
	w, bias := vec(rng, out*in, special), vec(rng, out, special)

	hT := vec(rng, 4*in, special)
	want, got := vec(rng, 4*out, false), vec(rng, 4*out, false)
	goKernels.forward4(want, hT, w, bias)
	ks.forward4(got, hT, w, bias)
	checkSame(t, name+" forward4 y", got, want)

	dT, p := vec(rng, 4*out, special), vec(rng, 4*in, special)
	gw, gb, nx := vec(rng, out*in, special), vec(rng, out, special), vec(rng, 4*in, special)
	for _, withNext := range []bool{false, true} {
		wantW, wantB, wantN := append([]float64(nil), gw...), append([]float64(nil), gb...), append([]float64(nil), nx...)
		gotW, gotB, gotN := append([]float64(nil), gw...), append([]float64(nil), gb...), append([]float64(nil), nx...)
		if withNext {
			goKernels.backward4(wantW, wantB, w, dT, p, wantN)
			ks.backward4(gotW, gotB, w, dT, p, gotN)
		} else {
			goKernels.backward4(wantW, wantB, w, dT, p, nil)
			ks.backward4(gotW, gotB, w, dT, p, nil)
		}
		what := fmt.Sprintf("%s backward4 (dL/dh %v)", name, withNext)
		checkSame(t, what+" gw", gotW, wantW)
		checkSame(t, what+" gb", gotB, wantB)
		checkSame(t, what+" dL/dh", gotN, wantN)
	}

	out4 := (out + 3) &^ 3
	wT, bias4, h := vec(rng, out4*in, special), vec(rng, out4, special), vec(rng, in, special)
	want, got = vec(rng, out4, false), vec(rng, out4, false)
	goKernels.packedForward(want, h, wT, bias4)
	ks.packedForward(got, h, wT, bias4)
	checkSame(t, name+" packedForward y", got, want)
}

// compareBatch runs one ForwardBatch and BackwardBatch of an in→in→out
// network under the Go kernels and under ks, and compares the outputs and
// the gradients. Inputs and output gradients include special values.
func compareBatch(t *testing.T, name string, rng *rand.Rand, ks kernelSet, in, out, n int) {
	m := NewMLP(rng, Tanh, in, in, out)
	xs := make([][]float64, n)
	for s := range xs {
		xs[s] = vec(rng, in, true)
	}
	gradOut := vec(rng, n*out, true)
	run := func(set kernelSet) ([]float64, *Grads) {
		saved := kernels
		kernels = set
		defer func() { kernels = saved }()
		var b Batch
		g := m.NewGrads()
		ys := append([]float64(nil), m.ForwardBatch(&b, xs)...)
		m.BackwardBatch(&b, gradOut, g)
		return ys, g
	}
	wantY, want := run(goKernels)
	gotY, got := run(ks)
	checkSame(t, name+" outputs", gotY, wantY)
	for l := range want.W {
		checkSame(t, fmt.Sprintf("%s gw[%d]", name, l), got.W[l], want.W[l])
		checkSame(t, fmt.Sprintf("%s gb[%d]", name, l), got.B[l], want.B[l])
	}
}

// TestPackedMatchesForward checks that Packed.Forward is bit-identical to
// MLP.Forward under every kernel set, for odd widths, after a weight change
// and a repack into the same Packed, and after packing a network of another
// shape into it.
func TestPackedMatchesForward(t *testing.T) {
	for _, ks := range kernelSets {
		t.Run(ks.name, func(t *testing.T) {
			useKernels(t, ks)
			for _, act := range []Activation{ReLU, Tanh} {
				rng := rand.New(rand.NewSource(3))
				var p Packed
				check := func(m *MLP, stage string) {
					t.Helper()
					for k := 0; k < 5; k++ {
						x := vec(rng, m.Sizes[0], false)
						checkSame(t, fmt.Sprintf("act=%v %s", act, stage), p.Forward(x), m.Forward(x))
					}
				}
				m := NewMLP(rng, act, 7, 9, 13, 5)
				m.PackInto(&p)
				check(m, "fresh")
				eps := vec(rng, m.NumParams(), false)
				m.AddNoise(eps, 0.1)
				m.PackInto(&p)
				check(m, "after a weight change")
				m = NewMLP(rng, act, 5, 3, 46)
				m.PackInto(&p)
				check(m, "after packing another shape")
			}
		})
	}
}

// BenchmarkDenseBatch times one ForwardBatch and BackwardBatch of a
// 64-sample minibatch, the PPO learner's unit of work, through the
// benchmark's 56→64→64→46 network and the paper's 56→256→256→46, under each
// kernel set the CPU runs.
func BenchmarkDenseBatch(b *testing.B) {
	for _, h := range []int{64, 256} {
		for _, ks := range kernelSets {
			b.Run(fmt.Sprintf("hidden=%dx%d/%s", h, h, ks.name), func(b *testing.B) {
				useKernels(b, ks)
				rng := rand.New(rand.NewSource(1))
				m := NewMLP(rng, ReLU, 56, h, h, 46)
				xs := randRows(rng, 64, 56)
				gradOut := vec(rng, 64*46, false)
				g := m.NewGrads()
				var tape Batch
				m.ForwardBatch(&tape, xs) // size the tape's buffers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.ForwardBatch(&tape, xs)
					m.BackwardBatch(&tape, gradOut, g)
				}
			})
		}
	}
}
