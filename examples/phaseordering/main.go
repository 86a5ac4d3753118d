// Phase-ordering demo: the paper's Figures 1–3 example, reproduced on this
// IR. A norm() loop divides every element by mag(n, in), a pure function of
// the whole array. Applying LICM before inlining hoists the call and the
// program runs in Θ(n); inlining first buries the reduction loop inside the
// outer loop where LICM can no longer hoist it, leaving Θ(n²).
//
// Run with:
//
//	go run ./examples/phaseordering
package main

import (
	"fmt"
	"log"

	"autophase/internal/hls"
	"autophase/internal/ir"
	"autophase/internal/passes"
	"autophase/internal/progen"
)

// buildNorm constructs the paper's Figure 1 program: mag() computes a sum
// over the array (an integer stand-in for the sqrt of a dot product), and
// norm() divides each element by it.
func buildNorm(n int) *ir.Module {
	m := ir.NewModule("norm")
	fe := progen.NewFE(m)

	g := m.NewGlobal("in", ir.ArrayOf(ir.I32, n), nil, false)
	out := m.NewGlobal("out", ir.ArrayOf(ir.I32, n), nil, false)

	// mag(n): sum of squares over @in, scaled down so division is benign.
	mag := fe.Begin("mag", ir.I32, "n")
	{
		fe.Var("sum", 0)
		fe.For("i", 0, int64(n), 1, func(iv func() ir.Value) {
			v := fe.GetG(g, iv())
			fe.Set("sum", fe.Add(fe.V("sum"), fe.Mul(v, v)))
		})
		fe.Ret(fe.Or(fe.Sar(fe.V("sum"), fe.C(8)), fe.C(1))) // non-zero
	}

	fe.Begin("main", ir.I32)
	fe.For("init", 0, int64(n), 1, func(iv func() ir.Value) {
		fe.PutG(g, iv(), fe.Add(fe.And(fe.Mul(iv(), fe.C(37)), fe.C(0xff)), fe.C(1)))
	})
	// norm: out[i] = in[i] * 1000 / mag(n, in)
	fe.For("i", 0, int64(n), 1, func(iv func() ir.Value) {
		d := fe.Call(mag, fe.C(int64(n)))
		fe.PutG(out, iv(), fe.Div(fe.Mul(fe.GetG(g, iv()), fe.C(1000)), d))
	})
	fe.Var("checksum", 0)
	fe.For("k", 0, int64(n), 1, func(kv func() ir.Value) {
		fe.Set("checksum", fe.Add(fe.V("checksum"), fe.GetG(out, kv())))
	})
	fe.Print(fe.V("checksum"))
	fe.Ret(fe.V("checksum"))
	return m
}

var profiler = hls.NewProfiler(hls.ProfileOptions{Engine: hls.EngineInterp})

func cyclesAfter(m *ir.Module, seq []int) int64 {
	c := m.Clone()
	passes.Apply(c, seq)
	rep, err := profiler.Profile(c)
	if err != nil {
		log.Fatal(err)
	}
	return rep.Cycles
}

func main() {
	const (
		mem2reg       = 38
		functionattrs = 19
		licm          = 36
		inline        = 25
		loopSimplify  = 29
	)
	for _, n := range []int{32, 64, 128} {
		m := buildNorm(n)
		base := cyclesAfter(m, nil)

		// Order A (Figure 2): LICM first — the pure mag() call hoists out
		// of the loop — then inline.
		orderA := []int{mem2reg, loopSimplify, functionattrs, licm, inline}
		// Order B (Figure 3): inline first, then LICM — the reduction loop
		// is now nested and cannot be hoisted.
		orderB := []int{mem2reg, loopSimplify, inline, functionattrs, licm}

		a := cyclesAfter(m, orderA)
		b := cyclesAfter(m, orderB)
		fmt.Printf("n=%3d  -O0=%8d cycles   licm→inline=%8d (Θ(n))   inline→licm=%8d (Θ(n²))   ratio=%.1fx\n",
			n, base, a, b, float64(b)/float64(a))
	}
	fmt.Println("\nThe same passes, opposite order: the Θ(n) / Θ(n²) gap from the")
	fmt.Println("paper's introduction. This is why phase ordering matters for HLS.")
}
