package main

import (
	"fmt"
	"slices"

	"autophase/internal/core"
	"autophase/internal/interp"
	"autophase/internal/ir"
	"autophase/internal/passes"
	"autophase/internal/progen"
)

// reference is one input program with its unoptimized behaviour: the exit
// value and print trace that every optimized variant must reproduce. The
// interpreter computes it, independently of the profiling engines under
// test.
type reference struct {
	name  string
	mod   *ir.Module
	exit  int64
	trace []int64
}

func newReference(name string, m *ir.Module) (*reference, error) {
	res, err := interp.Run(m, interp.DefaultLimits)
	if err != nil {
		return nil, fmt.Errorf("%s: O0 reference run: %w", name, err)
	}
	return &reference{name: name, mod: m, exit: res.Exit, trace: res.Trace}, nil
}

// check applies seq to the original module, runs the result under the
// interpreter and compares its behaviour with the O0 reference.
func (r *reference) check(seq []int) error {
	m, _ := passes.RunSequence(r.mod, seq)
	res, err := interp.Run(m, interp.DefaultLimits)
	if err != nil {
		return fmt.Errorf("%s: best sequence %v fails under the interpreter: %w", r.name, seq, err)
	}
	if res.Exit != r.exit || !slices.Equal(res.Trace, r.trace) {
		return fmt.Errorf("%s: best sequence %v changes behaviour: exit %d and %d printed values, O0 gives exit %d and %d",
			r.name, seq, res.Exit, len(res.Trace), r.exit, len(r.trace))
	}
	return nil
}

// benchmarkRefs builds the nine benchmark programs (three when tiny) with
// their references.
func benchmarkRefs(tiny bool) ([]*reference, error) {
	names := progen.BenchmarkNames
	if tiny {
		names = names[:3]
	}
	refs := make([]*reference, 0, len(names))
	for _, name := range names {
		ref, err := newReference(name, progen.Benchmark(name))
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// checkAccounting checks the engine's sample accounting invariant.
func checkAccounting(job string, st core.EvalStats) error {
	if st.Samples != st.Successes+st.Faults+st.Flagged {
		return fmt.Errorf("%s: samples=%d != successes+faults+flagged=%d+%d+%d",
			job, st.Samples, st.Successes, st.Faults, st.Flagged)
	}
	return nil
}
