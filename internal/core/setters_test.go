package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autophase/internal/artifact"
	"autophase/internal/interp"
)

// TestSettersUnderLoad runs SetLimits, EnableSanitizer and SetArtifacts
// against concurrent EvalBatch calls on one Program. Each setter rebuilds
// the Program's profiler while compiles are in flight; every sample must
// still resolve to exactly one of successes, faults and flagged, and every
// successful result must match a Program that never changed its
// configuration (the limits below differ only in the deadline, which a
// profile that succeeds does not depend on).
func TestSettersUnderLoad(t *testing.T) {
	st, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := mustProgram(t, "matmul")
	ref := mustProgram(t, "matmul")
	seqs := randSeqs(rand.New(rand.NewSource(41)), 24, 5)

	const runners = 3
	stop := make(chan struct{})
	var calls atomic.Int64 // setter calls so far
	var setters sync.WaitGroup
	setters.Add(1)
	go func() {
		defer setters.Done()
		lim := interp.DefaultLimits
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				lim.Deadline = time.Duration(1+i%3) * time.Minute
				p.SetLimits(lim)
			case 1:
				p.SetArtifacts(st)
			case 2:
				p.EnableSanitizer()
			case 3:
				p.SetArtifacts(nil)
			}
			calls.Add(1)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	results := make([][]EvalResult, runners)
	var wg sync.WaitGroup
	for r := 0; r < runners; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := NewEvaluator(p, 2)
			// Keep evaluating until every setter has run a few times.
			for round := 0; round < 3 || (calls.Load() < 16 && round < 200); round++ {
				results[r] = append(results[r], ev.EvalBatch(seqs)...)
			}
		}()
	}
	wg.Wait()
	close(stop)
	setters.Wait()

	s := p.EvalStats()
	if s.Samples != s.Successes+s.Faults+s.Flagged {
		t.Fatalf("samples=%d != successes=%d + faults=%d + flagged=%d",
			s.Samples, s.Successes, s.Faults, s.Flagged)
	}
	if s.Faults != 0 || s.Flagged != 0 || s.FPMismatches != 0 {
		t.Fatalf("setters under load caused faults=%d flagged=%d fp-mismatches=%d",
			s.Faults, s.Flagged, s.FPMismatches)
	}
	for _, rs := range results {
		for _, res := range rs {
			c, a, ok := ref.CompileArea(res.Seq)
			if res.Ok != ok || res.Cycles != c || res.Area != a {
				t.Fatalf("%v: got (%d,%d,%v) under changing setters, want (%d,%d,%v)",
					res.Seq, res.Cycles, res.Area, res.Ok, c, a, ok)
			}
		}
	}
}
