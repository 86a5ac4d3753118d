package core

import (
	"testing"
	"time"

	"autophase/internal/faults"
	"autophase/internal/interp"
)

// findDeadlineSeq compiles candidate sequences under interp-stall injection
// until one takes the interpreter path (the static estimator answers some
// matmul sequences without running the interpreter, and those cannot stall)
// and comes back as a deadline-class fault.
func findDeadlineSeq(t *testing.T, p *Program) []int {
	t.Helper()
	candidates := [][]int{
		{38, 38}, {0, 0}, {3, 3}, {5, 5}, {10, 10}, {21, 21},
		{38, 0}, {0, 3}, {31, 31}, {30, 30}, {1, 1}, {2, 2},
	}
	for _, seq := range candidates {
		r := p.compile(seq)
		if r.fault != nil && r.fault.Kind == FaultDeadline {
			return seq
		}
	}
	t.Fatal("no candidate sequence reached the interpreter under stall injection")
	return nil
}

func TestDeadlineQuarantineRetryAndSetLimits(t *testing.T) {
	p := mustProgram(t, "matmul")

	// Panic-class entry first.
	enableFaults(t, "pass-panic:1")
	pseq := []int{7, 8}
	if r := p.compile(pseq); r.fault == nil || r.fault.Kind != FaultPanic {
		t.Fatalf("want panic fault, got %v", r.fault)
	}
	faults.Disable()

	// Deadline-class entry: injected stalls surface as interp.ErrDeadline.
	enableFaults(t, "interp-stall:1")
	r0 := p.ctr[cRetries].Load()
	dseq := findDeadlineSeq(t, p)
	faults.Disable()
	if d := p.ctr[cRetries].Load() - r0; d < 1 {
		t.Fatalf("deadline faults get one bounded retry, retries delta %d", d)
	}
	if f, q := p.IsQuarantined(dseq); !q || f.Kind != FaultDeadline {
		t.Fatalf("deadline fault not quarantined after failed retry: %v %v", f, q)
	}
	if _, q := p.IsQuarantined(pseq); !q {
		t.Fatal("panic entry lost before SetLimits")
	}

	// SetLimits grants deadline-class entries a fresh trial but keeps
	// panic-class entries: a panicking pass panics under any limit.
	p.SetLimits(interp.DefaultLimits)
	if _, q := p.IsQuarantined(dseq); q {
		t.Fatal("SetLimits must clear deadline-class quarantine entries")
	}
	if _, q := p.IsQuarantined(pseq); !q {
		t.Fatal("SetLimits must keep panic-class quarantine entries")
	}
	if _, _, ok := p.Compile(dseq); !ok {
		t.Fatal("deadline-quarantined sequence should compile cleanly after SetLimits")
	}
	if r := p.compile(pseq); r.ok || r.fault == nil || r.fault.Kind != FaultPanic {
		t.Fatalf("panic-quarantined sequence must stay faulted, got ok=%v fault=%v", r.ok, r.fault)
	}
}

func TestQuarantineLeavesHealthyCacheAlone(t *testing.T) {
	p := mustProgram(t, "matmul")
	healthy := []int{38, 31}
	c1, _, ok := p.Compile(healthy)
	if !ok {
		t.Fatal("healthy compile failed")
	}
	fp0 := len(p.fpEntries)

	enableFaults(t, "pass-panic:1")
	if r := p.compile([]int{4, 6}); r.fault == nil {
		t.Fatal("injection did not fault")
	}
	faults.Disable()

	if got := len(p.fpEntries); got != fp0 {
		t.Fatalf("a fault must not disturb the fingerprint store: %d entries, was %d", got, fp0)
	}
	h0 := p.ctr[cCacheHits].Load()
	c2, _, ok := p.Compile(healthy)
	if !ok || c2 != c1 {
		t.Fatalf("healthy entry damaged: ok=%v cycles %d, was %d", ok, c2, c1)
	}
	if d := p.ctr[cCacheHits].Load() - h0; d != 1 {
		t.Fatalf("healthy re-query should be a cache hit, hits delta %d", d)
	}
}

func TestWallClockDeadline(t *testing.T) {
	p := mustProgram(t, "matmul")
	lim := interp.DefaultLimits
	lim.Deadline = time.Nanosecond
	p.SetLimits(lim)
	// Any sequence answered by the interpreter trips a 1ns deadline on its
	// first poll; static-path answers are immune, so scan candidates.
	found := false
	for _, seq := range [][]int{{38, 38}, {0, 0}, {3, 3}, {5, 5}, {31, 31}, {1, 1}} {
		r := p.compile(seq)
		if r.fault != nil && r.fault.Kind == FaultDeadline {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("1ns deadline never tripped — deadline polling is broken")
	}
	// Restoring sane limits clears the deadline verdicts.
	p.SetLimits(interp.DefaultLimits)
	if n := p.QuarantineCount(); n != 0 {
		t.Fatalf("deadline-only quarantine should be empty after SetLimits, got %d", n)
	}
}
