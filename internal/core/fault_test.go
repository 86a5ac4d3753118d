package core

import (
	"strings"
	"sync"
	"testing"

	"autophase/internal/faults"
	"autophase/internal/passes"
)

// enableFaults turns on deterministic injection for one test and guarantees
// it is off again afterwards (the injector is process-global).
func enableFaults(t *testing.T, spec string) {
	t.Helper()
	s, err := faults.ParseSpec(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(s)
	t.Cleanup(faults.Disable)
}

// invariantDelta asserts samples == successes + faults + flagged over the
// counters accumulated since the snapshot.
type counterSnap struct{ samples, successes, faults, flagged, compiles, hits int64 }

func snap(p *Program) counterSnap {
	return counterSnap{
		samples: p.ctr[cSamples].Load(), successes: p.ctr[cSuccesses].Load(),
		faults: p.ctr[cFaults].Load(), flagged: p.ctr[cFlagged].Load(),
		compiles: p.ctr[cCompiles].Load(), hits: p.ctr[cCacheHits].Load(),
	}
}

func checkInvariant(t *testing.T, p *Program, s0 counterSnap) {
	t.Helper()
	s1 := snap(p)
	ds := s1.samples - s0.samples
	if got := (s1.successes - s0.successes) + (s1.faults - s0.faults) + (s1.flagged - s0.flagged); got != ds {
		t.Fatalf("accounting invariant broken: samples delta %d, successes+faults+flagged delta %d", ds, got)
	}
}

func TestBadSeqFaultRecharged(t *testing.T) {
	p := mustProgram(t, "matmul")
	s0 := snap(p)
	bad := []int{passes.NumPasses + 5}
	for i := 1; i <= 3; i++ {
		r := p.compile(bad)
		if r.ok || r.fault == nil || r.fault.Kind != FaultBadSeq {
			t.Fatalf("query %d: want bad-seq fault, got ok=%v fault=%v", i, r.ok, r.fault)
		}
		if d := p.ctr[cSamples].Load() - s0.samples; d != int64(i) {
			t.Fatalf("query %d: bad-seq must re-charge one sample per query, samples delta %d", i, d)
		}
	}
	if n := p.QuarantineCount(); n != 0 {
		t.Fatalf("bad-seq faults must never be quarantined, got %d entries", n)
	}
	checkInvariant(t, p, s0)
}

func TestPassPanicFaultAndQuarantine(t *testing.T) {
	p := mustProgram(t, "matmul")
	s0 := snap(p)
	seq := []int{0, 1, 2}

	enableFaults(t, "pass-panic:1")
	r := p.compile(seq)
	if r.ok || r.fault == nil {
		t.Fatalf("want contained fault, got ok=%v fault=%v", r.ok, r.fault)
	}
	if r.fault.Kind != FaultPanic || r.fault.Stage != "pass" {
		t.Fatalf("want panic/pass fault, got %s/%s", r.fault.Kind, r.fault.Stage)
	}
	if r.fault.Pass != seq[0] || r.fault.Pos != 0 {
		t.Fatalf("pass attribution wrong: pass=%d pos=%d, want %d/0", r.fault.Pass, r.fault.Pos, seq[0])
	}
	if !r.fault.Injected() {
		t.Fatalf("fault should identify as injected: %q", r.fault.Err)
	}
	if r.fault.Stack == "" || !strings.Contains(r.fault.Stack, "goroutine") {
		t.Fatalf("panic fault should carry a stack, got %q", r.fault.Stack)
	}
	faults.Disable()

	// Quarantined: the sequence is never re-run (injection is off, so a
	// re-run would succeed), and each query re-charges sample + fault.
	r2 := p.compile(seq)
	if r2.ok || r2.fault != r.fault {
		t.Fatalf("quarantine must return the remembered fault, got ok=%v fault=%v", r2.ok, r2.fault)
	}
	if f, q := p.IsQuarantined(seq); !q || f != r.fault {
		t.Fatalf("IsQuarantined disagrees: %v %v", f, q)
	}
	if d := p.ctr[cSamples].Load() - s0.samples; d != 2 {
		t.Fatalf("samples delta %d, want 2 (one per query)", d)
	}
	if d := p.ctr[cFaults].Load() - s0.faults; d != 2 {
		t.Fatalf("faults delta %d, want 2", d)
	}
	if d := p.ctr[cCompiles].Load() - s0.compiles; d != 0 {
		t.Fatalf("a pass panic precedes profiling, compiles delta %d, want 0", d)
	}
	checkInvariant(t, p, s0)

	// Healthy sequences are unaffected.
	if _, _, ok := p.Compile([]int{38}); !ok {
		t.Fatal("healthy sequence failed after an unrelated quarantine entry")
	}
}

// TestFaultMergeRecharge is the singleflight regression test: when G
// concurrent queries for the same faulting sequence race, every one of them
// must be charged one sample and one fault — whether it owned the compile,
// merged onto the inflight entry, or arrived after quarantine — so the
// totals are identical to G sequential queries.
func TestFaultMergeRecharge(t *testing.T) {
	p := mustProgram(t, "sha")
	s0 := snap(p)
	enableFaults(t, "pass-panic:1")

	const G = 8
	seq := []int{3, 4, 5}
	var start sync.WaitGroup
	var done sync.WaitGroup
	start.Add(1)
	for i := 0; i < G; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			r := p.compile(seq)
			if r.ok || r.fault == nil {
				t.Errorf("want fault, got ok=%v", r.ok)
			}
		}()
	}
	start.Done()
	done.Wait()

	if d := p.ctr[cSamples].Load() - s0.samples; d != G {
		t.Fatalf("samples delta %d, want %d (one per query at any interleaving)", d, G)
	}
	if d := p.ctr[cFaults].Load() - s0.faults; d != G {
		t.Fatalf("faults delta %d, want %d", d, G)
	}
	if d := p.ctr[cSuccesses].Load() - s0.successes; d != 0 {
		t.Fatalf("successes delta %d, want 0", d)
	}
	if d := p.ctr[cCacheHits].Load() - s0.hits; d != 0 {
		t.Fatalf("faults must never be cached as valid entries, cache hits delta %d", d)
	}
	if n := p.QuarantineCount(); n != 1 {
		t.Fatalf("quarantine entries %d, want 1", n)
	}
	checkInvariant(t, p, s0)
}

func TestEvalBatchReportsFaults(t *testing.T) {
	p := mustProgram(t, "matmul")
	ev := NewEvaluator(p, 4)
	rs := ev.EvalBatch([][]int{{38}, {passes.NumPasses + 1}, nil})
	if !rs[0].Ok || rs[0].Fault != nil {
		t.Fatalf("healthy seq: ok=%v fault=%v", rs[0].Ok, rs[0].Fault)
	}
	if rs[1].Ok || rs[1].Fault == nil || rs[1].Fault.Kind != FaultBadSeq {
		t.Fatalf("bad seq: ok=%v fault=%v", rs[1].Ok, rs[1].Fault)
	}
	if got := rs[1].Seq; len(got) != 1 {
		t.Fatalf("faulted result must keep its sequence, got %v", got)
	}
	if !rs[2].Ok {
		t.Fatal("empty sequence should compile")
	}
}

func TestStatsStringFaultsConditional(t *testing.T) {
	clean := EvalStats{Samples: 10, Compiles: 10}
	if s := clean.String(); strings.Contains(s, "faults=") {
		t.Fatalf("clean stats must not mention faults: %q", s)
	}
	dirty := EvalStats{Samples: 10, Faults: 2, Quarantined: 1, Retries: 1}
	s := dirty.String()
	if !strings.Contains(s, "faults=2") || !strings.Contains(s, "quarantined=1") || !strings.Contains(s, "retries=1") {
		t.Fatalf("faulty stats should surface containment counters: %q", s)
	}
}

// TestBudgetRunReplacesPanickedHelper checks run's containment at every
// width: a panicking index does not stop the batch, and a helper killed by
// one is replaced, so every other index still runs.
func TestBudgetRunReplacesPanickedHelper(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		const n = 100
		seen := make([]bool, n)
		panics := 0
		NewBudget(workers).run(n, func(i int) {
			mu.Lock()
			defer mu.Unlock()
			if i%10 == 3 {
				panics++
				panic("boom")
			}
			seen[i] = true
		})
		if panics != n/10 {
			t.Fatalf("workers=%d: %d panics, want %d", workers, panics, n/10)
		}
		for i, ok := range seen {
			if i%10 == 3 {
				continue
			}
			if !ok {
				t.Fatalf("workers=%d: index %d never ran — a panicked helper was not replaced", workers, i)
			}
		}
	}
}

func TestEnvStepDegradesOnFault(t *testing.T) {
	p := mustProgram(t, "matmul")
	cfg := DefaultEnv()
	cfg.Obs = ObsHistogram
	cfg.EpisodeLen = 5
	env := NewPhaseEnv(p, cfg)
	env.Reset()

	enableFaults(t, "pass-panic:1")
	var rewards []float64
	steps := 0
	for {
		_, r, done := env.Step([]int{0})
		rewards = append(rewards, r)
		steps++
		if done {
			break
		}
		if steps > 2*cfg.EpisodeLen {
			t.Fatal("episode never terminated under sustained faults")
		}
	}
	if steps != cfg.EpisodeLen {
		t.Fatalf("episode length %d, want %d (faulted steps still count)", steps, cfg.EpisodeLen)
	}
	for i, r := range rewards {
		if r != -1 {
			t.Fatalf("step %d: reward %v, want -1 penalty per faulted step", i, r)
		}
	}
	if got := env.Sequence(); len(got) != 0 {
		t.Fatalf("faulting passes must be rolled back from the sequence, got %v", got)
	}
}
