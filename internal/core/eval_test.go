package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autophase/internal/passes"
)

// randSeqs draws n random pass sequences of length l.
func randSeqs(rng *rand.Rand, n, l int) [][]int {
	seqs := make([][]int, n)
	for i := range seqs {
		s := make([]int, l)
		for j := range s {
			s[j] = rng.Intn(passes.NumActions)
		}
		seqs[i] = s
	}
	return seqs
}

func TestEvalBatchMatchesSequential(t *testing.T) {
	seqs := randSeqs(rand.New(rand.NewSource(7)), 40, 6)

	ref := mustProgram(t, "matmul")
	type want struct {
		cycles int64
		feats  []int64
		ok     bool
	}
	wants := make([]want, len(seqs))
	for i, s := range seqs {
		c, f, ok := ref.Compile(s)
		wants[i] = want{c, f, ok}
	}

	p := mustProgram(t, "matmul")
	got := NewEvaluator(p, 8).EvalBatch(seqs)
	if len(got) != len(seqs) {
		t.Fatalf("got %d results for %d seqs", len(got), len(seqs))
	}
	for i, r := range got {
		if r.Cycles != wants[i].cycles || r.Ok != wants[i].ok || !reflect.DeepEqual(r.Feats, wants[i].feats) {
			t.Fatalf("seq %d: batch (%d,%v) != sequential (%d,%v)",
				i, r.Cycles, r.Ok, wants[i].cycles, wants[i].ok)
		}
	}
	if p.Samples() != ref.Samples() {
		t.Fatalf("sample accounting diverged: batch %d, sequential %d", p.Samples(), ref.Samples())
	}
}

func TestEvalStatsAccounting(t *testing.T) {
	p := mustProgram(t, "gsm")
	distinct := randSeqs(rand.New(rand.NewSource(3)), 12, 5)
	var seqs [][]int
	for round := 0; round < 3; round++ {
		seqs = append(seqs, distinct...)
	}
	ev := NewEvaluator(p, 6)
	out := ev.EvalBatch(seqs)
	st := ev.Stats()

	// Every duplicate must be answered from the cache or folded by
	// singleflight, never recompiled. Failed profiles are not cached and may
	// recompile, so only count successful distinct sequences as the ceiling
	// basis; fingerprint sharing can push physical compiles below that —
	// Compiles + FPHits together account for every successful first
	// evaluation.
	okDistinct := 0
	for i := range distinct {
		if out[i].Ok {
			okDistinct++
		}
	}
	if okDistinct == 0 {
		t.Fatal("want at least one successful compile in the batch")
	}
	maxCompiles := int64(len(seqs) - 2*okDistinct)
	if st.Compiles < 1 || st.Compiles > maxCompiles {
		t.Fatalf("compiles=%d want within [1,%d] for %d seqs (%d distinct ok)",
			st.Compiles, maxCompiles, len(seqs), okDistinct)
	}
	if st.Compiles+st.FPHits < int64(okDistinct) {
		t.Fatalf("compiles=%d fp-hits=%d don't cover %d distinct ok seqs",
			st.Compiles, st.FPHits, okDistinct)
	}
	if st.CacheHits+st.Merges+st.Compiles+st.FPHits < int64(len(seqs)) {
		t.Fatalf("hits=%d merges=%d compiles=%d fp-hits=%d don't cover %d queries",
			st.CacheHits, st.Merges, st.Compiles, st.FPHits, len(seqs))
	}
	if st.FPMismatches != 0 {
		t.Fatalf("fp mismatches: %d", st.FPMismatches)
	}
	if st.Batches != 1 || st.BatchWall <= 0 {
		t.Fatalf("batches=%d wall=%s, want 1 batch with positive wall", st.Batches, st.BatchWall)
	}

	// Duplicates must agree with their first occurrence bit-for-bit.
	for i, r := range out {
		first := out[i%len(distinct)]
		if r.Cycles != first.Cycles || r.Ok != first.Ok {
			t.Fatalf("duplicate %d: (%d,%v) != first (%d,%v)", i, r.Cycles, r.Ok, first.Cycles, first.Ok)
		}
	}
	if s := st.String(); s == "" {
		t.Fatal("empty stats string")
	}
}

func TestCollectTuplesWorkerInvariant(t *testing.T) {
	run := func(workers int) ([]Tuple, int) {
		p1 := mustProgram(t, "matmul")
		p2 := mustProgram(t, "qsort")
		rng := rand.New(rand.NewSource(11))
		tuples := CollectTuplesParallel([]*Program{p1, p2}, 6, 8, rng, workers)
		return tuples, p1.Samples() + p2.Samples()
	}
	t1, s1 := run(1)
	t8, s8 := run(8)
	if len(t1) == 0 {
		t.Fatal("no tuples collected")
	}
	if !reflect.DeepEqual(t1, t8) {
		t.Fatalf("tuple sets differ between workers=1 (%d tuples) and workers=8 (%d tuples)",
			len(t1), len(t8))
	}
	if s1 != s8 {
		t.Fatalf("sample counts differ: workers=1 %d, workers=8 %d", s1, s8)
	}
}

// TestProgramParallelStress hammers one Program from 32 goroutines with
// overlapping prefixes of a shared base sequence plus private extensions —
// the access pattern of a population algorithm on the sequence table. Each
// goroutine also reads the feature vector of its sequences, racing the
// compiles that publish them into the shared fingerprint records, while
// readers poll the quarantine API over a few restored records. The body
// runs twice: with the default residency cap, and with a cap of 8 so that
// evictions race with prefix lookups. Run under -race in CI; the
// correctness checks are that every goroutine observes identical cycle
// counts for identical sequences, that every vector equals the one a
// fresh, sequential Program with the same quarantine returns, that the
// restored sequences stay quarantined, and that the sample accounting
// invariant holds.
func TestProgramParallelStress(t *testing.T) {
	t.Run("cap=default", parallelStress)
	t.Run("cap=8", func(t *testing.T) {
		oldCap := irCacheCap
		irCacheCap = 8
		defer func() { irCacheCap = oldCap }()
		parallelStress(t)
	})
}

func parallelStress(t *testing.T) {
	p := mustProgram(t, "matmul")
	base := []int{38, 31, 30, 12, 3, 5, 20, 7}
	quarantined := [][]int{base[:3], base[:6], append(base[:2:2], 9)}
	var recs []*EvalFault
	for i, seq := range quarantined {
		recs = append(recs, &EvalFault{Kind: []FaultKind{FaultPanic, FaultDeadline}[i%2],
			Stage: "pass", Pass: -1, Pos: -1, Program: p.Name, Seq: seq, Err: "restored"})
	}
	p.RestoreQuarantine(recs)
	const goroutines = 32

	type vecs struct {
		seq   []int
		feats []int64
	}
	results := make([]map[string]int64, goroutines)
	observed := make([][]vecs, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			got := make(map[string]int64)
			for iter := 0; iter < 20; iter++ {
				// Shared prefix (heavy singleflight/cache contention)...
				seq := append([]int(nil), base[:rng.Intn(len(base)+1)]...)
				// ...plus an occasionally-private suffix.
				if rng.Intn(2) == 0 {
					seq = append(seq, rng.Intn(passes.NumActions))
				}
				c, _, ok := p.Compile(seq)
				if ok {
					got[fmt.Sprint(seq)] = c
				}
				observed[g] = append(observed[g], vecs{seq, p.FeaturesAfter(seq)})
			}
			results[g] = got
		}()
	}
	stop := make(chan struct{})
	readerErr := make([]error, 4)
	var readers sync.WaitGroup
	for r := range readerErr {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				seq := quarantined[i%len(quarantined)]
				if _, q := p.IsQuarantined(seq); !q {
					readerErr[r] = fmt.Errorf("restored sequence %v not quarantined", seq)
					return
				}
				if n := p.QuarantineCount(); n != len(quarantined) {
					readerErr[r] = fmt.Errorf("QuarantineCount %d, want %d", n, len(quarantined))
					return
				}
				if recs := p.QuarantineRecords(); len(recs) != len(quarantined) {
					readerErr[r] = fmt.Errorf("QuarantineRecords returned %d records, want %d", len(recs), len(quarantined))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for _, err := range readerErr {
		if err != nil {
			t.Fatal(err)
		}
	}

	merged := make(map[string]int64)
	for g, got := range results {
		for k, c := range got {
			if prev, seen := merged[k]; seen && prev != c {
				t.Fatalf("goroutine %d saw %d cycles for %s, another saw %d", g, c, k, prev)
			}
			merged[k] = c
		}
	}
	if len(merged) == 0 {
		t.Fatal("no successful compiles under stress")
	}
	for _, seq := range quarantined {
		if c, ok := merged[fmt.Sprint(seq)]; ok {
			t.Fatalf("quarantined sequence %v compiled to %d cycles", seq, c)
		}
	}
	if st := p.EvalStats(); st.Samples != st.Successes+st.Faults+st.Flagged {
		t.Fatalf("samples=%d != successes=%d + faults=%d + flagged=%d",
			st.Samples, st.Successes, st.Faults, st.Flagged)
	}

	fresh := mustProgram(t, "matmul")
	fresh.RestoreQuarantine(recs)
	for g, obs := range observed {
		for _, o := range obs {
			if !reflect.DeepEqual(o.feats, fresh.FeaturesAfter(o.seq)) {
				t.Fatalf("goroutine %d: features of %v differ from a sequential Program's", g, o.seq)
			}
		}
	}
}

// TestSharedBudgetMatchesOneWorker: evaluators on one shared budget, each
// scoring its own Program while the others run, return exactly the
// EvalResults a one-worker evaluator does.
func TestSharedBudgetMatchesOneWorker(t *testing.T) {
	names := []string{"matmul", "qsort", "gsm"}
	seqs := randSeqs(rand.New(rand.NewSource(23)), 24, 6)
	want := make([][]EvalResult, len(names))
	for k, name := range names {
		want[k] = NewEvaluator(mustProgram(t, name), 1).EvalBatch(seqs)
	}
	budget := NewBudget(3)
	got := make([][]EvalResult, len(names))
	var wg sync.WaitGroup
	for k, name := range names {
		ev := budget.Evaluator(mustProgram(t, name))
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got[k] = ev.EvalBatch(seqs)
		}(k)
	}
	wg.Wait()
	for k, name := range names {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("%s: results on a shared budget differ from NewEvaluator(p, 1)", name)
		}
	}
	if n := budget.busy.Load(); n != 0 {
		t.Fatalf("budget holds %d slots after every batch returned", n)
	}
}

// callCounter counts concurrent calls of a test fn and keeps the peak.
type callCounter struct {
	cur, peak atomic.Int64
}

func (c *callCounter) enter() int64 {
	n := c.cur.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	return n
}

func (c *callCounter) leave() { c.cur.Add(-1) }

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestBudgetBoundsInflight: runners sharing an N-slot budget never have
// more than runners+N-1 calls in flight, because helpers only start while a
// slot is free and the runners hold at least one; a lone runner therefore
// never exceeds N. (TestBudgetHelperYields checks that the count falls back
// to max(N, runners) at the helpers' next boundary.)
func TestBudgetBoundsInflight(t *testing.T) {
	for _, slots := range []int{2, 3} {
		for runners := 1; runners <= 4; runners++ {
			b := NewBudget(slots)
			var c callCounter
			var wg sync.WaitGroup
			for r := 0; r < runners; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for batch := 0; batch < 20; batch++ {
						b.run(8, func(int) {
							c.enter()
							time.Sleep(20 * time.Microsecond)
							c.leave()
						})
					}
				}()
			}
			wg.Wait()
			if peak, max := c.peak.Load(), int64(runners+slots-1); peak > max {
				t.Errorf("slots=%d runners=%d: %d calls in flight, want at most %d", slots, runners, peak, max)
			}
			if n := b.busy.Load(); n != 0 {
				t.Errorf("slots=%d runners=%d: %d slots still held", slots, runners, n)
			}
		}
	}
}

// TestBudgetLoneRunnerReachesSlots: a runner alone on an N-slot budget gets
// N calls going at once.
func TestBudgetLoneRunnerReachesSlots(t *testing.T) {
	const slots = 3
	b := NewBudget(slots)
	var c callCounter
	full := make(chan struct{})
	var once sync.Once
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	b.run(30, func(int) {
		if c.enter() == slots {
			once.Do(func() { close(full) })
		}
		select {
		case <-full:
		case <-ctx.Done():
		}
		c.leave()
	})
	if peak := c.peak.Load(); peak != slots {
		t.Fatalf("a lone runner on %d slots peaked at %d calls in flight", slots, peak)
	}
}

// TestBudgetHelperYields: a runner alone on a two-slot budget has one
// helper; when a second runner joins, the helper gives its slot back at its
// next boundary, and while both runners stay the first runs one call at a
// time and the two have at most max(slots, runners) = 2 in flight.
func TestBudgetHelperYields(t *testing.T) {
	b := NewBudget(2)
	var a, all callCounter
	gateA, gateB := make(chan struct{}), make(chan struct{})
	var settled atomic.Bool
	var checked, violations atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.run(400, func(int) {
			n := a.enter()
			m := all.enter()
			if settled.Load() {
				checked.Add(1)
				if n > 1 || m > 2 {
					violations.Add(1)
				}
			}
			<-gateA
			time.Sleep(20 * time.Microsecond)
			all.leave()
			a.leave()
		})
	}()
	waitFor(t, "the first runner's helper", func() bool { return a.cur.Load() == 2 })

	doneB := make(chan struct{})
	go func() {
		defer close(doneB)
		b.run(4, func(int) {
			m := all.enter()
			if settled.Load() && m > 2 {
				violations.Add(1)
			}
			<-gateB
			all.leave()
		})
	}()
	waitFor(t, "the second runner to join", func() bool { return b.busy.Load() == 3 })
	close(gateA)
	waitFor(t, "the helper to yield", func() bool { return b.busy.Load() == 2 })
	settled.Store(true)
	waitFor(t, "the first runner to go on alone", func() bool { return checked.Load() >= 50 })
	// Once the second runner leaves, the first may take a helper again.
	settled.Store(false)
	close(gateB)
	<-done
	<-doneB
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d calls started over max(slots, runners) after the helper yielded", v)
	}
	if n := b.busy.Load(); n != 0 {
		t.Fatalf("%d slots still held", n)
	}
}

// TestEvalBatchInlineAllocs: at width 1 a batch runs inline, so beyond the
// compiles themselves it allocates only its result slice and the closure
// that fills it.
func TestEvalBatchInlineAllocs(t *testing.T) {
	p := mustProgram(t, "matmul")
	seqs := randSeqs(rand.New(rand.NewSource(5)), 16, 6)
	ev := NewEvaluator(p, 1)
	ev.EvalBatch(seqs)
	compiles := testing.AllocsPerRun(50, func() {
		for _, s := range seqs {
			p.compile(s)
		}
	})
	batch := testing.AllocsPerRun(50, func() { ev.EvalBatch(seqs) })
	if batch > compiles+2 {
		t.Fatalf("a warm width-1 batch allocates %v objects, its compiles %v: want at most 2 more", batch, compiles)
	}
}
