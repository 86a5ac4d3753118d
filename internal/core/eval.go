package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autophase/internal/passes"
	"autophase/internal/search"
)

// Evaluator is the concurrent batch-evaluation engine: it scores candidate
// pass sequences against one Program through its memoized compile cache,
// on the calling goroutine plus the helpers its compile Budget allows.
// Results come back in submission order, so callers that generate
// candidates deterministically get bit-identical outcomes at any width;
// the only nondeterminism under concurrency is *which* duplicate compile
// wins the singleflight race, and that is invisible in the results.
type Evaluator struct {
	p       *Program
	budget  *Budget
	batches atomic.Int64
	wallNS  atomic.Int64
}

// NewEvaluator wraps p with a private budget of the given width (minimum
// 1). A width of 1 evaluates every batch inline on the caller.
func NewEvaluator(p *Program, workers int) *Evaluator { return NewBudget(workers).Evaluator(p) }

// Program returns the underlying program.
func (e *Evaluator) Program() *Program { return e.p }

// Workers returns the width of the evaluator's budget.
func (e *Evaluator) Workers() int { return int(e.budget.slots) }

// EvalResult is one scored sequence. A compile that faulted reports
// Ok=false with the contained fault attached.
type EvalResult struct {
	Seq    []int
	Cycles int64
	Area   int64
	Feats  []int64
	Ok     bool
	Fault  *EvalFault
}

// EvalBatch scores every sequence and returns results in submission order.
// The caller and its budget's helpers pull sequences from a shared index,
// so a slow compile never stalls the rest of the batch. Compiles are
// contained (a faulting sequence yields Ok=false, not a dead process);
// should a panic still escape the containment boundaries, the batch
// completes with the interrupted index reported as Ok=false.
func (e *Evaluator) EvalBatch(seqs [][]int) []EvalResult {
	//contractvet:allow nondeterminism -- BatchWall is observability only; results and accounting are wall-clock independent
	start := time.Now()
	out := make([]EvalResult, len(seqs))
	for i := range out {
		out[i].Seq = seqs[i]
	}
	e.budget.run(len(seqs), func(i int) {
		r := e.p.compile(seqs[i])
		out[i] = EvalResult{Seq: seqs[i], Cycles: r.cycles, Area: r.area,
			Feats: r.feats, Ok: r.ok, Fault: r.fault}
	})
	e.batches.Add(1)
	//contractvet:allow nondeterminism -- observability only, as above
	e.wallNS.Add(time.Since(start).Nanoseconds())
	return out
}

// Objective adapts the Evaluator to the search package's batch interface:
// candidates are scored EvalBatch-wide, and Batch tells sequential
// algorithms (OpenTuner's bandit rounds) how many proposals to score per
// round. n is the candidate sequence length.
func (e *Evaluator) Objective(n int) *search.Objective {
	return &search.Objective{
		K:     passes.NumActions,
		N:     n,
		Batch: e.Workers(),
		EvalBatch: func(seqs [][]int) []search.EvalOutcome {
			rs := e.EvalBatch(seqs)
			outs := make([]search.EvalOutcome, len(rs))
			for i, r := range rs {
				outs[i] = search.EvalOutcome{Val: r.Cycles, Ok: r.Ok}
			}
			return outs
		},
	}
}

// EvalStats is a snapshot of one Program's counters plus an Evaluator's
// batch accounting. All fields are monotone over a Program's lifetime
// except the per-run ones ResetSamples zeroes. evalCounters declares every
// field.
type EvalStats struct {
	Samples    int64 // logical profiler samples (the paper's accounting unit)
	Compiles   int64 // physical compile+profile executions
	CacheHits  int64 // memoized answers from the sequence index
	Merges     int64 // concurrent duplicate compiles folded by singleflight
	StaticHits int64 // cross-checked profiles the SCEV static estimator agreed on (sanitizer only)
	VMHits     int64 // profiles answered by the bytecode VM
	InterpHits int64 // profiles answered by the tree-walking interpreter
	FPHits     int64 // new sequences whose IR fingerprint matched an existing profile
	NoopIR     int64 // pass suffixes that changed nothing (base module reused, no re-hash)
	DiskHits   int64 // profiles answered from the artifact store with no engine run
	// FPMismatches counts sanitizer-mode recomputes that disagreed with the
	// fingerprint store; nonzero means fingerprint sharing aliased distinct
	// results and must be treated as a miscompilation signal.
	FPMismatches int64
	Batches      int64 // EvalBatch invocations
	BatchWall    time.Duration
	// Fault-containment accounting. The invariant
	//   Samples == Successes + Faults + Flagged
	// holds at every quiescent point regardless of worker count.
	Successes   int64 // samples that produced a usable profile
	Faults      int64 // samples answered by a contained fault (incl. quarantine hits)
	Flagged     int64 // samples rejected by the pass sanitizer
	Retries     int64 // bounded deadline-class retries attempted
	Quarantined int64 // sequences currently held in the quarantine tier
}

// counter names the source of one EvalStats field.
type counter int

const (
	cSamples counter = iota
	cSuccesses
	cFaults
	cFlagged
	cRetries
	cCompiles
	cCacheHits
	cMerges
	cFPHits
	cNoopIR
	cFPMismatches
	cStaticHits
	cVMHits
	cInterpHits
	cDiskHits
	numCounters // Program.ctr holds the counters above; snapshot reads the rest elsewhere
)

const (
	cQuarantined = numCounters + iota
	cBatches
	cBatchWall
	numSources
)

// showRule says when String prints a counter.
type showRule int

const (
	always     showRule = iota // on every line
	never                      // snapshot and Add only
	ifMismatch                 // the groups below print when any member is nonzero
	ifDisk
	ifFaults
	ifBatches
	numShowRules
)

// evalCounters declares every EvalStats field once: its one-line key, the
// field, its source, whether ResetSamples zeroes it, and when String prints
// it. It drives the snapshot, Add, ResetSamples and String, and its order
// is the one-line order.
var evalCounters = [...]struct {
	key   string
	field func(*EvalStats) *int64
	src   counter
	reset bool
	show  showRule
}{
	{"samples", func(s *EvalStats) *int64 { return &s.Samples }, cSamples, true, always},
	{"compiles", func(s *EvalStats) *int64 { return &s.Compiles }, cCompiles, false, always},
	{"fp-hits", func(s *EvalStats) *int64 { return &s.FPHits }, cFPHits, false, always},
	{"noop-ir", func(s *EvalStats) *int64 { return &s.NoopIR }, cNoopIR, false, always},
	{"cache-hits", func(s *EvalStats) *int64 { return &s.CacheHits }, cCacheHits, false, always},
	{"merges", func(s *EvalStats) *int64 { return &s.Merges }, cMerges, false, always},
	{"static", func(s *EvalStats) *int64 { return &s.StaticHits }, cStaticHits, false, always},
	{"vm", func(s *EvalStats) *int64 { return &s.VMHits }, cVMHits, false, always},
	{"interp", func(s *EvalStats) *int64 { return &s.InterpHits }, cInterpHits, false, always},
	{"FP-MISMATCHES", func(s *EvalStats) *int64 { return &s.FPMismatches }, cFPMismatches, false, ifMismatch},
	{"disk-hits", func(s *EvalStats) *int64 { return &s.DiskHits }, cDiskHits, false, ifDisk},
	{"faults", func(s *EvalStats) *int64 { return &s.Faults }, cFaults, true, ifFaults},
	{"quarantined", func(s *EvalStats) *int64 { return &s.Quarantined }, cQuarantined, false, ifFaults},
	{"retries", func(s *EvalStats) *int64 { return &s.Retries }, cRetries, true, ifFaults},
	{"batches", func(s *EvalStats) *int64 { return &s.Batches }, cBatches, false, ifBatches},
	{"batch-wall", func(s *EvalStats) *int64 { return (*int64)(&s.BatchWall) }, cBatchWall, false, ifBatches},
	{"successes", func(s *EvalStats) *int64 { return &s.Successes }, cSuccesses, true, never},
	{"flagged", func(s *EvalStats) *int64 { return &s.Flagged }, cFlagged, true, never},
}

// Add accumulates o into s (the serve layer folds per-job stats into
// per-tenant ones).
func (s *EvalStats) Add(o EvalStats) {
	for _, c := range evalCounters {
		*c.field(s) += *c.field(&o)
	}
}

// String renders the one-line form the CLI prints.
func (s EvalStats) String() string {
	var live [numShowRules]bool
	for _, c := range evalCounters {
		live[c.show] = live[c.show] || *c.field(&s) != 0
	}
	var b strings.Builder
	for _, c := range evalCounters {
		if c.show == never || (c.show != always && !live[c.show]) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if v := *c.field(&s); c.src == cBatchWall {
			fmt.Fprintf(&b, "%s=%s", c.key, time.Duration(v).Round(time.Millisecond))
		} else {
			fmt.Fprintf(&b, "%s=%d", c.key, v)
		}
	}
	return b.String()
}

// EvalStats snapshots the program-level counters (the batch accounting
// lives on an Evaluator and reads zero here).
func (p *Program) EvalStats() EvalStats { return p.snapshot(0, 0) }

// Stats snapshots the program-level counters plus this Evaluator's batch
// accounting.
func (e *Evaluator) Stats() EvalStats { return e.p.snapshot(e.batches.Load(), e.wallNS.Load()) }

func (p *Program) snapshot(batches, wallNS int64) EvalStats {
	var v [numSources]int64
	for c := range p.ctr {
		v[c] = p.ctr[c].Load()
	}
	v[cQuarantined], v[cBatches], v[cBatchWall] = int64(p.QuarantineCount()), batches, wallNS
	var s EvalStats
	for _, c := range evalCounters {
		*c.field(&s) = v[c.src]
	}
	return s
}

// Budget bounds the compiles that the Evaluators sharing it run at once.
// The goroutine that calls EvalBatch (the runner) always compiles, and it
// counts against the budget even past the bound, so a runner never waits
// for a slot. While its batch has unclaimed sequences and a slot is free,
// the runner starts helpers. Before taking each further sequence a helper
// gives its slot back and exits if runners have pushed the count over the
// bound, so a runner that arrives later gets its core back at the helpers'
// next compile boundary; until then the helpers finish the compiles they
// are in, which is the only time the count exceeds max(slots, runners).
type Budget struct {
	slots int64
	busy  atomic.Int64 // runners inside a batch plus live helpers
}

// NewBudget returns a budget of n compile slots (minimum 1). Any number of
// Evaluators, over any Programs, may share it.
func NewBudget(n int) *Budget {
	if n < 1 {
		n = 1
	}
	return &Budget{slots: int64(n)}
}

// Evaluator returns an Evaluator for p whose batches draw helpers from b.
func (b *Budget) Evaluator(p *Program) *Evaluator { return &Evaluator{p: p, budget: b} }

// acquire takes a free slot for a new helper, or reports that none is free.
func (b *Budget) acquire() bool {
	for {
		c := b.busy.Load()
		if c >= b.slots {
			return false
		}
		if b.busy.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

// yield gives a helper's slot back when runners have pushed the count over
// the bound, and reports whether it did.
func (b *Budget) yield() bool {
	for {
		c := b.busy.Load()
		if c <= b.slots {
			return false
		}
		if b.busy.CompareAndSwap(c, c-1) {
			return true
		}
	}
}

// run calls fn(i) for every i in [0,n) on the calling goroutine plus the
// helpers the budget allows. fn must only write state owned by its own
// index. A one-slot budget runs the batch inline, with no goroutine. A
// panic in fn(i) is contained: index i is left as fn left it, and the rest
// of the batch still runs, at any width.
func (b *Budget) run(n int, fn func(i int)) {
	if b.slots <= 1 {
		for i := 0; i < n; i++ {
			runOne(i, fn)
		}
		return
	}
	b.busy.Add(1)
	t := &batch{b: b, n: int64(n), fn: fn}
	for i := t.claim(); i >= 0; i = t.claim() {
		t.spawn()
		runOne(i, fn)
	}
	// The runner's own work is done: free its slot for other batches while
	// its helpers finish theirs.
	b.busy.Add(-1)
	t.wg.Wait()
}

// batch is one run call's shared state.
type batch struct {
	b       *Budget
	n       int64
	fn      func(i int)
	next    atomic.Int64 // next unclaimed index
	helpers atomic.Int64 // live helpers
	wg      sync.WaitGroup
}

// claim returns the next unclaimed index, or -1 when none is left.
func (t *batch) claim() int {
	if i := t.next.Add(1) - 1; i < t.n {
		return int(i)
	}
	return -1
}

// spawn starts helpers while more indices are unclaimed than the live
// helpers will take and the budget has a free slot.
func (t *batch) spawn() {
	for t.next.Load()+t.helpers.Load() < t.n && t.b.acquire() {
		t.helpers.Add(1)
		t.wg.Add(1)
		go t.help()
	}
}

// help is one helper: it claims and runs indices until none is left or the
// budget wants its slot back. A panic that escapes fn replaces the dead
// helper with a new one that inherits its slot and its wait-group count, so
// the batch completes; the panicked index is left as fn left it.
func (t *batch) help() {
	defer func() {
		if recover() != nil {
			go t.help()
			return
		}
		t.helpers.Add(-1)
		t.wg.Done()
	}()
	for !t.b.yield() {
		i := t.claim()
		if i < 0 {
			t.b.busy.Add(-1)
			return
		}
		t.fn(i)
	}
}

// runOne is the runner's arm of run: one fn(i) call with the same panic
// containment the helpers get.
func runOne(i int, fn func(i int)) {
	defer func() { _ = recover() }()
	fn(i)
}
