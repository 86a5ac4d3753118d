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

// Evaluator is the concurrent batch-evaluation engine: a fixed-size worker
// pool scoring candidate pass sequences against one Program through its
// sharded compile cache. Results come back in submission order, so callers
// that generate candidates deterministically get bit-identical outcomes at
// Workers=1 and Workers=N; the only nondeterminism under concurrency is
// *which* duplicate compile wins the singleflight race, and that is
// invisible in the results.
type Evaluator struct {
	p       *Program
	workers int
	batches atomic.Int64
	wallNS  atomic.Int64
}

// NewEvaluator wraps p with a worker pool of the given width (minimum 1).
func NewEvaluator(p *Program, workers int) *Evaluator {
	if workers < 1 {
		workers = 1
	}
	return &Evaluator{p: p, workers: workers}
}

// Program returns the underlying program.
func (e *Evaluator) Program() *Program { return e.p }

// Workers returns the pool width.
func (e *Evaluator) Workers() int { return e.workers }

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
// Work is spread over min(Workers, len(seqs)) goroutines pulling from a
// shared index, so a slow compile never stalls the rest of the batch.
// Compiles are contained (a faulting sequence yields Ok=false, not a dead
// process); should a panic still escape the containment boundaries, the
// worker is replaced rather than leaked and the batch completes, with the
// interrupted index reported as Ok=false.
func (e *Evaluator) EvalBatch(seqs [][]int) []EvalResult {
	//contractvet:allow nondeterminism -- BatchWall is observability only; results and accounting are wall-clock independent
	start := time.Now()
	out := make([]EvalResult, len(seqs))
	for i := range out {
		out[i].Seq = seqs[i]
	}
	runIndexed(len(seqs), e.workers, func(i int) {
		r := e.p.compile(seqs[i])
		out[i] = EvalResult{Seq: seqs[i], Cycles: r.cycles, Area: r.area,
			Feats: r.feats, Ok: r.ok, Fault: r.fault}
	}, func(int, any) {})
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
		Batch: e.workers,
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
	StaticHits int64 // profiles answered by the SCEV static estimator
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
	numCounters // Program.ctr holds the counters above; snapshot reads the rest elsewhere
)

const (
	cStaticHits = numCounters + iota
	cVMHits
	cInterpHits
	cDiskHits
	cQuarantined
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
	eng := p.profiler.Stats()
	v[cStaticHits], v[cVMHits] = eng.StaticHits, eng.VMHits
	v[cInterpHits], v[cDiskHits] = eng.InterpHits, eng.DiskHits
	v[cQuarantined], v[cBatches], v[cBatchWall] = int64(p.QuarantineCount()), batches, wallNS
	var s EvalStats
	for _, c := range evalCounters {
		*c.field(&s) = v[c.src]
	}
	return s
}

// runIndexed runs fn(i) for every i in [0,n) across min(workers, n)
// goroutines pulling indices from a shared counter. fn must only write
// state owned by its own index. workers<=1 degenerates to a plain
// sequential loop with no goroutines at all.
//
// onPanic, when non-nil, turns escaped panics into worker restarts: the
// dying worker reports (index, recovered value) and a replacement goroutine
// is spawned so pool width — and the WaitGroup ledger — never shrinks. The
// panicked index is skipped (fn observed it once); with onPanic nil a panic
// propagates as before. In the sequential degenerate case onPanic is
// honored too, so Workers=1 and Workers=N agree on containment semantics.
func runIndexed(n, workers int, fn func(i int), onPanic func(i int, v any)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			runOne(i, fn, onPanic)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var body func()
	body = func() {
		i := -1
		defer func() {
			if v := recover(); v != nil {
				if onPanic == nil {
					panic(v)
				}
				onPanic(i, v)
				go body() // replace the dead worker; wg balance unchanged
				return
			}
			wg.Done()
		}()
		for {
			i = int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go body()
	}
	wg.Wait()
}

// runOne is the sequential arm of runIndexed: one fn(i) call with the same
// panic containment the pool workers get.
func runOne(i int, fn func(i int), onPanic func(i int, v any)) {
	defer func() {
		if v := recover(); v != nil {
			if onPanic == nil {
				panic(v)
			}
			onPanic(i, v)
		}
	}()
	fn(i)
}
