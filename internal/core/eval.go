package core

import (
	"fmt"
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
	p        *Program
	workers  int
	batches  atomic.Int64
	wallNS   atomic.Int64
	restarts atomic.Int64 // workers replaced after an escaped panic
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
	}, func(i int, v any) {
		e.restarts.Add(1)
	})
	e.batches.Add(1)
	//contractvet:allow nondeterminism -- observability only, as above
	e.wallNS.Add(time.Since(start).Nanoseconds())
	return out
}

// WorkerRestarts reports how many pool workers were replaced after an
// escaped panic.
func (e *Evaluator) WorkerRestarts() int64 { return e.restarts.Load() }

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

// EvalStats is a snapshot of the evaluation engine's counters. All fields
// are monotone over a Program's lifetime except Samples, which ResetSamples
// zeroes between runs.
type EvalStats struct {
	Samples    int64 // logical profiler samples (the paper's accounting unit)
	Compiles   int64 // physical compile+profile executions
	CacheHits  int64 // memoized answers (sum of ShardHits)
	Merges     int64 // concurrent duplicate compiles folded by singleflight
	StaticHits int64 // profiles answered by the SCEV static estimator
	VMHits     int64 // profiles answered by the bytecode VM
	InterpHits int64 // profiles answered by the tree-walking interpreter
	FPHits     int64 // new sequences whose IR fingerprint matched an existing profile
	NoopIR     int64 // pass suffixes that changed nothing (base module reused, no re-hash)
	// Persistent artifact-store tier (all zero when no store is attached).
	// DiskHits are profiles answered from disk with no engine run; the
	// write/byte/corrupt counters are store-wide (profiles and features
	// together).
	DiskHits    int64
	DiskWrites  int64
	DiskBytes   int64
	DiskCorrupt int64
	// FPMismatches counts sanitizer-mode recomputes that disagreed with the
	// fingerprint store; nonzero means fingerprint sharing aliased distinct
	// results and must be treated as a miscompilation signal.
	FPMismatches int64
	Batches      int64 // EvalBatch invocations
	BatchWall    time.Duration
	ShardHits    [cacheShards]int64 // cache hits per shard
	// Fault-containment accounting. The invariant
	//   Samples == Successes + Faults + Flagged
	// holds at every quiescent point regardless of worker count.
	Successes   int64 // samples that produced a usable profile
	Faults      int64 // samples answered by a contained fault (incl. quarantine hits)
	Flagged     int64 // samples rejected by the pass sanitizer
	Retries     int64 // bounded deadline-class retries attempted
	Quarantined int64 // sequences currently held in the quarantine tier
	// Serve-layer counters: zero outside `autophase serve`, where the server
	// aggregates per-job EvalStats across tenants and folds its admission
	// and drain accounting in. All of them follow the nonzero-only printing
	// convention, so engine output away from the service is unchanged.
	Tenants      int64 // distinct tenants observed by the server
	Shed         int64 // requests rejected with an explicit 429/503
	Drained      int64 // jobs completed during graceful shutdown's drain window
	Checkpointed int64 // jobs persisted (not lost) by graceful shutdown
	Resumed      int64 // checkpointed jobs re-admitted after a restart
}

// Add accumulates o's engine counters into s (the serve layer folds many
// per-job stats into one aggregate). BatchWall sums; the per-shard hit
// vector sums element-wise.
func (s *EvalStats) Add(o EvalStats) {
	s.Samples += o.Samples
	s.Compiles += o.Compiles
	s.CacheHits += o.CacheHits
	s.Merges += o.Merges
	s.StaticHits += o.StaticHits
	s.VMHits += o.VMHits
	s.InterpHits += o.InterpHits
	s.FPHits += o.FPHits
	s.NoopIR += o.NoopIR
	s.DiskHits += o.DiskHits
	s.DiskWrites += o.DiskWrites
	s.DiskBytes += o.DiskBytes
	s.DiskCorrupt += o.DiskCorrupt
	s.FPMismatches += o.FPMismatches
	s.Batches += o.Batches
	s.BatchWall += o.BatchWall
	s.Successes += o.Successes
	s.Faults += o.Faults
	s.Flagged += o.Flagged
	s.Retries += o.Retries
	s.Quarantined += o.Quarantined
	s.Tenants += o.Tenants
	s.Shed += o.Shed
	s.Drained += o.Drained
	s.Checkpointed += o.Checkpointed
	s.Resumed += o.Resumed
	for i := range s.ShardHits {
		s.ShardHits[i] += o.ShardHits[i]
	}
}

// String renders the one-line form the CLI prints.
func (s EvalStats) String() string {
	hot := 0
	for _, h := range s.ShardHits {
		if h > 0 {
			hot++
		}
	}
	str := fmt.Sprintf("samples=%d compiles=%d fp-hits=%d noop-ir=%d cache-hits=%d (%d/%d shards) merges=%d static=%d vm=%d interp=%d",
		s.Samples, s.Compiles, s.FPHits, s.NoopIR, s.CacheHits, hot, cacheShards, s.Merges, s.StaticHits, s.VMHits, s.InterpHits)
	if s.FPMismatches > 0 {
		str += fmt.Sprintf(" FP-MISMATCHES=%d", s.FPMismatches)
	}
	if s.DiskHits > 0 || s.DiskWrites > 0 || s.DiskCorrupt > 0 {
		str += fmt.Sprintf(" disk-hits=%d disk-writes=%d disk-bytes=%d disk-corrupt=%d",
			s.DiskHits, s.DiskWrites, s.DiskBytes, s.DiskCorrupt)
	}
	if s.Faults > 0 || s.Quarantined > 0 || s.Retries > 0 {
		str += fmt.Sprintf(" faults=%d quarantined=%d retries=%d",
			s.Faults, s.Quarantined, s.Retries)
	}
	if s.Tenants > 0 {
		str += fmt.Sprintf(" tenants=%d", s.Tenants)
	}
	if s.Shed > 0 {
		str += fmt.Sprintf(" shed=%d", s.Shed)
	}
	if s.Drained > 0 || s.Checkpointed > 0 || s.Resumed > 0 {
		str += fmt.Sprintf(" drained=%d checkpointed=%d resumed=%d",
			s.Drained, s.Checkpointed, s.Resumed)
	}
	if s.Batches > 0 {
		str += fmt.Sprintf(" batches=%d batch-wall=%s", s.Batches,
			s.BatchWall.Round(time.Millisecond))
	}
	return str
}

// EvalStats snapshots the program-level counters (everything except the
// per-batch numbers, which live on an Evaluator).
func (p *Program) EvalStats() EvalStats {
	eng := p.profiler.Stats()
	s := EvalStats{
		Samples:      p.samples.Load(),
		Compiles:     p.compiles.Load(),
		CacheHits:    p.cacheHits.Load(),
		Merges:       p.merges.Load(),
		StaticHits:   eng.StaticHits,
		VMHits:       eng.VMHits,
		InterpHits:   eng.InterpHits,
		DiskHits:     eng.DiskHits,
		DiskWrites:   eng.DiskWrites,
		DiskBytes:    eng.DiskBytes,
		DiskCorrupt:  eng.DiskCorrupt,
		FPHits:       p.fpHits.Load(),
		NoopIR:       p.noopIR.Load(),
		FPMismatches: p.fpMismatches.Load(),
		Successes:    p.successes.Load(),
		Faults:       p.faults.Load(),
		Flagged:      p.flagged.Load(),
		Retries:      p.retries.Load(),
		Quarantined:  int64(p.QuarantineCount()),
	}
	for i := range p.shards {
		s.ShardHits[i] = p.shards[i].hits.Load()
	}
	return s
}

// Stats snapshots the program-level counters plus this Evaluator's batch
// accounting.
func (e *Evaluator) Stats() EvalStats {
	s := e.p.EvalStats()
	s.Batches = e.batches.Load()
	s.BatchWall = time.Duration(e.wallNS.Load())
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
