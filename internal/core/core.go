// Package core is the AutoPhase framework (Figure 4 of the paper): it wires
// the compiler passes, the IR feature extractor and the HLS clock-cycle
// profiler into a gym-style reinforcement-learning environment, collects
// the feature–action–reward tuples the random-forest analysis consumes, and
// reduces the state/action spaces from the forests' importances.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"autophase/internal/artifact"
	"autophase/internal/features"
	"autophase/internal/hls"
	"autophase/internal/interp"
	"autophase/internal/ir"
	"autophase/internal/passes"
)

// Program wraps one input program with compilation caching: the paper
// counts "samples" as clock-cycle profiler invocations, so repeated
// evaluations of the same pass sequence are memoized and free.
//
// Program is safe for concurrent use. Everything it remembers per pass
// sequence lives in one table, guarded by one mutex together with the
// fingerprint store: a cache hit is one lookup under that lock, and the
// compile itself runs outside it. At most GOMAXPROCS (or -workers)
// goroutines compile on one Program at a time, and each spends hundreds of
// microseconds per compile, so the lock is never the bottleneck. Concurrent
// misses on the *same* sequence are deduplicated singleflight-style: one
// goroutine compiles, the rest wait on its result and are counted as
// merges — the duplicated work is accounted for, not repeated.
//
// The cache is two-level. The sequence table maps a pass sequence to the
// structural fingerprint of the IR it produces; the fingerprint store holds
// one record per fingerprint with everything that is a pure function of
// that IR: the physical profile (cycles, area) and the feature vector.
// Distinct sequences that converge on the same IR — the common case, since
// most passes are no-ops most of the time — share one profiler run and one
// feature extraction (counted as FPHits rather than Compiles). The store
// has no cap: a record exists only for an IR that a compile or a feature
// query produced, and distinct IRs are far fewer than distinct sequences.
//
// Pass work is shared the same way. The pass-step table remembers, for a
// pass run on the IR with a given fingerprint, the fingerprint it produced,
// so buildIR skips every pass whose outcome it already knows.
type Program struct {
	Name string
	orig *ir.Module
	// origFP is the fingerprint of the unoptimized module: the empty
	// sequence's entry in the fingerprint store, and the fingerprint every
	// all-no-op sequence resolves to without profiling.
	origFP ir.Fingerprint

	O0Cycles int64 // cycles with no optimization
	O3Cycles int64 // cycles after the -O3 reference pipeline

	// cfgMu guards the compile configuration against whole-cache
	// operations: compiles hold it for read, so SetLimits, ResetSamples,
	// EnableSanitizer and SetArtifacts observe no in-flight compile using
	// the old configuration. The profiler (VM, or the interpreter on a
	// module the lowerer declines) is built from the rest by newProfiler.
	cfgMu    sync.RWMutex
	sanitize bool          // guarded by cfgMu
	lim      interp.Limits // guarded by cfgMu; zero means interp.DefaultLimits
	profiler *hls.Profiler // guarded by cfgMu

	// mu guards the sequence table, the residency order of its optimized
	// modules, the fingerprint store (one record per structural
	// fingerprint of an optimized IR, holding its profile, its feature
	// vector and a resident module) and the pass-step table. The seqEntry
	// and fpEntry fields are only touched under mu too.
	mu        sync.Mutex
	seqs      map[string]*seqEntry        // guarded by mu; keyed by seqKey
	irOrder   []string                    // guarded by mu; keys with a resident module, oldest first
	fpEntries map[ir.Fingerprint]*fpEntry // guarded by mu
	next      map[stepKey]ir.Fingerprint  // guarded by mu; the pass-step table

	// artifacts is the optional persistent tier beneath the fingerprint
	// store: feature vectors for previously seen fingerprints are read
	// from disk instead of re-extracted, and fresh extractions are written
	// behind. The profiler is built with the same store for profile
	// verdicts. Nil means memory-only.
	artifacts atomic.Pointer[artifact.Store]

	// The Program's own counters (evalCounters declares them). Every
	// sample-charged query resolves to exactly one of cSuccesses, cFaults
	// and cFlagged, so samples = successes + faults + flagged holds at any
	// worker count (the chaos suite's invariant).
	ctr [numCounters]atomic.Int64

	// faultHook (SetFaultHook) observes physical panic/deadline faults;
	// when unset, crash bundles go to the process-wide SetCrashDir sink.
	hookMu    sync.Mutex
	faultHook FaultHook // guarded by hookMu

	bestMu  sync.Mutex
	best    int64 // guarded by bestMu; best cycle count seen since the last reset
	bestSeq []int // guarded by bestMu

	// Sanitizer mode (EnableSanitizer): every compile runs the pass
	// sanitizer; a failing sequence compiles as !ok (the sequence table
	// caches that verdict, and the environment ends the episode with a
	// penalty instead of learning from a corrupted reward) and the first
	// report is retained.
	sanMu     sync.Mutex
	sanReport *passes.SanitizerReport // guarded by sanMu
}

// seqEntry is everything the Program remembers about one pass sequence.
type seqEntry struct {
	m  *ir.Module     // optimized module, while irOrder keeps it resident
	fp ir.Fingerprint // m's fingerprint; kept after eviction for the verdict
	// verdict is the cached compile outcome. verdictNone is a miss even
	// when m is resident: FeaturesAfter builds IR without charging a sample.
	verdict verdict
	// fault is the quarantine tier: a remembered panic (forever) or
	// deadline (until SetLimits) fault. A quarantined sequence is never
	// re-run; every query of it is re-charged as one sample and one fault,
	// exactly as a failed profile is, so accounting is worker-count
	// invariant.
	fault *EvalFault
	// fl is the compile in progress, if any. An entry in flight is never
	// removed, so its owner publishes into the entry its waiters saw.
	fl *inflight
}

// verdict is a sequence's cached compile outcome.
type verdict uint8

const (
	verdictNone    verdict = iota // not compiled under the current limits
	verdictOK                     // profiled; the result is fpEntries[fp]
	verdictFlagged                // the sanitizer flagged the sequence
)

// empty reports whether e holds nothing worth keeping in the table.
func (e *seqEntry) empty() bool {
	return e.m == nil && e.verdict == verdictNone && e.fault == nil && e.fl == nil
}

// fpEntry is one fingerprint-store record. The feature vector is pure in
// the IR; the profile verdict also depends on the interpreter limits, so
// SetLimits clears hasProfile and keeps the features. A nil feats is not
// extracted yet. A published vector is shared and must be treated as
// immutable. m is a module with this fingerprint that the sequence table
// holds resident, or nil: irPut sets it, and evicting that module clears
// it.
type fpEntry struct {
	cycles, area int64
	hasProfile   bool
	feats        []int64
	m            *ir.Module
}

// stepKey names one pass run: the pass (a Table 1 index) applied to the IR
// with fingerprint fp. The pass-step table maps it to the fingerprint of
// the IR the pass produced, which is fp itself when the pass changed
// nothing.
type stepKey struct {
	fp   ir.Fingerprint
	pass int
}

// inflight is one in-progress compilation. Waiters block on done; the
// channel close publishes res and cached to them.
type inflight struct {
	done   chan struct{}
	res    compileResult
	cached bool
}

// irCacheCap bounds the optimized modules the sequence table keeps
// resident; episodes extend sequences one pass at a time, so the previous
// prefix is almost always resident and each compile costs one pass
// application instead of the whole sequence. It is a variable only so
// tests can shrink it.
var irCacheCap = 2048

type compileResult struct {
	cycles int64
	area   int64
	feats  []int64
	fp     ir.Fingerprint
	ok     bool
	fault  *EvalFault // non-nil when ok=false because the compile faulted
}

// defaultArtifacts is the process-wide store NewProgram attaches to every
// new Program (SetDefaultArtifacts). A global is the right shape here: the
// store is content-addressed, so every Program in the process shares one
// correctly by construction, and the baseline profiles inside NewProgram
// warm from disk too — an explicit post-construction attach would miss
// them.
var defaultArtifacts atomic.Pointer[artifact.Store]

// SetDefaultArtifacts sets (nil clears) the persistent artifact store that
// subsequent NewProgram calls attach. Programs hold the store they were
// built with; callers own Close ordering (close after the programs are
// done).
func SetDefaultArtifacts(st *artifact.Store) { defaultArtifacts.Store(st) }

// Baselines remembers, per module, the results NewProgram computes before
// a search can start: the O0 profile, the -O3 module's fingerprint and its
// profile. A Program built through it for a module it has seen skips both
// baseline profiles and the -O3 pipeline, and seeds its fingerprint store
// exactly as a fresh build does.
//
// The key is the original module's fingerprint. NewProgram always profiles
// with a fresh profiler under hls.DefaultConfig and interp.DefaultLimits,
// so the baselines are a pure function of the module, the same trust the
// artifact store's profile key and the pass-step table place in a
// fingerprint. Only successes are remembered: a baseline that fails or
// panics is recomputed, and fails again, on the next build.
//
// The zero value is ready to use and safe for concurrent use. A nil
// *Baselines remembers nothing.
type Baselines struct {
	mu   sync.Mutex
	recs map[ir.Fingerprint]baseline // guarded by mu; keyed by the original module's fingerprint
}

// baseline is one module's remembered NewProgram results.
type baseline struct {
	o0Cycles, o0Area int64
	o3FP             ir.Fingerprint
	o3Cycles, o3Area int64
}

// baselinesCap bounds the modules a Baselines remembers; a record is 64
// bytes with its key, so a full memo stays under a megabyte. Once full, a
// new module's baselines are computed and not stored, so nothing is ever
// evicted. It is a variable only so tests can shrink it.
var baselinesCap = 4096

func (b *Baselines) lookup(fp ir.Fingerprint) (baseline, bool) {
	if b == nil {
		return baseline{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.recs[fp]
	return r, ok
}

func (b *Baselines) remember(fp ir.Fingerprint, r baseline) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.recs) >= baselinesCap {
		return
	}
	if b.recs == nil {
		b.recs = make(map[ir.Fingerprint]baseline)
	}
	b.recs[fp] = r
}

// NewProgram profiles the unoptimized and -O3 baselines and returns the
// wrapped program. The module is cloned; the caller's copy is not touched.
func NewProgram(name string, m *ir.Module) (*Program, error) {
	return (*Baselines)(nil).NewProgram(name, m)
}

// NewProgram builds a Program as the package-level NewProgram does, but
// takes the baselines from b when b remembers the module, and remembers
// them in b when it computes them.
func (b *Baselines) NewProgram(name string, m *ir.Module) (*Program, error) {
	st := defaultArtifacts.Load()
	p := &Program{
		Name:      name,
		orig:      m.Clone(),
		profiler:  newProfiler(interp.Limits{}, false, st),
		seqs:      make(map[string]*seqEntry),
		fpEntries: make(map[ir.Fingerprint]*fpEntry),
		next:      make(map[stepKey]ir.Fingerprint),
	}
	p.artifacts.Store(st)
	p.origFP = p.orig.Fingerprint()
	r, ok := b.lookup(p.origFP)
	if !ok {
		var err error
		if r, err = p.profileBaselines(p.profiler); err != nil {
			return nil, err
		}
		b.remember(p.origFP, r)
	}
	p.O0Cycles, p.O3Cycles = r.o0Cycles, r.o3Cycles
	// Seed the fingerprint store with the baselines: a search sequence that
	// reproduces the unoptimized or the -O3 IR shares these profiles instead
	// of re-running the profiler.
	p.fpPublish(p.origFP, r.o0Cycles, r.o0Area)
	p.fpPublish(r.o3FP, r.o3Cycles, r.o3Area)
	return p, nil
}

// profileBaselines profiles the unoptimized module and its -O3 build.
func (p *Program) profileBaselines(prof *hls.Profiler) (baseline, error) {
	r0, err := prof.ProfileFP(p.orig, p.origFP)
	if err != nil {
		return baseline{}, fmt.Errorf("core: O0 profile of %s: %w", p.Name, err)
	}
	p.countProfile(r0)
	o3 := p.orig.Clone()
	passes.ApplyO3(o3)
	fp3 := o3.Fingerprint()
	r3, err := prof.ProfileFP(o3, fp3)
	if err != nil {
		return baseline{}, fmt.Errorf("core: O3 profile of %s: %w", p.Name, err)
	}
	p.countProfile(r3)
	return baseline{
		o0Cycles: r0.Cycles, o0Area: int64(r0.AreaLUT),
		o3FP: fp3, o3Cycles: r3.Cycles, o3Area: int64(r3.AreaLUT),
	}, nil
}

// Module returns a fresh clone of the original (unoptimized) module.
func (p *Program) Module() *ir.Module { return p.orig.Clone() }

// SetArtifacts attaches (nil detaches) a persistent artifact store to this
// Program and its profiler. Tests use it for explicit stores; production
// wiring goes through SetDefaultArtifacts so the NewProgram baselines warm
// too.
func (p *Program) SetArtifacts(st *artifact.Store) {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	p.artifacts.Store(st)
	p.profiler = newProfiler(p.lim, p.sanitize, st)
}

// newProfiler builds the profiler for one compile configuration.
func newProfiler(lim interp.Limits, sanitize bool, st *artifact.Store) *hls.Profiler {
	return hls.NewProfiler(hls.ProfileOptions{Limits: lim, CrossCheck: sanitize, Store: st})
}

// EnableSanitizer switches every subsequent Compile into sanitized mode:
// after each pass of a sequence the collect-all verifier and the dataflow
// consistency checks run, and a sequence that corrupts the module compiles
// as failed (ok=false) instead of feeding a bogus cycle count into the
// reward. The first failure's delta-minimized report is kept.
func (p *Program) EnableSanitizer() {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	// Profiles join in: all three engines (static estimator, VM,
	// interpreter) run and must agree bit-for-bit wherever they answer, so
	// an engine bug cannot slip a wrong cycle count into the reward. This
	// is the only place the static estimator runs on the reward path.
	p.sanitize = true
	p.profiler = newProfiler(p.lim, true, p.artifacts.Load())
}

// SanitizerReport returns the report of the first miscompiling sequence a
// sanitized Compile observed, or nil when none failed.
func (p *Program) SanitizerReport() *passes.SanitizerReport {
	p.sanMu.Lock()
	defer p.sanMu.Unlock()
	return p.sanReport
}

// Features returns the feature vector of the unoptimized program. It is an
// observation-only surface, so a contained extraction fault degrades to an
// all-zero vector instead of failing the caller.
func (p *Program) Features() []int64 {
	if f, fault := p.extractSafe(p.orig, p.origFP, nil); fault == nil {
		return f
	}
	return make([]int64, features.NumFeatures)
}

// seqKey encodes a sequence as two big-endian bytes per pass index. The
// fixed width keeps the byte-prefix ⟺ sequence-prefix equivalence that
// buildIR's prefix reuse and irPut's eviction protection depend on, while
// indices up to 65535 encode without aliasing (byte(s) collapsed 256+i
// onto i).
func seqKey(seq []int) string {
	b := make([]byte, 2*len(seq))
	for i, s := range seq {
		b[2*i] = byte(s >> 8)
		b[2*i+1] = byte(s)
	}
	return string(b)
}

// Compile applies the pass sequence to a clone of the program, extracts
// features and profiles the estimated cycle count. Results are memoized;
// each cache miss counts as one profiler sample.
func (p *Program) Compile(seq []int) (cycles int64, feats []int64, ok bool) {
	r := p.compile(seq)
	return r.cycles, r.feats, r.ok
}

// CompileArea is Compile's area-objective variant: it returns the
// functional-unit area estimate (LUTs) alongside the cycle count, for the
// §5.1 alternative rewards (area, or multi-objective combinations).
func (p *Program) CompileArea(seq []int) (cycles, area int64, ok bool) {
	r := p.compile(seq)
	return r.cycles, r.area, r.ok
}

// resolve materializes a compileResult from e's verdict. It fails (second
// return false) when e has no verdict, or when the verdict went stale — its
// fingerprint-store record lost its profile — in which case the verdict is
// dropped and the caller recomputes as a miss.
//
//contractvet:locked fpEntries -- callers hold mu
func (p *Program) resolve(e *seqEntry) (compileResult, bool) {
	switch e.verdict {
	case verdictNone:
		return compileResult{}, false
	case verdictFlagged:
		return compileResult{}, true // cached failure verdict
	}
	r := p.fpEntries[e.fp]
	if r == nil || !r.hasProfile || r.feats == nil {
		e.verdict = verdictNone
		return compileResult{}, false
	}
	return compileResult{cycles: r.cycles, area: r.area, feats: r.feats, fp: e.fp, ok: true}, true
}

// entry returns key's sequence-table entry, creating an empty one if there
// is none.
//
//contractvet:locked seqs -- callers hold mu
func (p *Program) entry(key string) *seqEntry {
	e := p.seqs[key]
	if e == nil {
		e = &seqEntry{}
		p.seqs[key] = e
	}
	return e
}

// fpProfile returns the stored profile for fp, if there is one.
func (p *Program) fpProfile(fp ir.Fingerprint) (cycles, area int64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.fpEntries[fp]; e != nil && e.hasProfile {
		return e.cycles, e.area, true
	}
	return 0, 0, false
}

// fpPublish records a physical profile under fp.
func (p *Program) fpPublish(fp ir.Fingerprint, cycles, area int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.fpRecord(fp)
	e.cycles, e.area, e.hasProfile = cycles, area, true
}

// fpRecord returns fp's record, creating an empty one if there is none.
//
//contractvet:locked fpEntries -- callers hold mu
func (p *Program) fpRecord(fp ir.Fingerprint) *fpEntry {
	e := p.fpEntries[fp]
	if e == nil {
		e = &fpEntry{}
		p.fpEntries[fp] = e
	}
	return e
}

// fpVec returns the stored feature vector for fp, or nil.
func (p *Program) fpVec(fp ir.Fingerprint) []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.fpEntries[fp]; e != nil {
		return e.feats
	}
	return nil
}

// fpPutVec publishes v as fp's feature vector and returns the stored one:
// the first published vector wins (extraction is pure, so any copy is the
// right one).
func (p *Program) fpPutVec(fp ir.Fingerprint, v []int64) []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.fpRecord(fp)
	if e.feats == nil {
		e.feats = v
	}
	return e.feats
}

// compile is the shared memoized entry point: boundary validation, then
// one sequence-table lookup that answers a quarantined or cached sequence,
// or joins or starts the singleflight compile on a miss.
func (p *Program) compile(seq []int) compileResult {
	// The API boundary for externally supplied sequences: an out-of-range
	// index becomes a typed fault, not a ByIndex panic. Re-charged on every
	// query (nothing is cached for a sequence that never ran).
	if err := passes.CheckSeq(seq); err != nil {
		f := &EvalFault{Kind: FaultBadSeq, Stage: "boundary", Pass: -1, Pos: -1,
			Program: p.Name, Seq: append([]int(nil), seq...), Err: err.Error()}
		p.ctr[cSamples].Add(1)
		p.ctr[cFaults].Add(1)
		return compileResult{fault: f}
	}
	key := seqKey(seq)
	p.mu.Lock()
	e := p.entry(key)
	if f := e.fault; f != nil {
		// Quarantine gate: remembered faults short-circuit the compile — the
		// sequence is never re-run — but are re-charged as one sample and one
		// fault per query, mirroring the failed-profile accounting rule.
		p.mu.Unlock()
		p.ctr[cSamples].Add(1)
		p.ctr[cFaults].Add(1)
		return compileResult{fault: f}
	}
	if r, ok := p.resolve(e); ok {
		p.mu.Unlock()
		p.ctr[cCacheHits].Add(1)
		return r
	}
	if fl := e.fl; fl != nil {
		p.mu.Unlock()
		<-fl.done
		p.ctr[cMerges].Add(1)
		switch {
		case fl.res.fault != nil:
			// A fault is re-charged to every merged waiter: sequentially,
			// each of these queries would have hit the quarantine gate (or
			// re-run a transient failure) and paid one sample + one fault,
			// so the merged path must charge the same.
			p.ctr[cSamples].Add(1)
			p.ctr[cFaults].Add(1)
		case !fl.cached:
			// Sequential behaviour re-counts an uncached (failed) compile as
			// a fresh sample on every query; a merged waiter counts the same
			// way so sample totals are identical at any worker count.
			p.ctr[cSamples].Add(1)
		}
		return fl.res
	}
	fl := &inflight{done: make(chan struct{})}
	e.fl = fl
	p.mu.Unlock()

	res, cacheable := p.compileGuarded(seq, key)

	p.mu.Lock()
	if cacheable {
		e.verdict = verdictFlagged
		if res.ok {
			e.fp, e.verdict = res.fp, verdictOK
		}
	}
	e.fl = nil
	p.mu.Unlock()
	fl.res, fl.cached = res, cacheable
	close(fl.done)
	return res
}

// compileGuarded is the outermost containment boundary around the
// singleflight owner's work: the staged boundaries inside compileMiss
// attribute pass, feature and profile panics precisely, and this catch-all
// converts anything that still escapes (cache bookkeeping, stats) into a
// panic-class fault instead of unwinding into the evaluator's batch with the
// inflight entry still registered — which would deadlock every waiter.
func (p *Program) compileGuarded(seq []int, key string) (res compileResult, cacheable bool) {
	defer func() {
		if v := recover(); v != nil {
			res = p.faultResult(newPanicFault(v, "boundary", p.Name, seq), key)
			cacheable = false
		}
	}()
	return p.compileMiss(seq, key)
}

// faultResult charges and records one physical fault occurrence: the fault
// counter, the quarantine tier (for remembered kinds), and the forensics
// sink (hook or crash directory) for panic/deadline-class faults. The
// sample for the query was already charged by compileMiss.
func (p *Program) faultResult(f *EvalFault, key string) compileResult {
	p.ctr[cFaults].Add(1)
	if f.Kind.quarantinable() {
		p.mu.Lock()
		p.entry(key).fault = f
		p.mu.Unlock()
		p.hookMu.Lock()
		hook := p.faultHook
		p.hookMu.Unlock()
		if hook != nil {
			hook(f)
		} else if dir := crashDir(); dir != "" {
			// Best-effort forensics: a failing write must not turn a
			// contained fault back into a hard failure.
			_, _ = WriteCrashBundle(dir, p, f)
		}
	}
	return compileResult{fault: f}
}

// IsQuarantined reports whether seq is quarantined, and with which fault.
func (p *Program) IsQuarantined(seq []int) (*EvalFault, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.seqs[seqKey(seq)]; e != nil && e.fault != nil {
		return e.fault, true
	}
	return nil, false
}

// QuarantineCount returns the number of quarantined sequences.
func (p *Program) QuarantineCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.seqs {
		if e.fault != nil {
			n++
		}
	}
	return n
}

// SetFaultHook routes physical panic/deadline-class faults to h instead of
// the SetCrashDir sink. A nil h restores the default.
func (p *Program) SetFaultHook(h FaultHook) {
	p.hookMu.Lock()
	p.faultHook = h
	p.hookMu.Unlock()
}

// compileMiss does the uncached work — build the optimized IR, then either
// share an existing profile by fingerprint or physically profile — outside
// the table lock, so misses on different sequences run in parallel. Each
// stage (pass execution, feature extraction, profiling) runs behind its own
// containment boundary; a stage panic becomes a typed fault, not a dead
// worker.
func (p *Program) compileMiss(seq []int, key string) (res compileResult, cacheable bool) {
	p.cfgMu.RLock()
	defer p.cfgMu.RUnlock()
	p.ctr[cSamples].Add(1)
	m, fp, irOK, fault := p.buildIRSafe(seq, key, p.sanitize)
	if fault != nil {
		return p.faultResult(fault, key), false
	}
	if !irOK {
		// The sanitizer flagged this sequence: fail the compile loudly
		// rather than profiling a miscompiled module.
		p.ctr[cFlagged].Add(1)
		return compileResult{}, true
	}
	// Features are extracted (and stored) before the profile so a
	// feature-stage fault never pays for a profiler run.
	feats, ffault := p.extractSafe(m, fp, seq)
	if ffault != nil {
		return p.faultResult(ffault, key), false
	}
	if !p.sanitize {
		// Fingerprint fast path: another sequence already reached this exact
		// IR, so its profile (and feature vector) carry over wholesale.
		if cyc, area, ok := p.fpProfile(fp); ok {
			p.ctr[cFPHits].Add(1)
			p.ctr[cSuccesses].Add(1)
			res = compileResult{cycles: cyc, area: area, feats: feats, fp: fp, ok: true}
			p.recordBest(cyc, seq)
			return res, true
		}
	}
	p.ctr[cCompiles].Add(1)
	rep, pfault := p.profileSafe(p.profiler, m, fp, seq)
	if pfault != nil {
		// Profile-class faults (limit overruns, traps, injected errors) are
		// deliberately not cached or quarantined: the verdict depends on the
		// configured interp.Limits and must be re-evaluated — and re-counted
		// as a sample and a fault — on every query. Panic/deadline-class
		// faults are quarantined inside faultResult.
		return p.faultResult(pfault, key), false
	}
	if p.sanitize {
		// Differential mode never takes the fingerprint shortcut; instead it
		// cross-checks the store against every recompute-from-scratch.
		if cyc, area, ok := p.fpProfile(fp); ok && (cyc != rep.Cycles || area != int64(rep.AreaLUT)) {
			p.ctr[cFPMismatches].Add(1)
		}
	}
	p.fpPublish(fp, rep.Cycles, int64(rep.AreaLUT))
	p.ctr[cSuccesses].Add(1)
	res = compileResult{cycles: rep.Cycles, area: int64(rep.AreaLUT),
		feats: feats, fp: fp, ok: true}
	p.recordBest(rep.Cycles, seq)
	return res, true
}

// buildIRSafe is buildIR behind the pass-stage containment boundary: a
// panicking pass (attributed by passes.Apply as a *PassPanic) surfaces as a
// typed panic-class fault.
func (p *Program) buildIRSafe(seq []int, key string, sanitize bool) (m *ir.Module, fp ir.Fingerprint, ok bool, fault *EvalFault) {
	defer func() {
		if v := recover(); v != nil {
			m, fp, ok = nil, ir.Fingerprint{}, false
			fault = newPanicFault(v, "pass", p.Name, seq)
		}
	}()
	m, fp, ok = p.buildIR(seq, key, sanitize)
	return
}

// extractSafe returns fp's feature vector, extracted from m at most once
// per fingerprint, behind the feature-stage containment boundary. The
// persistent tier sits underneath the fingerprint store: a disk record for
// the fingerprint skips extraction entirely (the features are pure in the
// IR, so the stored vector IS the extraction), and fresh extractions are
// written behind.
func (p *Program) extractSafe(m *ir.Module, fp ir.Fingerprint, seq []int) (vec []int64, fault *EvalFault) {
	defer func() {
		if v := recover(); v != nil {
			vec = nil
			fault = newPanicFault(v, "features", p.Name, seq)
		}
	}()
	if v := p.fpVec(fp); v != nil {
		return v, nil
	}
	st := p.artifacts.Load()
	key := artifact.Key{FP: fp, Kind: artifact.KindFeatures}
	if st != nil {
		if data, ok := st.Get(key); ok {
			if v, ok := decodeVec(data, features.NumFeatures); ok {
				return p.fpPutVec(fp, v), nil
			}
			st.NoteCorrupt(key)
		}
	}
	v := p.fpPutVec(fp, features.Extract(m))
	if st != nil {
		st.Put(key, encodeVec(v))
	}
	return v, nil
}

// encodeVec/decodeVec carry a feature vector as packed little-endian i64s.
// The expected element count is part of the contract: a record of any
// other length is corruption (or a feature-set version change, which must
// read as a miss so the new extractor's vector overwrites it).
func encodeVec(v []int64) []byte {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
	}
	return buf
}

func decodeVec(data []byte, n int) ([]int64, bool) {
	if len(data) != 8*n {
		return nil, false
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return v, true
}

// profileSafe is the profiler behind the profile-stage containment
// boundary, with the retry policy applied: deadline-class failures
// (transient under contention) get one bounded retry; everything else gets
// none. Panics inside scheduling, the VM, the interpreter, or the static
// estimator that the sanitizer's cross-check adds become panic-class faults.
func (p *Program) profileSafe(prof *hls.Profiler, m *ir.Module, fp ir.Fingerprint, seq []int) (*hls.Report, *EvalFault) {
	rep, err, fault := p.profileRecover(prof, m, fp, seq)
	if fault != nil {
		return nil, fault
	}
	if err != nil && errors.Is(err, interp.ErrDeadline) {
		p.ctr[cRetries].Add(1)
		rep, err, fault = p.profileRecover(prof, m, fp, seq)
		if fault != nil {
			return nil, fault
		}
	}
	if err != nil {
		return nil, classifyProfileErr(err, p.Name, seq)
	}
	p.countProfile(rep)
	return rep, nil
}

// engineHits names the counter of each engine a report can carry.
var engineHits = [...]counter{hls.EngineStatic: cStaticHits, hls.EngineVM: cVMHits, hls.EngineInterp: cInterpHits}

// countProfile charges a successful profile to the store when it answered,
// otherwise to the engine that did.
func (p *Program) countProfile(rep *hls.Report) {
	c := engineHits[rep.Engine]
	if rep.Stored {
		c = cDiskHits
	}
	p.ctr[c].Add(1)
}

func (p *Program) profileRecover(prof *hls.Profiler, m *ir.Module, fp ir.Fingerprint, seq []int) (rep *hls.Report, err error, fault *EvalFault) {
	defer func() {
		if v := recover(); v != nil {
			rep, err = nil, nil
			fault = newPanicFault(v, "profile", p.Name, seq)
		}
	}()
	rep, err = prof.ProfileFP(m, fp)
	return
}

// recordBest updates the incumbent. Ties on the cycle count break towards
// the shorter, then lexicographically smaller sequence, so the incumbent is
// a function of the *set* of evaluated sequences rather than of evaluation
// order — the determinism contract batch evaluation relies on.
func (p *Program) recordBest(cycles int64, seq []int) {
	p.bestMu.Lock()
	defer p.bestMu.Unlock()
	switch {
	case p.best == 0 || cycles < p.best:
	case cycles == p.best && lessSeq(seq, p.bestSeq):
	default:
		return
	}
	p.best = cycles
	p.bestSeq = append([]int(nil), seq...)
}

// lessSeq orders sequences by length, then lexicographically.
func lessSeq(a, b []int) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// buildIR produces the optimized module for seq and its fingerprint,
// reusing the longest resident prefix so that sequence extensions apply only
// the new suffix. The suffix is walked through the pass-step table (walk),
// so passes whose outcome is known do not run, and passes that do run work
// on one copy-on-write clone, deep-copying only the functions they rewrite.
// A suffix that leaves the base's IR reuses the base module and its
// fingerprint outright (counted in NoopIR). Resident modules are immutable
// once published, so the apply work runs outside the table lock. Callers
// hold cfgMu for read and pass the sanitize flag down to avoid
// re-acquiring it. ok=false means the sanitizer flagged the sequence; the
// returned module is the corrupted evidence and the fingerprint is zero.
func (p *Program) buildIR(seq []int, key string, sanitize bool) (_ *ir.Module, _ ir.Fingerprint, ok bool) {
	p.mu.Lock()
	if e := p.seqs[key]; e != nil && e.m != nil {
		p.mu.Unlock()
		return e.m, e.fp, true
	}
	// Longest resident prefix (the empty prefix is the original program).
	start, base, baseFP := 0, p.orig, p.origFP
	for i := len(seq) - 1; i > 0; i-- {
		if e := p.seqs[key[:2*i]]; e != nil && e.m != nil {
			start, base, baseFP = i, e.m, e.fp
			break
		}
	}
	p.mu.Unlock()

	if sanitize {
		// The sanitizer's verifiers renumber instructions and replay
		// prefixes, so this path works on a deep clone, never shares, never
		// consults the pass-step table, and always re-derives the
		// fingerprint.
		m := base.Clone()
		pm := passes.NewManager()
		pm.Sanitize = true
		pm.Apply(m, seq[start:])
		if rep := pm.SanitizerReport(); rep != nil {
			p.sanMu.Lock()
			if p.sanReport == nil {
				p.sanReport = rep
			}
			p.sanMu.Unlock()
			// Do not keep the corrupted module: extensions of this
			// sequence must re-derive (and re-flag) from a clean prefix.
			return m, ir.Fingerprint{}, false
		}
		m.Seal() // publish it numbered and without analyses, like the walk's
		fp := m.Fingerprint()
		p.irPut(key, m, fp)
		return m, fp, true
	}

	m, fp := p.walk(base, baseFP, seq, start)
	if fp == baseFP {
		m = base
		p.ctr[cNoopIR].Add(1)
	}
	p.irPut(key, m, fp)
	return m, fp, true
}

// walk applies seq[start:] (up to -terminate) to base, whose fingerprint is
// baseFP, and returns the result and its fingerprint. It relies on the
// fingerprint contract: equal fingerprints are equal IR, so a pass run on
// equal IR has the same outcome. Each pass is looked up in the pass-step
// table first:
//
//   - a known no-op is skipped;
//   - a known change to an IR with a resident module continues from that
//     module, dropping the work clone;
//   - a known change to an IR with no resident module runs the pass on the
//     work clone, taking the new fingerprint from the table;
//   - an unknown pass runs on the work clone. When it changes nothing, the
//     walk records a no-op and goes on. When it changes the IR, the walk
//     fingerprints the clone, records the step, and runs the rest of the
//     sequence without lookups, fingerprinting once more at the end if the
//     rest changed anything.
//
// The walk stops learning at the first new change because a fingerprint
// per changing pass costs more than its steps save where few steps repeat
// (a serve job's fresh Program).
func (p *Program) walk(base *ir.Module, baseFP ir.Fingerprint, seq []int, start int) (*ir.Module, ir.Fingerprint) {
	cur, fp := base, baseFP // the IR so far is cur, or work when dirty
	var work *ir.Module     // copy-on-write clone of cur that passes run on
	dirty := false
	for i := start; i < len(seq) && seq[i] != passes.TerminateIndex; i++ {
		k := stepKey{fp, seq[i]}
		p.mu.Lock()
		next, known := p.next[k]
		var res *ir.Module
		if known && next != fp {
			if e := p.fpEntries[next]; e != nil {
				res = e.m
			}
		}
		p.mu.Unlock()
		switch {
		case known && next == fp:
			continue
		case res != nil:
			cur, fp, work, dirty = res, next, nil, false
			continue
		}
		if work == nil {
			work = cur.CloneCOW()
		}
		changed := passes.Step(work, seq[i], i-start)
		if known {
			fp, dirty = next, true
			continue
		}
		if !changed {
			p.learn(k, fp)
			continue
		}
		fp = work.Fingerprint()
		p.learn(k, fp)
		rest := false
		for j := i + 1; j < len(seq) && seq[j] != passes.TerminateIndex; j++ {
			if passes.Step(work, seq[j], j-start) {
				rest = true
			}
		}
		work.Seal()
		if rest {
			fp = work.Fingerprint()
		}
		return work, fp
	}
	if !dirty {
		return cur, fp
	}
	work.Seal()
	return work, fp
}

// learn records the pass-step k -> fp.
func (p *Program) learn(k stepKey, fp ir.Fingerprint) {
	p.mu.Lock()
	p.next[k] = fp
	p.mu.Unlock()
}

// irPut makes m resident as key's optimized module. At irCacheCap resident
// modules it evicts the oldest first, but never a strict prefix of key:
// episodes extend one sequence a pass at a time, and evicting the active
// episode's own prefix chain would force every subsequent step to recompile
// from scratch. Eviction drops only the module; the entry's fingerprint,
// verdict and fault stay. m becomes its fingerprint's resident module.
func (p *Program) irPut(key string, m *ir.Module, fp ir.Fingerprint) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entry(key)
	if e.m != nil {
		p.clearResident(e)
	} else {
		for len(p.irOrder) >= irCacheCap {
			victim := -1
			for i, k := range p.irOrder {
				if len(k) < len(key) && key[:len(k)] == k {
					continue // prefix of the sequence being extended
				}
				victim = i
				break
			}
			if victim < 0 {
				// Everything resident is a prefix of key. Evict the oldest
				// (shortest) one: buildIR only needs the longest prefix.
				victim = 0
			}
			k := p.irOrder[victim]
			p.irOrder = append(p.irOrder[:victim], p.irOrder[victim+1:]...)
			v := p.seqs[k]
			p.clearResident(v)
			v.m = nil
			if v.empty() {
				delete(p.seqs, k)
			}
		}
		p.irOrder = append(p.irOrder, key)
	}
	e.m, e.fp = m, fp
	p.fpRecord(fp).m = m
}

// clearResident stops e's module being its fingerprint's resident module,
// before the sequence table drops it.
//
//contractvet:locked fpEntries -- callers hold mu
func (p *Program) clearResident(e *seqEntry) {
	if r := p.fpEntries[e.fp]; r != nil && r.m == e.m {
		r.m = nil
	}
}

// BestCycles returns the best cycle count (and its sequence) observed by
// any Compile since the last ResetSamples — how the evaluation scores each
// algorithm's run on a program.
func (p *Program) BestCycles() (int64, []int) {
	p.bestMu.Lock()
	defer p.bestMu.Unlock()
	if p.best == 0 {
		return p.O0Cycles, nil
	}
	return p.best, append([]int(nil), p.bestSeq...)
}

// Samples reports the number of profiler invocations (cache misses).
func (p *Program) Samples() int { return int(p.ctr[cSamples].Load()) }

// ResetSamples zeroes the per-run accounting (samples and its
// successes/faults/flagged/retries decomposition, e.g. between search
// runs), and optionally drops the memoization cache — quarantine included —
// so every algorithm pays full cost.
func (p *Program) ResetSamples(dropCache bool) {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	for _, c := range evalCounters {
		if c.reset {
			p.ctr[c.src].Store(0)
		}
	}
	p.bestMu.Lock()
	p.best = 0
	p.bestSeq = nil
	p.bestMu.Unlock()
	if dropCache {
		p.mu.Lock()
		for k, e := range p.seqs {
			if e.fl == nil {
				delete(p.seqs, k)
			} else {
				*e = seqEntry{fl: e.fl}
			}
		}
		p.irOrder = nil
		p.fpEntries = make(map[ir.Fingerprint]*fpEntry)
		p.next = make(map[stepKey]ir.Fingerprint)
		p.mu.Unlock()
	}
}

// SetLimits replaces the interpreter limits used by subsequent profiles and
// drops the memoized compile results, whose success verdicts depend on the
// limits: every sequence loses its verdict and every fingerprint-store
// record loses its profile. Resident modules, fingerprints, the records'
// feature vectors and the pass-step table are kept: IR, features and pass
// steps do not depend on the limits.
func (p *Program) SetLimits(lim interp.Limits) {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	p.lim = lim
	p.profiler = newProfiler(lim, p.sanitize, p.artifacts.Load())
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, e := range p.seqs {
		e.verdict = verdictNone
		// Deadline-class quarantine verdicts depend on the limits, so new
		// limits grant those sequences a fresh trial. Panic-class faults
		// stay: a panicking pass panics under any limit.
		if e.fault != nil && e.fault.Kind == FaultDeadline {
			e.fault = nil
		}
		if e.empty() {
			delete(p.seqs, k)
		}
	}
	for _, e := range p.fpEntries {
		e.hasProfile = false
	}
}

// SpeedupOverO3 converts a cycle count into the paper's headline metric:
// the fractional circuit-performance improvement over -O3 (positive is
// faster than -O3).
func (p *Program) SpeedupOverO3(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(p.O3Cycles)/float64(cycles) - 1
}

// ObsKind selects the observation space of Table 3.
type ObsKind int

// Observation spaces.
const (
	ObsFeatures  ObsKind = iota // program features (RL-A3C, RL-ES)
	ObsHistogram                // action history histogram (RL-PPO2)
	ObsBoth                     // histogram ++ features (RL-PPO3, generalization nets)
)

// Normalize selects the §5.3 feature/reward normalization technique.
type Normalize int

// Normalization techniques.
const (
	NormNone  Normalize = iota
	NormLog             // technique 1: log(1+x) of features
	NormTotal           // technique 2: divide by total instruction count
)

// Objective selects what the environment's reward optimizes (§5.1: "It is
// possible to define a different reward for different objectives", e.g.
// circuit area, or a combination).
type Objective int

// Optimization objectives.
const (
	MinimizeCycles    Objective = iota // the paper's default: circuit speed
	MinimizeArea                       // negative area as reward
	MinimizeAreaDelay                  // area·cycles product (balanced QoR)
)

// EnvConfig configures a phase-ordering environment.
type EnvConfig struct {
	Obs        ObsKind
	Norm       Normalize
	Objective  Objective
	EpisodeLen int // N, the maximum passes per episode (45 in §6.1)
	// RewardLog applies the §6.2 log-scaled reward so large programs do not
	// dominate multi-program training (normalization technique 1 applied
	// to rewards).
	RewardLog bool
	// RewardRelative divides the cycle improvement by the program's
	// unoptimized cycle count (§5.3 technique 2 applied to rewards):
	// rewards become fractions of the problem size.
	RewardRelative bool
	// FeatureMask restricts the observed features to these indices (the §4
	// filtered state space); nil keeps all 56.
	FeatureMask []int
	// ActionList restricts the action space to these pass indices (the §4
	// filtered action space); nil allows all 45 passes.
	ActionList []int
	// Sanitize runs the pass sanitizer on every compile: a miscompiling
	// sequence fails the episode with a penalty instead of contributing a
	// corrupted reward, and the minimized repro is available from
	// Program.SanitizerReport. Training gets slower but cannot silently
	// learn from a broken reward oracle.
	Sanitize bool
	// NoProfile puts the environment in inference mode: steps extend the
	// sequence and observe features through the profiler-free FeaturesAfter
	// path, but the clock-cycle profiler never runs, rewards are zero and
	// no samples are consumed. InferGreedy uses it to reach the paper's
	// 1 sample per program (Figure 9).
	NoProfile bool
}

// DefaultEnv matches the per-program evaluation setting of §6.1.
func DefaultEnv() EnvConfig {
	return EnvConfig{Obs: ObsBoth, Norm: NormNone, EpisodeLen: 45}
}

func (c EnvConfig) actions() []int {
	if c.ActionList != nil {
		return c.ActionList
	}
	all := make([]int, passes.NumActions)
	for i := range all {
		all[i] = i
	}
	return all
}

func (c EnvConfig) featIdx() []int {
	if c.FeatureMask != nil {
		return c.FeatureMask
	}
	all := make([]int, features.NumFeatures)
	for i := range all {
		all[i] = i
	}
	return all
}

// normalizeFeatures maps raw features into the observation under the
// configured technique.
func (c EnvConfig) normalizeFeatures(raw []int64) []float64 {
	idx := c.featIdx()
	out := make([]float64, len(idx))
	switch c.Norm {
	case NormLog:
		for i, fi := range idx {
			out[i] = math.Log1p(float64(raw[fi]))
		}
	case NormTotal:
		den := float64(raw[features.TotalInstructions])
		if den <= 0 {
			den = 1
		}
		for i, fi := range idx {
			out[i] = float64(raw[fi]) / den
		}
	default:
		for i, fi := range idx {
			out[i] = float64(raw[fi])
		}
	}
	return out
}

func (c EnvConfig) reward(prev, cur, base int64) float64 {
	// §5.1: R = c_prev − c_cur.
	d := float64(prev - cur)
	switch {
	case c.RewardLog:
		// §6.2: log-scaled improvement, sign preserved.
		if d > 0 {
			return math.Log1p(d)
		}
		return -math.Log1p(-d)
	case c.RewardRelative && base > 0:
		// Technique 2: improvement as a fraction of the unoptimized
		// program (scaled so typical rewards land near unit range).
		return 100 * d / float64(base)
	}
	return d
}

// FeaturesAfter applies the pass sequence and extracts features without
// invoking the clock-cycle profiler. Inference needs the next observation
// but no reward, so this does not count as a sample — which is how the
// paper's deep-RL inference reaches 1 sample per program (Figure 9). The
// vector is stored under the resulting IR's fingerprint. Any fault degrades
// to an all-zero observation: this is the inference path, where a crash
// would cost the whole rollout.
func (p *Program) FeaturesAfter(seq []int) (out []int64) {
	const n = features.NumFeatures
	defer func() {
		if recover() != nil {
			out = make([]int64, n)
		}
	}()
	if passes.CheckSeq(seq) != nil {
		return make([]int64, n)
	}
	key := seqKey(seq)
	p.mu.Lock()
	e := p.seqs[key]
	quarantined := e != nil && e.fault != nil
	var v []int64
	if e != nil && e.verdict == verdictOK {
		if r := p.fpEntries[e.fp]; r != nil {
			v = r.feats
		}
	}
	p.mu.Unlock()
	switch {
	case quarantined:
		return make([]int64, n)
	case v != nil:
		return v
	}
	p.cfgMu.RLock()
	m, fp, ok, fault := p.buildIRSafe(seq, key, p.sanitize)
	p.cfgMu.RUnlock()
	if fault != nil {
		return make([]int64, n)
	}
	if !ok {
		// Sanitizer-flagged sequence: observe the corrupted module without
		// polluting the fingerprint store.
		return features.Extract(m)
	}
	if v, fault = p.extractSafe(m, fp, seq); fault != nil {
		return make([]int64, n)
	}
	return v
}
