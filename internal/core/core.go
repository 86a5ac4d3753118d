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

// cacheShards is the number of key-hashed shards the compile/feature cache
// is split into. 32 comfortably exceeds GOMAXPROCS on the machines this
// runs on, so two workers rarely contend on the same shard lock, while the
// per-shard map overhead stays negligible next to one compiled module.
const cacheShards = 32

// Program wraps one input program with compilation caching: the paper
// counts "samples" as clock-cycle profiler invocations, so repeated
// evaluations of the same pass sequence are memoized and free.
//
// Program is safe for concurrent use. The memoized compile and feature
// results live in key-hashed shards, each guarded by its own RWMutex so
// cache hits (the common case inside an episode) only take a read lock,
// and misses on different sequences compile in parallel. Concurrent misses
// on the *same* sequence are deduplicated singleflight-style: one goroutine
// compiles, the rest wait on its result and are counted as merges — the
// duplicated work is accounted for, not repeated.
//
// The cache is two-level. The per-shard sequence index maps a pass sequence
// to the structural fingerprint of the IR it produces; the fingerprint store
// holds one record per fingerprint with everything that is a pure function
// of that IR: the physical profile (cycles, area) and the feature vector.
// Distinct sequences that converge on the same IR — the common case, since
// most passes are no-ops most of the time — share one profiler run and one
// feature extraction (counted as FPHits rather than Compiles). The store
// has no cap: a record exists only for an IR that a compile or a feature
// query produced, and distinct IRs are far fewer than distinct sequences.
type Program struct {
	Name string
	orig *ir.Module
	// origFP is the fingerprint of the unoptimized module: the empty
	// sequence's entry in the fingerprint store, and the fingerprint every
	// all-no-op sequence resolves to without profiling.
	origFP ir.Fingerprint

	O0Cycles int64 // cycles with no optimization
	O3Cycles int64 // cycles after the -O3 reference pipeline

	hlsCfg hls.Config

	// profiler is the unified engine front end (static → VM → interpreter
	// under EngineAuto). It owns the per-engine hit counters; its
	// limits/engine/cross-check knobs are only ever changed under cfgMu so
	// in-flight compiles (which hold cfgMu for read) never observe a
	// mid-compile switch.
	profiler *hls.Profiler

	// cfgMu guards the compile configuration (interpreter limits, engine
	// selection, sanitizer mode) against whole-cache operations: compiles
	// hold it for read, so SetLimits/ResetSamples/EnableSanitizer observe
	// no in-flight compile using the old configuration.
	cfgMu    sync.RWMutex
	sanitize bool // guarded by cfgMu

	shards [cacheShards]cacheShard

	// The fingerprint store: one record per structural fingerprint of an
	// optimized IR, holding its profile and its feature vector.
	fpMu      sync.Mutex
	fpEntries map[ir.Fingerprint]*fpEntry // guarded by fpMu

	// artifacts is the optional persistent tier beneath the fingerprint
	// store: feature vectors for previously seen fingerprints are read
	// from disk instead of re-extracted, and fresh extractions are written
	// behind. The profiler holds the same store for profile verdicts. Nil
	// means memory-only.
	artifacts atomic.Pointer[artifact.Store]

	irMu    sync.Mutex
	irCache map[string]irEntry // guarded by irMu; optimized IR + fingerprint per prefix
	irOrder []string           // guarded by irMu; irCache keys in insertion order (eviction)

	// The Program's own counters (evalCounters declares them). Every
	// sample-charged query resolves to exactly one of cSuccesses, cFaults
	// and cFlagged, so samples = successes + faults + flagged holds at any
	// worker count (the chaos suite's invariant).
	ctr [numCounters]atomic.Int64

	// The quarantine tier: sequences whose compile faulted with a
	// remembered kind (panic forever, deadline until SetLimits). A
	// quarantined sequence is never re-run and never cached as valid;
	// every query of it is re-charged as one sample and one fault, exactly
	// as a failed profile is, so accounting is worker-count invariant.
	quarMu sync.Mutex
	quar   map[string]*EvalFault // guarded by quarMu

	// faultHook (SetFaultHook) observes physical panic/deadline faults;
	// when unset, crash bundles go to the process-wide SetCrashDir sink.
	hookMu    sync.Mutex
	faultHook FaultHook // guarded by hookMu

	bestMu  sync.Mutex
	best    int64 // guarded by bestMu; best cycle count seen since the last reset
	bestSeq []int // guarded by bestMu

	// Sanitizer mode (EnableSanitizer): every compile runs the pass
	// sanitizer; a failing sequence compiles as !ok (the sequence index
	// caches that verdict, and the environment ends the episode with a
	// penalty instead of learning from a corrupted reward) and the first
	// report is retained.
	sanMu     sync.Mutex
	sanReport *passes.SanitizerReport // guarded by sanMu
}

type cacheShard struct {
	mu       sync.RWMutex
	cache    map[string]seqEntry  // guarded by mu
	inflight map[string]*inflight // guarded by mu
}

// seqEntry is one sequence-index record: the fingerprint of the IR the
// sequence produces (profile and features live in the fingerprint store),
// or a cached failure verdict (ok=false, sanitizer-flagged sequences).
type seqEntry struct {
	fp ir.Fingerprint
	ok bool
}

// fpEntry is one fingerprint-store record. The feature vector is pure in
// the IR; the profile verdict also depends on the interpreter limits, so
// SetLimits clears hasProfile and keeps the features. A nil feats is not
// extracted yet. A published vector is shared and must be treated as
// immutable.
type fpEntry struct {
	cycles, area int64
	hasProfile   bool
	feats        []int64
}

// irEntry pairs a cached optimized module with its fingerprint, so prefix
// extension and no-op reuse never re-hash a module already fingerprinted.
type irEntry struct {
	m  *ir.Module
	fp ir.Fingerprint
}

// inflight is one in-progress compilation. Waiters block on done; the
// channel close publishes res and cached to them.
type inflight struct {
	done   chan struct{}
	res    compileResult
	cached bool
}

// irCacheCap bounds the per-program optimized-IR cache; episodes extend
// sequences one pass at a time, so the previous prefix is almost always
// resident and each compile costs one pass application instead of the
// whole sequence. It is a variable only so tests can shrink it.
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

// NewProgram profiles the unoptimized and -O3 baselines and returns the
// wrapped program. The module is cloned; the caller's copy is not touched.
func NewProgram(name string, m *ir.Module) (*Program, error) {
	p := &Program{
		Name:      name,
		orig:      m.Clone(),
		hlsCfg:    hls.DefaultConfig,
		profiler:  hls.NewProfiler(hls.ProfileOptions{}),
		irCache:   make(map[string]irEntry),
		fpEntries: make(map[ir.Fingerprint]*fpEntry),
	}
	if st := defaultArtifacts.Load(); st != nil {
		p.artifacts.Store(st)
		p.profiler.SetArtifacts(st)
	}
	p.origFP = p.orig.Fingerprint()
	for i := range p.shards {
		p.shards[i].cache = make(map[string]seqEntry)
	}
	r0, err := p.profiler.ProfileFP(p.orig, p.origFP)
	if err != nil {
		return nil, fmt.Errorf("core: O0 profile of %s: %w", name, err)
	}
	p.O0Cycles = r0.Cycles
	o3 := p.orig.Clone()
	passes.ApplyO3(o3)
	fp3 := o3.Fingerprint()
	r3, err := p.profiler.ProfileFP(o3, fp3)
	if err != nil {
		return nil, fmt.Errorf("core: O3 profile of %s: %w", name, err)
	}
	p.O3Cycles = r3.Cycles
	// Seed the fingerprint store with the baselines: a search sequence that
	// reproduces the unoptimized or the -O3 IR shares these profiles instead
	// of re-running the profiler.
	p.fpPublish(p.origFP, r0.Cycles, int64(r0.AreaLUT))
	p.fpPublish(fp3, r3.Cycles, int64(r3.AreaLUT))
	return p, nil
}

// Module returns a fresh clone of the original (unoptimized) module.
func (p *Program) Module() *ir.Module { return p.orig.Clone() }

// SetArtifacts attaches (nil detaches) a persistent artifact store to this
// Program and its profiler. Tests use it for explicit stores; production
// wiring goes through SetDefaultArtifacts so the NewProgram baselines warm
// too.
func (p *Program) SetArtifacts(st *artifact.Store) {
	p.artifacts.Store(st)
	p.profiler.SetArtifacts(st)
}

// EnableSanitizer switches every subsequent Compile into sanitized mode:
// after each pass of a sequence the collect-all verifier and the dataflow
// consistency checks run, and a sequence that corrupts the module compiles
// as failed (ok=false) instead of feeding a bogus cycle count into the
// reward. The first failure's delta-minimized report is kept.
func (p *Program) EnableSanitizer() {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	p.sanitize = true
	// Profiles join in: every engine (static, VM, interpreter) runs and
	// must agree bit-for-bit, so a miscompiled reward can't slip through
	// whichever engine happened to answer.
	p.profiler.SetCrossCheck(true)
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
// fixed width keeps the byte-prefix ⟺ sequence-prefix equivalence the IR
// cache's prefix reuse and eviction protection depend on, while indices up
// to 65535 encode without aliasing (byte(s) collapsed 256+i onto i).
func seqKey(seq []int) string {
	b := make([]byte, 2*len(seq))
	for i, s := range seq {
		b[2*i] = byte(s >> 8)
		b[2*i+1] = byte(s)
	}
	return string(b)
}

// shardIndex hashes a sequence key onto a cache shard (FNV-1a).
func shardIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % cacheShards)
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

// resolve materializes a compileResult from a sequence-index entry. It
// fails (second return false) only when the entry went stale — its
// fingerprint-store record lost its profile (SetLimits) — in which case the
// caller recomputes as a miss.
func (p *Program) resolve(e seqEntry) (compileResult, bool) {
	if !e.ok {
		return compileResult{}, true // cached failure verdict
	}
	p.fpMu.Lock()
	defer p.fpMu.Unlock()
	r := p.fpEntries[e.fp]
	if r == nil || !r.hasProfile || r.feats == nil {
		return compileResult{}, false
	}
	return compileResult{cycles: r.cycles, area: r.area, feats: r.feats, fp: e.fp, ok: true}, true
}

// fpProfile returns the stored profile for fp, if there is one.
func (p *Program) fpProfile(fp ir.Fingerprint) (cycles, area int64, ok bool) {
	p.fpMu.Lock()
	defer p.fpMu.Unlock()
	if e := p.fpEntries[fp]; e != nil && e.hasProfile {
		return e.cycles, e.area, true
	}
	return 0, 0, false
}

// fpPublish records a physical profile under fp.
func (p *Program) fpPublish(fp ir.Fingerprint, cycles, area int64) {
	p.fpMu.Lock()
	defer p.fpMu.Unlock()
	e := p.fpRecord(fp)
	e.cycles, e.area, e.hasProfile = cycles, area, true
}

// fpRecord returns fp's record, creating an empty one if there is none.
//
//contractvet:locked fpEntries -- callers hold fpMu
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
	p.fpMu.Lock()
	defer p.fpMu.Unlock()
	if e := p.fpEntries[fp]; e != nil {
		return e.feats
	}
	return nil
}

// fpPutVec publishes v as fp's feature vector and returns the stored one:
// the first published vector wins (extraction is pure, so any copy is the
// right one).
func (p *Program) fpPutVec(fp ir.Fingerprint, v []int64) []int64 {
	p.fpMu.Lock()
	defer p.fpMu.Unlock()
	e := p.fpRecord(fp)
	if e.feats == nil {
		e.feats = v
	}
	return e.feats
}

// compile is the shared memoized entry point: boundary validation, then
// the quarantine gate, then the shard read-lock fast path, then
// singleflight on a miss.
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
	// Quarantine gate: remembered faults short-circuit the compile — the
	// sequence is never re-run — but are re-charged as one sample and one
	// fault per query, mirroring the failed-profile accounting rule.
	if f := p.quarGet(key); f != nil {
		p.ctr[cSamples].Add(1)
		p.ctr[cFaults].Add(1)
		return compileResult{fault: f}
	}
	sh := &p.shards[shardIndex(key)]
	sh.mu.RLock()
	e, hit := sh.cache[key]
	sh.mu.RUnlock()
	if hit {
		if r, ok := p.resolve(e); ok {
			p.ctr[cCacheHits].Add(1)
			return r
		}
	}

	sh.mu.Lock()
	if e, hit := sh.cache[key]; hit {
		if r, ok := p.resolve(e); ok {
			sh.mu.Unlock()
			p.ctr[cCacheHits].Add(1)
			return r
		}
		// Stale index entry (fingerprint store cleared under it): drop it
		// and recompute through the singleflight path.
		delete(sh.cache, key)
	}
	if fl, busy := sh.inflight[key]; busy {
		sh.mu.Unlock()
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
	if sh.inflight == nil {
		sh.inflight = make(map[string]*inflight)
	}
	sh.inflight[key] = fl
	sh.mu.Unlock()

	res, cacheable := p.compileGuarded(seq, key)

	sh.mu.Lock()
	if cacheable {
		sh.cache[key] = seqEntry{fp: res.fp, ok: res.ok}
	}
	delete(sh.inflight, key)
	sh.mu.Unlock()
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
		p.quarMu.Lock()
		if p.quar == nil {
			p.quar = make(map[string]*EvalFault)
		}
		p.quar[key] = f
		p.quarMu.Unlock()
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

// quarGet returns the remembered fault for key, or nil.
func (p *Program) quarGet(key string) *EvalFault {
	p.quarMu.Lock()
	defer p.quarMu.Unlock()
	return p.quar[key]
}

// IsQuarantined reports whether seq is quarantined, and with which fault.
func (p *Program) IsQuarantined(seq []int) (*EvalFault, bool) {
	f := p.quarGet(seqKey(seq))
	return f, f != nil
}

// QuarantineCount returns the number of quarantined sequences.
func (p *Program) QuarantineCount() int {
	p.quarMu.Lock()
	defer p.quarMu.Unlock()
	return len(p.quar)
}

// SetFaultHook routes physical panic/deadline-class faults to h instead of
// the SetCrashDir sink. A nil h restores the default.
func (p *Program) SetFaultHook(h FaultHook) {
	p.hookMu.Lock()
	p.faultHook = h
	p.hookMu.Unlock()
}

// IRText returns the textual IR of the unoptimized module — what a custom
// FaultHook embeds in its own crash bundles.
func (p *Program) IRText() string { return p.orig.String() }

// compileMiss does the uncached work — build the optimized IR, then either
// share an existing profile by fingerprint or physically profile — outside
// any shard lock, so misses on different sequences run in parallel. Each
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
	rep, pfault := p.profileSafe(m, fp, seq)
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
// none. Panics inside scheduling, the interpreter or the static estimator
// become panic-class faults.
func (p *Program) profileSafe(m *ir.Module, fp ir.Fingerprint, seq []int) (*hls.Report, *EvalFault) {
	rep, err, fault := p.profileRecover(m, fp, seq)
	if fault != nil {
		return nil, fault
	}
	if err != nil && errors.Is(err, interp.ErrDeadline) {
		p.ctr[cRetries].Add(1)
		rep, err, fault = p.profileRecover(m, fp, seq)
		if fault != nil {
			return nil, fault
		}
	}
	if err != nil {
		return nil, classifyProfileErr(err, p.Name, seq)
	}
	return rep, nil
}

func (p *Program) profileRecover(m *ir.Module, fp ir.Fingerprint, seq []int) (rep *hls.Report, err error, fault *EvalFault) {
	defer func() {
		if v := recover(); v != nil {
			rep, err = nil, nil
			fault = newPanicFault(v, "profile", p.Name, seq)
		}
	}()
	rep, err = p.profiler.ProfileFP(m, fp)
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
// reusing the longest cached prefix so that sequence extensions apply only
// the new suffix. The suffix runs on a copy-on-write clone of the cached
// base, so passes deep-copy only the functions they rewrite — and a suffix
// that changes nothing reuses the base module and its fingerprint outright
// (no clone, no re-hash, counted in NoopIR). Cached modules are immutable
// once published, so the apply work runs outside the cache lock. Callers
// hold cfgMu for read and pass the sanitize flag down to avoid
// re-acquiring it. ok=false means the sanitizer flagged the sequence; the
// returned module is the corrupted evidence and the fingerprint is zero.
func (p *Program) buildIR(seq []int, key string, sanitize bool) (_ *ir.Module, _ ir.Fingerprint, ok bool) {
	p.irMu.Lock()
	if e, hit := p.irCache[key]; hit {
		p.irMu.Unlock()
		return e.m, e.fp, true
	}
	// Longest cached prefix (the empty prefix is the original program).
	start := 0
	base := irEntry{m: p.orig, fp: p.origFP}
	for i := len(seq) - 1; i > 0; i-- {
		if e, hit := p.irCache[key[:2*i]]; hit {
			base, start = e, i
			break
		}
	}
	p.irMu.Unlock()

	if sanitize {
		// The sanitizer's verifiers renumber instructions and replay
		// prefixes, so this path works on a deep clone, never shares, and
		// always re-derives the fingerprint.
		m := base.m.Clone()
		pm := passes.NewManager()
		pm.Sanitize = true
		pm.Apply(m, seq[start:])
		if rep := pm.SanitizerReport(); rep != nil {
			p.sanMu.Lock()
			if p.sanReport == nil {
				p.sanReport = rep
			}
			p.sanMu.Unlock()
			// Do not cache the corrupted module: extensions of this
			// sequence must re-derive (and re-flag) from a clean prefix.
			return m, ir.Fingerprint{}, false
		}
		fp := m.Fingerprint()
		p.irMu.Lock()
		p.irCachePut(key, irEntry{m: m, fp: fp})
		p.irMu.Unlock()
		return m, fp, true
	}

	m, changed := passes.RunSequence(base.m, seq[start:])
	fp := base.fp
	if changed {
		fp = m.Fingerprint()
	} else {
		p.ctr[cNoopIR].Add(1)
	}
	p.irMu.Lock()
	p.irCachePut(key, irEntry{m: m, fp: fp})
	p.irMu.Unlock()
	return m, fp, true
}

// irCachePut inserts key into the bounded IR cache, evicting the oldest
// entries first but never a strict prefix of key: episodes extend one
// sequence a pass at a time, and evicting the active episode's own prefix
// chain would force every subsequent step to recompile from scratch.
//
//contractvet:locked irCache,irOrder -- callers hold irMu
func (p *Program) irCachePut(key string, e irEntry) {
	if _, ok := p.irCache[key]; !ok {
		for len(p.irCache) >= irCacheCap {
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
			delete(p.irCache, p.irOrder[victim])
			p.irOrder = append(p.irOrder[:victim], p.irOrder[victim+1:]...)
		}
		p.irOrder = append(p.irOrder, key)
	}
	p.irCache[key] = e
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
		for i := range p.shards {
			sh := &p.shards[i]
			sh.mu.Lock()
			sh.cache = make(map[string]seqEntry)
			sh.mu.Unlock()
		}
		p.irMu.Lock()
		p.irCache = make(map[string]irEntry)
		p.irOrder = nil
		p.irMu.Unlock()
		p.fpMu.Lock()
		p.fpEntries = make(map[ir.Fingerprint]*fpEntry)
		p.fpMu.Unlock()
		p.quarMu.Lock()
		p.quar = nil
		p.quarMu.Unlock()
	}
}

// SetEngine pins the profiler backend used by subsequent profiles
// (hls.EngineAuto restores the static → VM → interpreter cascade). Caches
// survive an engine switch: all engines produce bit-identical reports
// wherever they overlap, which is exactly the contract the sanitizer's
// cross-check mode enforces.
func (p *Program) SetEngine(e hls.Engine) {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	p.profiler.SetEngine(e)
}

// Engine returns the current profiler backend policy.
func (p *Program) Engine() hls.Engine { return p.profiler.Engine() }

// SetLimits replaces the interpreter limits used by subsequent profiles and
// drops the memoized compile results, whose success verdicts depend on the
// limits: the sequence index is cleared and every fingerprint-store record
// loses its profile verdict. The optimized-IR cache and the records' feature
// vectors are kept: IR and features do not depend on the limits.
func (p *Program) SetLimits(lim interp.Limits) {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	p.profiler.SetLimits(lim)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.cache = make(map[string]seqEntry)
		sh.mu.Unlock()
	}
	p.fpMu.Lock()
	for _, e := range p.fpEntries {
		e.hasProfile = false
	}
	p.fpMu.Unlock()
	// Deadline-class quarantine verdicts depend on the limits, so new
	// limits grant those sequences a fresh trial. Panic-class entries stay:
	// a panicking pass panics under any limit.
	p.quarMu.Lock()
	for k, f := range p.quar {
		if f.Kind == FaultDeadline {
			delete(p.quar, k)
		}
	}
	p.quarMu.Unlock()
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
	// Engine pins the profiler backend (hls.EngineStatic, hls.EngineVM,
	// hls.EngineInterp); the zero value hls.EngineAuto keeps the default
	// static → VM → interpreter cascade. All engines are bit-identical
	// where they overlap, so this trades speed, not results.
	Engine hls.Engine
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
	key := seqKey(seq)
	if passes.CheckSeq(seq) != nil || p.quarGet(key) != nil {
		return make([]int64, n)
	}
	sh := &p.shards[shardIndex(key)]
	sh.mu.RLock()
	e, hit := sh.cache[key]
	sh.mu.RUnlock()
	if hit && e.ok {
		if v := p.fpVec(e.fp); v != nil {
			return v
		}
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
	v, fault := p.extractSafe(m, fp, seq)
	if fault != nil {
		return make([]int64, n)
	}
	return v
}
