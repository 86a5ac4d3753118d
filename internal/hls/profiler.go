package hls

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"autophase/internal/artifact"
	"autophase/internal/faults"
	"autophase/internal/interp"
	"autophase/internal/ir"
	"autophase/internal/vm"
)

// Engine selects which profiling backend answers a Profile call.
type Engine int

// The profiling engines. EngineAuto is the production policy: the bytecode
// VM when the module lowers, the tree-walking interpreter otherwise. The
// other values pin one engine for reference tests and benchmarks; a pinned
// engine that cannot handle the module fails with ErrEngineDeclined instead
// of falling back. EngineStatic, the SCEV static estimator, is reachable
// only pinned and in CrossCheck (DESIGN "No static estimator on the reward
// path").
const (
	EngineAuto Engine = iota
	EngineStatic
	EngineVM
	EngineInterp
)

var engineNames = [...]string{"auto", "static", "vm", "interp"}

// String returns the engine's name ("auto", "static", "vm", "interp").
func (e Engine) String() string {
	if e >= 0 && int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("hls.Engine(%d)", int(e))
}

// ErrEngineDeclined reports that a pinned engine cannot handle the module
// (EngineStatic on a module outside the static fragment, EngineVM on a
// module the lowerer declines). EngineAuto never returns it.
var ErrEngineDeclined = errors.New("hls: pinned engine declined the module")

// ProfileOptions configures a Profiler. The zero value means: paper-default
// synthesis constraints, default interpreter limits, automatic engine
// selection, no cross-checking.
type ProfileOptions struct {
	// Config sets the synthesis constraints; the zero value means
	// DefaultConfig.
	Config Config
	// Limits bound each profile execution; the zero value means
	// interp.DefaultLimits.
	Limits interp.Limits
	// Engine pins a profiling backend; EngineAuto (the zero value) selects
	// VM → interpreter per module.
	Engine Engine
	// CrossCheck runs every applicable engine on every profile and errors
	// on any cycle/step/exit/trace disagreement (the sanitizer mode).
	CrossCheck bool
}

// Profiler is the unified profiling surface: one object owning the
// synthesis config, the execution limits and the engine policy.
//
// A Profiler is safe for concurrent use. The synthesis config and the
// engine are fixed at construction (both are part of every stored
// profile's key); limits and cross-check mode may be changed at runtime.
type Profiler struct {
	cfg    Config
	cfgKey uint64 // artifact.HashString of the rendered config
	engine Engine

	mu     sync.RWMutex
	lim    interp.Limits   // guarded by mu
	check  bool            // guarded by mu
	store  *artifact.Store // guarded by mu; nil = no persistence
	limKey uint64          // guarded by mu; limitsKey(lim)

	staticHits atomic.Int64
	vmHits     atomic.Int64
	interpHits atomic.Int64
	diskHits   atomic.Int64
}

// ProfilerStats counts which engine answered successful profiles, and the
// profiles the artifact store answered with no engine running. The store
// keeps its own counters (artifact.Stats).
type ProfilerStats struct {
	StaticHits int64
	VMHits     int64
	InterpHits int64
	DiskHits   int64
}

// NewProfiler builds a Profiler from opts (zero-value fields take the
// documented defaults).
func NewProfiler(opts ProfileOptions) *Profiler {
	if opts.Config == (Config{}) {
		opts.Config = DefaultConfig
	}
	if opts.Limits == (interp.Limits{}) {
		opts.Limits = interp.DefaultLimits
	}
	return &Profiler{
		cfg:    opts.Config,
		cfgKey: artifact.HashString(fmt.Sprintf("%#v", opts.Config)),
		lim:    opts.Limits,
		limKey: limitsKey(opts.Limits),
		engine: opts.Engine,
		check:  opts.CrossCheck,
	}
}

// SetArtifacts attaches (or with nil detaches) a persistent artifact store
// as the read-through/write-behind tier beneath this profiler: profile
// verdicts for previously seen (fingerprint, config, limits, engine-policy)
// keys are answered from disk without running any engine. The bit-identical
// contract is preserved by construction — every stored value is a pure
// function of its key, errors are never persisted, and the sanitizer
// (CrossCheck) mode bypasses the store entirely.
func (p *Profiler) SetArtifacts(st *artifact.Store) {
	p.mu.Lock()
	p.store = st
	p.mu.Unlock()
}

// Config returns the synthesis constraints the profiler was built with.
func (p *Profiler) Config() Config { return p.cfg }

// Limits returns the current execution limits.
func (p *Profiler) Limits() interp.Limits {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.lim
}

// SetLimits replaces the execution limits for subsequent profiles.
func (p *Profiler) SetLimits(lim interp.Limits) {
	p.mu.Lock()
	p.lim = lim
	p.limKey = limitsKey(lim)
	p.mu.Unlock()
}

// limitsKey hashes the limits a stored profile depends on. The wall-clock
// Deadline is left out: it can only turn a success into an error, and
// errors are never persisted, so a stored profile holds under any
// deadline. Keying on it would make every per-job deadline (as serve
// sets them) miss the store.
func limitsKey(lim interp.Limits) uint64 {
	lim.Deadline = 0
	return artifact.HashString(fmt.Sprintf("%#v", lim))
}

// SetCrossCheck toggles the run-every-engine sanitizer mode.
func (p *Profiler) SetCrossCheck(on bool) {
	p.mu.Lock()
	p.check = on
	p.mu.Unlock()
}

// Stats snapshots the per-engine success counters and the disk hits.
func (p *Profiler) Stats() ProfilerStats {
	return ProfilerStats{
		StaticHits: p.staticHits.Load(),
		VMHits:     p.vmHits.Load(),
		InterpHits: p.interpHits.Load(),
		DiskHits:   p.diskHits.Load(),
	}
}

// Profile estimates the clock-cycle count of the circuit synthesized from
// m, dispatching to the configured engine. Errors mean the program failed
// to execute (trap, limit) or — under CrossCheck — that two engines
// disagreed; search drivers treat both as invalid candidates.
func (p *Profiler) Profile(m *ir.Module) (*Report, error) {
	return p.profile(m, ir.Fingerprint{}, false)
}

// ProfileFP is Profile for callers that already hold m's fingerprint (the
// compile cache does). The fingerprint only keys the artifact store, so
// with no store attached it goes unused; with one it spares a re-hash.
func (p *Profiler) ProfileFP(m *ir.Module, fp ir.Fingerprint) (*Report, error) {
	return p.profile(m, fp, true)
}

// profile carries the profile-err fault-injection point: one draw per
// profile operation, regardless of which engine answers.
func (p *Profiler) profile(m *ir.Module, fp ir.Fingerprint, haveFP bool) (*Report, error) {
	if err := faults.Fail(faults.ProfileErr); err != nil {
		return nil, fmt.Errorf("hls profile: %w", err)
	}
	p.mu.RLock()
	lim, check := p.lim, p.check
	store, limKey := p.store, p.limKey
	p.mu.RUnlock()
	if check {
		// The sanitizer's whole point is running the engines; disk results
		// would defeat it. (The fault-injection draw above already happened,
		// so draw streams are identical with and without a store.)
		return p.crossProfile(m, lim)
	}
	var diskKey artifact.Key
	if store != nil {
		if !haveFP {
			fp = m.Fingerprint()
		}
		// The engine is part of the key: a pinned engine must see exactly
		// the profiles (and the declines-as-errors) it would compute itself,
		// so records written under one engine never answer another.
		diskKey = artifact.Key{
			FP:   fp,
			Kind: artifact.KindProfile,
			Aux:  artifact.MixAux(p.cfgKey, limKey, uint64(p.engine)),
		}
		if data, ok := store.Get(diskKey); ok {
			if rep, ok := decodeReport(data); ok {
				p.diskHits.Add(1)
				return rep, nil
			}
			store.NoteCorrupt(diskKey)
		}
	}
	rep, err := p.runEngine(m, lim)
	if err == nil && store != nil {
		// Only successes persist: an error is not a pure function of the key
		// in any way the store should vouch for (and declines must re-decline
		// live so a pinned engine behaves identically warm and cold).
		store.Put(diskKey, encodeReport(rep))
	}
	return rep, err
}

// runEngine dispatches one profile to the profiler's engine (the live,
// non-disk path).
func (p *Profiler) runEngine(m *ir.Module, lim interp.Limits) (*Report, error) {
	switch p.engine {
	case EngineStatic:
		rep, ok := StaticProfile(m, p.cfg, lim)
		if !ok {
			return nil, fmt.Errorf("hls profile: %w: static", ErrEngineDeclined)
		}
		p.staticHits.Add(1)
		return rep, nil
	case EngineVM, EngineAuto:
		prog, err := lowerModule(m, p.cfg)
		if err == nil {
			// A VM runtime error is a property of the program (trap,
			// limit), not of the engine: the interpreter would fail the
			// same way, so there is no fallback past this point.
			rep, err := runVM(prog, lim)
			if err == nil {
				p.vmHits.Add(1)
			}
			return rep, err
		}
		if p.engine == EngineVM {
			return nil, fmt.Errorf("hls profile: %w: %v", ErrEngineDeclined, err)
		}
	}
	// EngineInterp, and EngineAuto on a module the lowerer declines.
	rep, _, err := interpProfile(m, p.cfg, lim)
	if err == nil {
		p.interpHits.Add(1)
	}
	return rep, err
}

// The profile-record payload: four little-endian i64s (cycles, area,
// steps, exit), a static flag (1 exactly when the engine is EngineStatic)
// and the producing engine. 34 bytes, no framing of its own (the store's
// record checksum covers it); any other length, or a flag that disagrees
// with the engine, is corruption.
const reportRecLen = 34

func encodeReport(rep *Report) []byte {
	buf := make([]byte, reportRecLen)
	binary.LittleEndian.PutUint64(buf[0:], uint64(rep.Cycles))
	binary.LittleEndian.PutUint64(buf[8:], uint64(rep.AreaLUT))
	binary.LittleEndian.PutUint64(buf[16:], uint64(rep.Steps))
	binary.LittleEndian.PutUint64(buf[24:], uint64(rep.Exit))
	if rep.Engine == EngineStatic {
		buf[32] = 1
	}
	buf[33] = byte(rep.Engine)
	return buf
}

func decodeReport(data []byte) (*Report, bool) {
	if len(data) != reportRecLen || data[32] > 1 || data[33] > byte(EngineInterp) ||
		(data[32] == 1) != (Engine(data[33]) == EngineStatic) {
		return nil, false
	}
	return &Report{
		Cycles:  int64(binary.LittleEndian.Uint64(data[0:])),
		AreaLUT: int(binary.LittleEndian.Uint64(data[8:])),
		Steps:   int(binary.LittleEndian.Uint64(data[16:])),
		Exit:    int64(binary.LittleEndian.Uint64(data[24:])),
		Engine:  Engine(data[33]),
	}, true
}

// lowerModule schedules m under cfg and folds the per-block FSM state
// counts into the lowered instruction stream, so executing the program IS
// computing the profile.
func lowerModule(m *ir.Module, cfg Config) (*vm.Program, error) {
	sched := Schedule(m, cfg)
	prog, err := vm.Lower(m, sched.StatesOf)
	if err != nil {
		return nil, err
	}
	if err := vm.Verify(prog); err != nil {
		return nil, err
	}
	prog.Area = sched.Area()
	return prog, nil
}

// runVM executes a lowered program; its Cycles counter already carries the
// full estimate (folded block weights + memset cells + call handshakes).
func runVM(prog *vm.Program, lim interp.Limits) (*Report, error) {
	res, err := vm.Run(prog, lim)
	if err != nil {
		return nil, fmt.Errorf("hls profile: %w", err)
	}
	return &Report{
		Cycles:  res.Cycles,
		AreaLUT: prog.Area,
		Steps:   res.Steps,
		Exit:    res.Exit,
		Engine:  EngineVM,
	}, nil
}

// interpErrClasses are the interpreter's sentinel errors, shared by the VM;
// under CrossCheck two failing engines must fail in the same class.
var interpErrClasses = []error{
	interp.ErrStepLimit,
	interp.ErrDepthLimit,
	interp.ErrMemLimit,
	interp.ErrDivByZero,
	interp.ErrOOB,
	interp.ErrNoMain,
	interp.ErrUnreach,
	interp.ErrDeadline,
}

func sameErrClass(a, b error) bool {
	for _, cls := range interpErrClasses {
		if errors.Is(a, cls) != errors.Is(b, cls) {
			return false
		}
	}
	return true
}

// crossProfile runs all three engines and errors on any divergence: the
// interpreter is ground truth, the VM must match it on cycles, steps, exit
// value, print trace, and error class, and the static estimator, wherever
// it answers, must match its cycles and steps. The returned report is the
// interpreter's, tagged EngineStatic when the static estimator answered
// and agreed, otherwise with the engine EngineAuto would have chosen; the
// tag picks the hit counter the profile is charged to.
func (p *Profiler) crossProfile(m *ir.Module, lim interp.Limits) (*Report, error) {
	static, sok := StaticProfile(m, p.cfg, lim)

	var (
		vmRes *vm.Result
		vmErr error
		vmOK  bool // module lowered; the VM engine applies
	)
	if prog, lerr := lowerModule(m, p.cfg); lerr == nil {
		vmOK = true
		vmRes, vmErr = vm.Run(prog, lim)
	}

	rep, ires, err := interpProfile(m, p.cfg, lim)

	if vmOK {
		switch {
		case vmErr == nil && err == nil:
			if vmRes.Cycles != rep.Cycles || vmRes.Steps != rep.Steps ||
				vmRes.Exit != rep.Exit || !traceEqual(vmRes.Trace, ires.Trace) {
				return rep, fmt.Errorf("hls vm profile: cycles %d / steps %d / exit %d, interpreter got cycles %d / steps %d / exit %d",
					vmRes.Cycles, vmRes.Steps, vmRes.Exit, rep.Cycles, rep.Steps, rep.Exit)
			}
		case vmErr == nil && err != nil:
			return rep, fmt.Errorf("hls vm profile: succeeded but interpreter failed: %w", err)
		case vmErr != nil && err == nil:
			return rep, fmt.Errorf("hls vm profile: failed (%v) but interpreter succeeded", vmErr)
		default:
			if !sameErrClass(vmErr, err) {
				return rep, fmt.Errorf("hls vm profile: error %v, interpreter error %v", vmErr, err)
			}
		}
	}

	if !sok {
		if err != nil {
			return rep, err
		}
		if vmOK {
			rep.Engine = EngineVM
			p.vmHits.Add(1)
		} else {
			rep.Engine = EngineInterp
			p.interpHits.Add(1)
		}
		return rep, nil
	}
	if err != nil {
		return rep, fmt.Errorf("hls static profile: claimed success but interpreter failed: %w", err)
	}
	if static.Cycles != rep.Cycles || static.Steps != rep.Steps {
		return rep, fmt.Errorf("hls static profile: cycles %d / steps %d, interpreter got cycles %d / steps %d",
			static.Cycles, static.Steps, rep.Cycles, rep.Steps)
	}
	rep.Engine = EngineStatic
	p.staticHits.Add(1)
	return rep, nil
}

func traceEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
