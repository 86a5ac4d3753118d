package hls

import (
	"encoding/binary"
	"errors"
	"fmt"

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
// selection, no cross-checking, no persistence.
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
	// Store, when set, is the read-through/write-behind tier beneath the
	// profiler: profiles for previously seen (fingerprint, config, limits,
	// engine-policy) keys are answered from disk without running any
	// engine, and fresh successes are written behind. The bit-identical
	// contract holds by construction: every stored value is a pure function
	// of its key, errors are never persisted, and CrossCheck bypasses the
	// store entirely.
	Store *artifact.Store
}

// Profiler is the unified profiling surface: one object owning the
// synthesis config, the execution limits, the engine policy and the
// optional store. It is a fixed function of the ProfileOptions it was
// built with and holds no mutable state, so it is safe for concurrent use;
// a caller that wants other options builds another Profiler.
type Profiler struct {
	cfg    Config
	lim    interp.Limits
	engine Engine
	check  bool
	store  *artifact.Store
	aux    uint64 // the stored-profile key's Aux (config, limits, engine); set only with a store
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
	p := &Profiler{
		cfg:    opts.Config,
		lim:    opts.Limits,
		engine: opts.Engine,
		check:  opts.CrossCheck,
		store:  opts.Store,
	}
	if p.store != nil {
		// The engine is part of the key: a pinned engine must see exactly
		// the profiles (and the declines-as-errors) it would compute itself,
		// so records written under one engine never answer another.
		p.aux = artifact.MixAux(artifact.HashString(fmt.Sprintf("%#v", p.cfg)),
			limitsKey(p.lim), uint64(p.engine))
	}
	return p
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
	if p.check {
		// The sanitizer's whole point is running the engines; disk results
		// would defeat it. (The fault-injection draw above already happened,
		// so draw streams are identical with and without a store.)
		return p.crossProfile(m)
	}
	if p.store == nil {
		return p.runEngine(m)
	}
	if !haveFP {
		fp = m.Fingerprint()
	}
	key := artifact.Key{FP: fp, Kind: artifact.KindProfile, Aux: p.aux}
	if data, ok := p.store.Get(key); ok {
		if rep, ok := decodeReport(data); ok {
			rep.Stored = true
			return rep, nil
		}
		p.store.NoteCorrupt(key)
	}
	rep, err := p.runEngine(m)
	if err == nil {
		// Only successes persist: an error is not a pure function of the key
		// in any way the store should vouch for (and declines must re-decline
		// live so a pinned engine behaves identically warm and cold).
		p.store.Put(key, encodeReport(rep))
	}
	return rep, err
}

// runEngine dispatches one profile to the profiler's engine (the live,
// non-disk path).
func (p *Profiler) runEngine(m *ir.Module) (*Report, error) {
	switch p.engine {
	case EngineStatic:
		rep, ok := StaticProfile(m, p.cfg, p.lim)
		if !ok {
			return nil, fmt.Errorf("hls profile: %w: static", ErrEngineDeclined)
		}
		return rep, nil
	case EngineVM, EngineAuto:
		prog, err := lowerModule(m, p.cfg)
		if err == nil {
			// A VM runtime error is a property of the program (trap,
			// limit), not of the engine: the interpreter would fail the
			// same way, so there is no fallback past this point.
			return runVM(prog, p.lim)
		}
		if p.engine == EngineVM {
			return nil, fmt.Errorf("hls profile: %w: %v", ErrEngineDeclined, err)
		}
	}
	// EngineInterp, and EngineAuto on a module the lowerer declines.
	rep, _, err := interpProfile(m, p.cfg, p.lim)
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
// and agreed, otherwise with the engine EngineAuto would have chosen.
func (p *Profiler) crossProfile(m *ir.Module) (*Report, error) {
	static, sok := StaticProfile(m, p.cfg, p.lim)

	var (
		vmRes *vm.Result
		vmErr error
		vmOK  bool // module lowered; the VM engine applies
	)
	if prog, lerr := lowerModule(m, p.cfg); lerr == nil {
		vmOK = true
		vmRes, vmErr = vm.Run(prog, p.lim)
	}

	rep, ires, err := interpProfile(m, p.cfg, p.lim)

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
