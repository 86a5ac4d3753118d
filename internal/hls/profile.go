package hls

import (
	"fmt"

	"autophase/internal/interp"
	"autophase/internal/ir"
)

// Report is the clock-cycle profiler's estimate for one module, combining
// the static schedule with the dynamic block-frequency profile — the LegUp
// fast profiler's cycles = Σ states(b)·count(b) formula.
type Report struct {
	Cycles  int64 // estimated total clock cycles of the circuit
	AreaLUT int   // functional-unit area estimate
	Steps   int   // interpreter steps (software-trace length)
	Exit    int64 // program exit value (for validation)
	// Engine records which backend produced the report (EngineStatic,
	// EngineVM or EngineInterp). Under CrossCheck it is EngineStatic when
	// the static estimator answered and agreed, otherwise the engine
	// EngineAuto would have chosen. On reports from a pinned EngineStatic
	// profiler, derived by the SCEV-based static estimator, Exit is only
	// populated when the return value is itself statically determined.
	Engine Engine
	// Stored marks a report the artifact store answered with no engine
	// run; Engine then names the engine that produced the stored record.
	Stored bool
}

// interpProfile is the interpreter engine: it returns the raw interp.Result
// alongside the report so the cross-check can compare print traces.
func interpProfile(m *ir.Module, cfg Config, lim interp.Limits) (*Report, *interp.Result, error) {
	sched := Schedule(m, cfg)
	res, err := interp.Run(m, lim)
	if err != nil {
		return nil, nil, fmt.Errorf("hls profile: %w", err)
	}
	var cycles int64
	for b, n := range res.Blocks {
		cycles += n * int64(sched.StatesOf(b))
	}
	// Burst memset engine: one cycle per cell beyond the issue state.
	cycles += res.MemsetCells
	// Return handshake per call.
	for _, n := range res.Calls {
		cycles += n
	}
	return &Report{
		Cycles:  cycles,
		AreaLUT: sched.Area(),
		Steps:   res.Steps,
		Exit:    res.Exit,
		Engine:  EngineInterp,
	}, res, nil
}
