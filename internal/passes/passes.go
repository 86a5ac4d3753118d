// Package passes implements the 46 LLVM transform passes of the paper's
// Table 1 over the project's IR, plus the pass manager and the -O0/-O3
// reference pipelines the evaluation compares against.
//
// Each pass performs the transformation its LLVM namesake is known for, at
// the fidelity the phase-ordering problem needs: passes enable and disable
// one another (mem2reg unlocks the scalar optimizations, loop-rotate enables
// loop-unroll, functionattrs enables licm/gvn call hoisting), which is what
// makes ordering matter.
package passes

import (
	"errors"
	"fmt"
	"runtime/debug"

	"autophase/internal/faults"
	"autophase/internal/ir"
)

// Pass is a module transformation.
type Pass interface {
	// Name returns the LLVM-style flag name, e.g. "-mem2reg".
	Name() string
	// Run applies the pass, reporting whether anything changed. The report
	// is a contract, not a hint: Run must return true whenever it mutated
	// the module, because the engine reuses the input module (and its
	// fingerprint) outright for runs reported unchanged.
	Run(m *ir.Module) bool
}

// funcPass adapts a per-function transformation into a Pass. The optional
// scan is a read-only no-op predicate: scan(f)==false guarantees run(f)
// would return false without mutating f, letting Run skip the function —
// and, on copy-on-write modules, skip the scratch clone — entirely.
type funcPass struct {
	name string
	run  func(*ir.Func) bool
	scan func(*ir.Func) bool
}

func (p funcPass) Name() string { return p.name }

func (p funcPass) Run(m *ir.Module) bool {
	changed := false
	for _, f := range m.Funcs {
		if p.scan != nil && !p.scan(f) {
			continue
		}
		if m.RunOwned(f, p.run) {
			changed = true
		}
	}
	return changed
}

// modPass adapts a whole-module transformation into a Pass. Module passes
// walk and rewrite arbitrary functions, so on a copy-on-write module the
// whole module is materialized first — unless the optional read-only scan
// proves the run would be a no-op.
type modPass struct {
	name string
	run  func(*ir.Module) bool
	scan func(*ir.Module) bool
}

func (p modPass) Name() string { return p.name }

func (p modPass) Run(m *ir.Module) bool {
	if p.scan != nil && !p.scan(m) {
		return false
	}
	m.MaterializeAll()
	return p.run(m)
}

// NumPasses is the number of Table 1 entries (indices 0–45; index 45,
// -terminate, is the episode-ending sentinel).
const NumPasses = 46

// NumActions is K, the number of selectable transform passes in the RL
// action space (§5.1). Index 45 (-terminate) is excluded.
const NumActions = 45

// TerminateIndex is the sentinel pass index ending an episode.
const TerminateIndex = 45

// table1 is the pass registry by paper index; -terminate is the identity.
// Passes whose no-op condition is decidable by a cheap read-only scan carry
// one (see scan.go); every scan must be sound — scan false means the pass
// provably would not change the module.
var table1 = [NumPasses]Pass{
	0:  funcPass{name: "-correlated-propagation", run: correlatedPropagation},
	1:  funcPass{name: "-scalarrepl", run: scalarRepl, scan: hasAlloca},
	2:  funcPass{name: "-lowerinvoke", run: lowerInvoke, scan: scanNever},
	3:  modPass{name: "-strip", run: strip, scan: scanStrip},
	4:  modPass{name: "-strip-nondebug", run: stripNonDebug, scan: scanNamedBlocks},
	5:  funcPass{name: "-sccp", run: sccp},
	6:  modPass{name: "-globalopt", run: globalOpt},
	7:  funcPass{name: "-gvn", run: gvn},
	8:  funcPass{name: "-jump-threading", run: jumpThreading},
	9:  modPass{name: "-globaldce", run: globalDCE},
	10: funcPass{name: "-loop-unswitch", run: loopUnswitch},
	11: funcPass{name: "-scalarrepl-ssa", run: scalarReplSSA, scan: hasAlloca},
	12: funcPass{name: "-loop-reduce", run: loopReduce},
	13: funcPass{name: "-break-crit-edges", run: breakCritEdges, scan: hasCriticalEdge},
	14: funcPass{name: "-loop-deletion", run: loopDeletion},
	15: funcPass{name: "-reassociate", run: reassociate},
	16: funcPass{name: "-lcssa", run: lcssa},
	17: funcPass{name: "-codegenprepare", run: codegenPrepare},
	18: funcPass{name: "-memcpyopt", run: memcpyOpt, scan: hasStore},
	19: modPass{name: "-functionattrs", run: functionAttrs, scan: scanFunctionAttrs},
	20: funcPass{name: "-loop-idiom", run: loopIdiom},
	21: funcPass{name: "-lowerswitch", run: lowerSwitch, scan: hasSwitch},
	22: modPass{name: "-constmerge", run: constMerge, scan: scanConstMerge},
	23: funcPass{name: "-loop-rotate", run: loopRotate},
	24: modPass{name: "-partial-inliner", run: partialInliner, scan: scanAnyCall},
	25: modPass{name: "-inline", run: inline, scan: scanAnyCall},
	26: funcPass{name: "-early-cse", run: earlyCSE},
	27: funcPass{name: "-indvars", run: indvars},
	28: funcPass{name: "-adce", run: adce},
	29: funcPass{name: "-loop-simplify", run: loopSimplify},
	30: funcPass{name: "-instcombine", run: instCombine},
	31: funcPass{name: "-simplifycfg", run: simplifyCFG},
	32: funcPass{name: "-dse", run: dse, scan: hasStoreOrMemset},
	33: funcPass{name: "-loop-unroll", run: loopUnroll},
	34: funcPass{name: "-lower-expect", run: lowerExpect, scan: hasBranchWeight},
	35: funcPass{name: "-tailcallelim", run: tailCallElim, scan: hasSelfCall},
	36: funcPass{name: "-licm", run: licm},
	37: funcPass{name: "-sink", run: sink},
	38: funcPass{name: "-mem2reg", run: mem2reg, scan: hasAlloca},
	39: funcPass{name: "-prune-eh", run: pruneEH, scan: hasUnreachableBlock},
	40: modPass{name: "-functionattrs", run: functionAttrs, scan: scanFunctionAttrs},
	41: modPass{name: "-ipsccp", run: ipsccp},
	42: modPass{name: "-deadargelim", run: deadArgElim, scan: scanDeadArgElim},
	43: funcPass{name: "-sroa", run: sroa},
	44: funcPass{name: "-loweratomic", run: lowerAtomic, scan: scanNever},
	45: modPass{name: "-terminate", run: func(*ir.Module) bool { return false },
		scan: func(*ir.Module) bool { return false }},
}

// Table1Names lists the pass flag names by paper index.
var Table1Names = func() (names [NumPasses]string) {
	for i, p := range table1 {
		names[i] = p.Name()
	}
	return names
}()

// ByIndex returns the pass at the given Table 1 index.
func ByIndex(i int) Pass {
	if i < 0 || i >= NumPasses {
		panic(fmt.Sprintf("passes: invalid index %d", i))
	}
	return table1[i]
}

// ErrInvalidPass reports a pass index outside Table 1. Callers handing
// externally supplied sequences to the engine (CLI flags, crash bundles,
// agent files) must validate through CheckSeq and surface this error; the
// panic inside ByIndex remains as an internal invariant only, behind the
// evaluation engine's containment boundary.
var ErrInvalidPass = errors.New("passes: invalid pass index")

// CheckIndex validates one Table 1 pass index.
func CheckIndex(i int) error {
	if i < 0 || i >= NumPasses {
		return fmt.Errorf("%w: %d (valid range 0..%d)", ErrInvalidPass, i, NumPasses-1)
	}
	return nil
}

// CheckSeq validates every index of a pass sequence.
func CheckSeq(seq []int) error {
	for _, i := range seq {
		if err := CheckIndex(i); err != nil {
			return err
		}
	}
	return nil
}

// ByName constructs a pass from its flag name (with or without the dash).
func ByName(name string) (Pass, error) {
	if name == "" {
		return nil, fmt.Errorf("passes: empty name")
	}
	if name[0] != '-' {
		name = "-" + name
	}
	for i, n := range Table1Names {
		if n == name {
			return ByIndex(i), nil
		}
	}
	return nil, fmt.Errorf("passes: unknown pass %q", name)
}

// PassPanic is the panic value Apply re-throws when a pass run panics: the
// original value plus the attribution (which pass, at which position, with
// what stack) the containment layer needs to build a typed fault and a
// replayable crash bundle. It still unwinds as a panic — passes stay
// panic-on-bug by contract — but any recover boundary above can tell
// exactly which pass died without instrumenting the pipeline itself.
type PassPanic struct {
	Index int    // Table 1 index of the faulting pass
	Pos   int    // position within the applied sequence
	Name  string // flag name of the pass
	Val   any    // the original panic value
	Stack []byte // stack captured at the point of the panic
}

func (pp *PassPanic) Error() string {
	return fmt.Sprintf("passes: panic in %s (index %d, position %d): %v", pp.Name, pp.Index, pp.Pos, pp.Val)
}

// Apply runs the pass sequence (by Table 1 index) over the module, stopping
// early at a -terminate sentinel. It reports whether any pass changed the
// module. A panicking pass unwinds as a *PassPanic.
func Apply(m *ir.Module, sequence []int) bool {
	changed := false
	for pos, idx := range sequence {
		if idx == TerminateIndex {
			break
		}
		if Step(m, idx, pos) {
			changed = true
		}
	}
	return changed
}

// Step runs the pass at Table 1 index idx over m as position pos of a
// sequence and reports whether it changed the module. Any panic (organic
// or injected) unwinds as a *PassPanic carrying idx and pos.
func Step(m *ir.Module, idx, pos int) (changed bool) {
	defer func() {
		if v := recover(); v != nil {
			if pp, ok := v.(*PassPanic); ok {
				panic(pp) // already attributed (nested Apply)
			}
			panic(&PassPanic{Index: idx, Pos: pos, Name: Table1Names[idx],
				Val: v, Stack: debug.Stack()})
		}
	}()
	if faults.Hit(faults.PassPanic) {
		panic(fmt.Errorf("%w: pass %s", faults.ErrInjected, Table1Names[idx]))
	}
	return ByIndex(idx).Run(m)
}

// RunSequence applies the sequence to a copy-on-write clone of base,
// returning the resulting module and whether any pass changed it. When
// nothing changed the returned module IS base — callers sharing modules
// through a cache reuse the parent's entry (and its fingerprint) without
// paying for a clone or a re-hash. When something changed, the result is
// sealed (no instruction references a function replaced during the run) and
// base is untouched.
func RunSequence(base *ir.Module, sequence []int) (*ir.Module, bool) {
	m := base.CloneCOW()
	if !Apply(m, sequence) {
		return base, false
	}
	m.Seal()
	return m, true
}

// O3Sequence is the reference -O3 pipeline: a hand-picked ordering in the
// spirit of LLVM's level-3 pass schedule, used as the evaluation baseline.
var O3Sequence = []int{
	38, // -mem2reg
	31, // -simplifycfg
	5,  // -sccp
	26, // -early-cse
	30, // -instcombine
	25, // -inline
	19, // -functionattrs
	43, // -sroa
	26, // -early-cse
	8,  // -jump-threading
	0,  // -correlated-propagation
	31, // -simplifycfg
	30, // -instcombine
	35, // -tailcallelim
	15, // -reassociate
	29, // -loop-simplify
	16, // -lcssa
	23, // -loop-rotate
	36, // -licm
	10, // -loop-unswitch
	30, // -instcombine
	27, // -indvars
	20, // -loop-idiom
	14, // -loop-deletion
	33, // -loop-unroll
	7,  // -gvn
	18, // -memcpyopt
	5,  // -sccp
	30, // -instcombine
	32, // -dse
	28, // -adce
	31, // -simplifycfg
	30, // -instcombine
	6,  // -globalopt
	9,  // -globaldce
	22, // -constmerge
	42, // -deadargelim
	12, // -loop-reduce
	17, // -codegenprepare
}

// ApplyO3 clones nothing; it runs the -O3 pipeline in place.
func ApplyO3(m *ir.Module) { Apply(m, O3Sequence) }
