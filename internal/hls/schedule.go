package hls

import (
	"math"

	"autophase/internal/ir"
)

// BlockSchedule is the scheduling result for one basic block.
type BlockSchedule struct {
	Block  *ir.Block
	States int // FSM states (cycles) the block occupies per execution
}

// FuncSchedule is the scheduling result for one function.
type FuncSchedule struct {
	Func    *ir.Func
	Blocks  map[*ir.Block]*BlockSchedule
	States  int // total FSM states across blocks
	AreaLUT int // rough functional-unit area estimate
}

// ModuleSchedule holds the schedule of every function in a module.
type ModuleSchedule struct {
	Config Config
	Funcs  map[*ir.Func]*FuncSchedule
}

// Schedule runs the operation-chaining list scheduler on every block of
// every function in the module.
func Schedule(m *ir.Module, cfg Config) *ModuleSchedule {
	ms := &ModuleSchedule{Config: cfg, Funcs: make(map[*ir.Func]*FuncSchedule, len(m.Funcs))}
	var s blockScratch
	for _, f := range m.Funcs {
		f.Number() // only reads a published function
		fs := &FuncSchedule{Func: f, Blocks: make(map[*ir.Block]*BlockSchedule, len(f.Blocks))}
		for _, b := range f.Blocks {
			bs := scheduleBlock(b, cfg, &s)
			fs.Blocks[b] = bs
			fs.States += bs.States
		}
		fs.AreaLUT = funcArea(f)
		ms.Funcs[f] = fs
	}
	return ms
}

const eps = 1e-9

// blockScratch is scheduleBlock's working storage, reused from block to
// block.
type blockScratch struct {
	finish         []float64 // by position in the block
	memUse, divUse []int     // by cycle
}

// use returns a pointer to cycle c's counter in *u, growing it as needed.
func use(u *[]int, c int) *int {
	for len(*u) <= c {
		*u = append(*u, 0)
	}
	return &(*u)[c]
}

// scheduleBlock performs ASAP list scheduling with operation chaining under
// the frequency constraint and memory-port/divider resource limits. The
// returned state count is the number of FSM states (cycles) one execution of
// the block takes. b's function must be numbered: an operand defined
// earlier in b is found by its number.
func scheduleBlock(b *ir.Block, cfg Config, s *blockScratch) *BlockSchedule {
	budget := cfg.CycleNs()
	finish := s.finish[:0]
	s.memUse, s.divUse = s.memUse[:0], s.divUse[:0]
	base := 0
	if len(b.Instrs) > 0 {
		base = b.Instrs[0].Num()
	}

	// Memory/side-effect ordering: barriers (stores, calls, memsets,
	// prints) keep program order among themselves and with loads.
	var lastBarrierEnd float64
	var loadsSinceBarrier []float64

	makespan := 0.0
	for _, in := range b.Instrs {
		t := timing(in)
		ready := 0.0
		for _, a := range in.Args {
			// Only an operand scheduled earlier in b has a finish time.
			if d, ok := a.(*ir.Instr); ok && d.Parent() == b {
				if k := d.Num() - base; k >= 0 && k < len(finish) && b.Instrs[k] == d && finish[k] > ready {
					ready = finish[k]
				}
			}
		}
		if t.memPort || t.barrier {
			if lastBarrierEnd > ready {
				ready = lastBarrierEnd
			}
		}
		if t.barrier {
			for _, lf := range loadsSinceBarrier {
				if lf > ready {
					ready = lf
				}
			}
		}

		var end float64
		switch {
		case t.stateOnly:
			// Occupies a dedicated state (e.g. a call handing off to the
			// callee FSM).
			c := cycleCeil(ready, budget)
			end = float64(c+1) * budget
		case t.latency > 0:
			c := cycleCeil(ready, budget)
			if t.memPort {
				for *use(&s.memUse, c) >= cfg.MemPorts {
					c++
				}
				*use(&s.memUse, c)++
			}
			if t.divider {
				for *use(&s.divUse, c) >= cfg.Dividers {
					c++
				}
				*use(&s.divUse, c)++
			}
			end = float64(c+t.latency) * budget
		default:
			start := ready
			frac := start - math.Floor(start/budget+eps)*budget
			if frac+t.delayNs > budget+eps {
				start = math.Ceil(start/budget-eps) * budget
			}
			end = start + t.delayNs
		}
		finish = append(finish, end)
		if end > makespan {
			makespan = end
		}
		if t.barrier {
			lastBarrierEnd = end
			loadsSinceBarrier = loadsSinceBarrier[:0]
		} else if in.Op == ir.OpLoad {
			loadsSinceBarrier = append(loadsSinceBarrier, end)
		}
	}
	s.finish = finish // keep the grown storage
	states := int(math.Ceil(makespan/budget - eps))
	if states < 1 {
		states = 1
	}
	return &BlockSchedule{Block: b, States: states}
}

func cycleCeil(t, budget float64) int {
	return int(math.Ceil(t/budget - eps))
}

// funcArea sums rough LUT costs of the function's operations, modelling the
// fully spatial binding LegUp defaults to.
func funcArea(f *ir.Func) int {
	area := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			area += timing(in).areaLUTs
		}
		// FSM/state register overhead per block.
		area += 4
	}
	return area
}

// Area returns the whole-module area estimate in LUTs.
func (ms *ModuleSchedule) Area() int {
	a := 0
	for _, fs := range ms.Funcs {
		a += fs.AreaLUT
	}
	return a
}

// StatesOf returns the FSM state count of block b (1 if unscheduled).
func (ms *ModuleSchedule) StatesOf(b *ir.Block) int {
	if fs, ok := ms.Funcs[b.Parent()]; ok {
		if bs, ok := fs.Blocks[b]; ok {
			return bs.States
		}
	}
	return 1
}
