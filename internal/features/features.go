// Package features implements the paper's IR feature extractor: the 56
// static program features of Table 2, indexed exactly as the paper indexes
// them (the random-forest heat maps of Figures 5–6 and the RL observation
// space both use these indices).
package features

import (
	"fmt"

	"autophase/internal/faults"
	"autophase/internal/ir"
)

// NumFeatures is the dimensionality of the feature vector (Table 2).
const NumFeatures = 56

// TotalInstructions is the index of "Number of instructions (of all types)",
// the denominator of the paper's normalization technique 2 (§5.3).
const TotalInstructions = 51

// Names lists the 56 feature descriptions by index, matching Table 2.
var Names = [NumFeatures]string{
	0:  "Number of BB where total args for phi nodes > 5",
	1:  "Number of BB where total args for phi nodes is [1,5]",
	2:  "Number of BB's with 1 predecessor",
	3:  "Number of BB's with 1 predecessor and 1 successor",
	4:  "Number of BB's with 1 predecessor and 2 successors",
	5:  "Number of BB's with 1 successor",
	6:  "Number of BB's with 2 predecessors",
	7:  "Number of BB's with 2 predecessors and 1 successor",
	8:  "Number of BB's with 2 predecessors and successors",
	9:  "Number of BB's with 2 successors",
	10: "Number of BB's with >2 predecessors",
	11: "Number of BB's with Phi node # in range (0,3]",
	12: "Number of BB's with more than 3 Phi nodes",
	13: "Number of BB's with no Phi nodes",
	14: "Number of Phi-nodes at beginning of BB",
	15: "Number of branches",
	16: "Number of calls that return an int",
	17: "Number of critical edges",
	18: "Number of edges",
	19: "Number of occurrences of 32-bit integer constants",
	20: "Number of occurrences of 64-bit integer constants",
	21: "Number of occurrences of constant 0",
	22: "Number of occurrences of constant 1",
	23: "Number of unconditional branches",
	24: "Number of Binary operations with a constant operand",
	25: "Number of AShr insts",
	26: "Number of Add insts",
	27: "Number of Alloca insts",
	28: "Number of And insts",
	29: "Number of BB's with instructions between [15,500]",
	30: "Number of BB's with less than 15 instructions",
	31: "Number of BitCast insts",
	32: "Number of Br insts",
	33: "Number of Call insts",
	34: "Number of GetElementPtr insts",
	35: "Number of ICmp insts",
	36: "Number of LShr insts",
	37: "Number of Load insts",
	38: "Number of Mul insts",
	39: "Number of Or insts",
	40: "Number of PHI insts",
	41: "Number of Ret insts",
	42: "Number of SExt insts",
	43: "Number of Select insts",
	44: "Number of Shl insts",
	45: "Number of Store insts",
	46: "Number of Sub insts",
	47: "Number of Trunc insts",
	48: "Number of Xor insts",
	49: "Number of ZExt insts",
	50: "Number of basic blocks",
	51: "Number of instructions (of all types)",
	52: "Number of memory instructions",
	53: "Number of non-external functions",
	54: "Total arguments to Phi nodes",
	55: "Number of Unary operations",
}

// Extract computes the 56-feature vector over every function in the module.
func Extract(m *ir.Module) []int64 {
	if faults.Hit(faults.FeaturePanic) {
		panic(fmt.Errorf("%w: feature extraction", faults.ErrInjected))
	}
	f := make([]int64, NumFeatures)
	for _, fn := range m.Funcs {
		extractFunc(fn, f)
		f[53]++ // non-external function (all our functions have bodies)
	}
	return f
}

func extractFunc(fn *ir.Func, f []int64) {
	f[17] += int64(len(ir.CriticalEdges(fn)))
	for _, b := range fn.Blocks {
		f[50]++
		preds := b.NumPreds()
		succs := len(b.Succs())
		f[18] += int64(succs) // CFG edges, counted at their source

		switch {
		case preds == 1:
			f[2]++
		case preds == 2:
			f[6]++
		case preds > 2:
			f[10]++
		}
		if succs == 1 {
			f[5]++
		}
		if succs == 2 {
			f[9]++
		}
		if preds == 1 && succs == 1 {
			f[3]++
		}
		if preds == 1 && succs == 2 {
			f[4]++
		}
		if preds == 2 && succs == 1 {
			f[7]++
		}
		if preds == 2 && succs == 2 {
			f[8]++
		}

		phis := b.Instrs[:b.NumPhis()]
		phiArgs := 0
		for _, p := range phis {
			phiArgs += len(p.Args)
		}
		switch {
		case phiArgs > 5:
			f[0]++
		case phiArgs >= 1:
			f[1]++
		}
		switch {
		case len(phis) == 0:
			f[13]++
		case len(phis) <= 3:
			f[11]++
		default:
			f[12]++
		}
		f[14] += int64(len(phis))
		f[54] += int64(phiArgs)

		n := len(b.Instrs)
		if n < 15 {
			f[30]++
		} else if n <= 500 {
			f[29]++
		}

		for _, in := range b.Instrs {
			f[51]++
			for _, a := range in.Args {
				if c, ok := a.(*ir.Const); ok {
					if c.Ty.IsInt() {
						switch c.Ty.Bits {
						case 32:
							f[19]++
						case 64:
							f[20]++
						}
					}
					switch c.Val {
					case 0:
						f[21]++
					case 1:
						f[22]++
					}
				}
			}
			if in.Op.IsBinary() {
				if _, ok := ir.IsConst(in.Args[0]); ok {
					f[24]++
				} else if _, ok := ir.IsConst(in.Args[1]); ok {
					f[24]++
				}
			}
			switch in.Op {
			case ir.OpAShr:
				f[25]++
			case ir.OpAdd:
				f[26]++
			case ir.OpAlloca:
				f[27]++
				f[52]++
			case ir.OpAnd:
				f[28]++
			case ir.OpBitCast:
				f[31]++
				f[55]++
			case ir.OpBr:
				f[32]++
				if in.IsConditionalBr() {
					f[15]++
				} else {
					f[23]++
				}
			case ir.OpCall:
				f[33]++
				if in.Ty.IsInt() {
					f[16]++
				}
			case ir.OpGEP:
				f[34]++
				f[52]++
			case ir.OpICmp:
				f[35]++
			case ir.OpLShr:
				f[36]++
			case ir.OpLoad:
				f[37]++
				f[52]++
			case ir.OpMul:
				f[38]++
			case ir.OpOr:
				f[39]++
			case ir.OpPhi:
				f[40]++
			case ir.OpRet:
				f[41]++
			case ir.OpSExt:
				f[42]++
				f[55]++
			case ir.OpSelect:
				f[43]++
			case ir.OpShl:
				f[44]++
			case ir.OpStore:
				f[45]++
				f[52]++
			case ir.OpSub:
				f[46]++
			case ir.OpTrunc:
				f[47]++
				f[55]++
			case ir.OpXor:
				f[48]++
			case ir.OpZExt:
				f[49]++
				f[55]++
			case ir.OpMemset:
				f[52]++
			}
		}
	}
}
