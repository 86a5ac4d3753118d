package analysis

import (
	"fmt"
	"strings"

	"autophase/internal/ir"
)

// AvailExpr holds the available-expressions solution: the set of pure
// expression keys computed on every path reaching a block boundary, with no
// intervening redefinition of their operands (vacuous in SSA). It is the
// must-analysis companion to GVN/early-cse: an expression available at a
// block entry can be reused instead of recomputed.
type AvailExpr struct {
	fn *ir.Func
	// In[b] is the set of expression keys available at b's entry; Out[b]
	// at its exit.
	In, Out map[*ir.Block]Set[string]
	// DefsOf maps an expression key to the instructions computing it.
	DefsOf map[string][]*ir.Instr
}

// ExprKey canonicalizes a pure instruction into a structural key, or ""
// when the instruction is not a pure expression (memory, control, calls,
// phis). Commutative binary operations sort their operands so a+b and b+a
// share a key.
func ExprKey(in *ir.Instr) string {
	pure := in.Op.IsBinary() || in.Op.IsCast() ||
		in.Op == ir.OpICmp || in.Op == ir.OpSelect || in.Op == ir.OpGEP
	if !pure {
		return ""
	}
	ops := make([]string, len(in.Args))
	for i, a := range in.Args {
		ops[i] = operandKey(a)
	}
	if in.Op.IsCommutative() && len(ops) == 2 && ops[0] > ops[1] {
		ops[0], ops[1] = ops[1], ops[0]
	}
	key := in.Op.String()
	if in.Op == ir.OpICmp {
		key += "." + in.Pred.String()
	}
	if in.Op.IsCast() && in.Ty != nil {
		key += "->" + in.Ty.String()
	}
	return key + "(" + strings.Join(ops, ",") + ")"
}

// operandKey names an operand in a way that is stable across instruction
// renumbering: instructions are keyed by pointer identity.
func operandKey(v ir.Value) string {
	switch x := v.(type) {
	case *ir.Const:
		return x.Ref()
	case *ir.Instr:
		return fmt.Sprintf("i%p", x)
	case *ir.Param:
		return fmt.Sprintf("p%p", x)
	case *ir.Global:
		return x.Ref()
	case *ir.Undef:
		return "undef"
	}
	return fmt.Sprintf("v%p", v)
}

// ComputeAvailExpr solves forward available expressions over f.
func ComputeAvailExpr(f *ir.Func) *AvailExpr {
	defs := make(map[string][]*ir.Instr)
	gen := make(map[*ir.Block]Set[string], len(f.Blocks))
	universe := NewSet[string]()
	for _, b := range f.Blocks {
		g := NewSet[string]()
		for _, in := range b.Instrs {
			if key := ExprKey(in); key != "" {
				g.Add(key)
				universe.Add(key)
				defs[key] = append(defs[key], in)
			}
		}
		gen[b] = g
	}
	res := Solve(f, Problem[string]{
		Dir:  Forward,
		Meet: Intersect,
		Init: universe,
		Transfer: func(b *ir.Block, in Set[string]) Set[string] {
			in.Union(gen[b])
			return in
		},
	})
	return &AvailExpr{fn: f, In: res.In, Out: res.Out, DefsOf: defs}
}

// AvailableAt reports whether the expression key is available at b's entry.
func (ae *AvailExpr) AvailableAt(key string, b *ir.Block) bool {
	in := ae.In[b]
	return in != nil && in.Has(key)
}

// Redundant returns the instructions whose expression is already available
// at their block entry and also computed by an earlier instruction in the
// same block or a dominating block — the candidates GVN would eliminate.
func (ae *AvailExpr) Redundant() []*ir.Instr {
	dt := ir.NewDomTree(ae.fn)
	var out []*ir.Instr
	for _, b := range ae.fn.Blocks {
		seen := NewSet[string]()
		for _, in := range b.Instrs {
			key := ExprKey(in)
			if key == "" {
				continue
			}
			if seen.Has(key) {
				out = append(out, in)
			} else if ae.AvailableAt(key, b) && hasDominatingDef(dt, ae.DefsOf[key], in) {
				out = append(out, in)
			}
			seen.Add(key)
		}
	}
	return out
}

func hasDominatingDef(dt *ir.DomTree, defs []*ir.Instr, use *ir.Instr) bool {
	for _, d := range defs {
		if d == use || d.Parent() == nil {
			continue
		}
		if dt.StrictlyDominates(d.Parent(), use.Parent()) {
			return true
		}
	}
	return false
}
