package ir

import (
	"fmt"
	"strings"
)

// String renders the module in LLVM-like textual form; Parse reads it back.
func (m *Module) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; module %s\n", m.Name)
	for _, g := range m.Globals {
		ro := "global"
		if g.ReadOnly {
			ro = "constant"
		}
		fmt.Fprintf(&sb, "@%s = %s %s %v\n", g.Name, ro, g.Elem, g.Init)
	}
	for _, f := range m.Funcs {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// labelsOf assigns a unique textual label to every block (named blocks keep
// their name, deduplicated with a numeric suffix; unnamed blocks get bbN).
func labelsOf(f *Func) map[*Block]string {
	labels := make(map[*Block]string, len(f.Blocks))
	used := make(map[string]bool, len(f.Blocks))
	for i, b := range f.Blocks {
		base := b.Name
		if base == "" {
			base = fmt.Sprintf("bb%d", i)
		}
		label := base
		for n := 1; used[label]; n++ {
			label = fmt.Sprintf("%s.%d", base, n)
		}
		used[label] = true
		labels[b] = label
	}
	return labels
}

// String renders the function in LLVM-like textual form.
func (f *Func) String() string {
	f.Number()
	labels := labelsOf(f)
	var sb strings.Builder
	var ps []string
	for _, p := range f.Params {
		ps = append(ps, fmt.Sprintf("%s %%%s", p.Ty, p.Name))
	}
	attrs := ""
	if f.Attrs.ReadNone {
		attrs = " readnone"
	} else if f.Attrs.ReadOnly {
		attrs = " readonly"
	}
	if f.Attrs.NoTrap {
		attrs += " notrap"
	}
	if f.Attrs.NoInline {
		attrs += " noinline"
	}
	fmt.Fprintf(&sb, "define %s @%s(%s)%s {\n", f.Ret, f.Name, strings.Join(ps, ", "), attrs)
	for i, b := range f.Blocks {
		if i > 0 {
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "%s:\n", labels[b])
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in.instrString(labels))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Label renders a block reference outside of a full function print
// (verifier errors, analysis diagnostics, debug output).
func (b *Block) Label() string { return blockLabel(b) }

// blockLabel renders a block reference outside of a full function print
// (verifier errors, debug output).
func blockLabel(b *Block) string {
	if b == nil {
		return "<nilblock>"
	}
	if b.Name != "" {
		return b.Name
	}
	return fmt.Sprintf("bb%d", b.Index())
}

func labelIn(labels map[*Block]string, b *Block) string {
	if labels != nil {
		if l, ok := labels[b]; ok {
			return l
		}
	}
	return blockLabel(b)
}

func (in *Instr) instrString(labels map[*Block]string) string {
	refs := func() string {
		var parts []string
		for _, a := range in.Args {
			if a == nil {
				parts = append(parts, "<nil>")
				continue
			}
			parts = append(parts, a.Ref())
		}
		return strings.Join(parts, ", ")
	}
	switch in.Op {
	case OpRet:
		if len(in.Args) == 0 {
			return "ret void"
		}
		return fmt.Sprintf("ret %s %s", in.Args[0].Type(), in.Args[0].Ref())
	case OpBr:
		if len(in.Blocks) == 1 {
			return fmt.Sprintf("br label %%%s", labelIn(labels, in.Blocks[0]))
		}
		return fmt.Sprintf("br i1 %s, label %%%s, label %%%s",
			in.Args[0].Ref(), labelIn(labels, in.Blocks[0]), labelIn(labels, in.Blocks[1]))
	case OpSwitch:
		var cs []string
		for i, v := range in.Cases {
			cs = append(cs, fmt.Sprintf("%d: label %%%s", v, labelIn(labels, in.Blocks[i+1])))
		}
		return fmt.Sprintf("switch %s %s, label %%%s [%s]",
			in.Args[0].Type(), in.Args[0].Ref(), labelIn(labels, in.Blocks[0]), strings.Join(cs, ", "))
	case OpUnreachable:
		return "unreachable"
	case OpStore:
		return fmt.Sprintf("store %s %s, %s %s",
			in.Args[0].Type(), in.Args[0].Ref(), in.Args[1].Type(), in.Args[1].Ref())
	case OpMemset:
		return fmt.Sprintf("memset(%s)", refs())
	case OpPrint:
		return fmt.Sprintf("print(%s)", refs())
	case OpPhi:
		var inc []string
		for i, a := range in.Args {
			r := "<nil>"
			if a != nil {
				r = a.Ref()
			}
			inc = append(inc, fmt.Sprintf("[ %s, %%%s ]", r, labelIn(labels, in.Blocks[i])))
		}
		return fmt.Sprintf("%s = phi %s %s", in.Ref(), in.Ty, strings.Join(inc, ", "))
	case OpICmp:
		return fmt.Sprintf("%s = icmp %s %s %s, %s",
			in.Ref(), in.Pred, in.Args[0].Type(), in.Args[0].Ref(), in.Args[1].Ref())
	case OpAlloca:
		return fmt.Sprintf("%s = alloca %s", in.Ref(), in.AllocTy)
	case OpLoad:
		return fmt.Sprintf("%s = load %s, %s %s", in.Ref(), in.Ty, in.Args[0].Type(), in.Args[0].Ref())
	case OpGEP:
		return fmt.Sprintf("%s = getelementptr %s %s, %s",
			in.Ref(), in.Args[0].Type(), in.Args[0].Ref(), in.Args[1].Ref())
	case OpCall:
		callee := "<nilfn>"
		if in.Callee != nil {
			callee = in.Callee.Name
		}
		if in.Ty.IsVoid() {
			return fmt.Sprintf("call void @%s(%s)", callee, refs())
		}
		return fmt.Sprintf("%s = call %s @%s(%s)", in.Ref(), in.Ty, callee, refs())
	case OpTrunc, OpZExt, OpSExt, OpBitCast:
		return fmt.Sprintf("%s = %s %s %s to %s",
			in.Ref(), in.Op, in.Args[0].Type(), in.Args[0].Ref(), in.Ty)
	case OpSelect:
		return fmt.Sprintf("%s = select i1 %s, %s %s, %s %s",
			in.Ref(), in.Args[0].Ref(), in.Args[1].Type(), in.Args[1].Ref(),
			in.Args[2].Type(), in.Args[2].Ref())
	default:
		return fmt.Sprintf("%s = %s %s %s, %s", in.Ref(), in.Op, in.Ty,
			in.Args[0].Ref(), in.Args[1].Ref())
	}
}
