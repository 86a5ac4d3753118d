package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads the textual form produced by Module.String back into a
// module, enabling file-based workflows (saving generated programs,
// diffing pass pipelines) and the printer/parser round-trip tests.
// Malformed text is an error, never a panic.
func Parse(src string) (m *Module, err error) {
	// The line parsers index into fields they have not fully checked, so
	// some malformed lines panic; report those as the parse errors they
	// are.
	defer func() {
		if v := recover(); v != nil {
			m, err = nil, fmt.Errorf("malformed ir: %v", v)
		}
	}()
	p := &parser{m: NewModule("parsed")}
	lines := strings.Split(src, "\n")

	// Pre-scan: function signatures (calls may reference later functions)
	// and globals.
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		switch {
		case strings.HasPrefix(line, "; module "):
			p.m.Name = strings.TrimPrefix(line, "; module ")
		case strings.HasPrefix(line, "@"):
			if err := p.parseGlobal(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
		case strings.HasPrefix(line, "define "):
			if err := p.parseSignature(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
		}
	}

	// Body pass.
	var cur *funcParse
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		switch {
		case line == "" || strings.HasPrefix(line, ";"):
		case strings.HasPrefix(line, "@"):
		case strings.HasPrefix(line, "define "):
			if cur != nil {
				return nil, fmt.Errorf("line %d: function @%s: missing closing brace", ln+1, cur.f.Name)
			}
			name, err := definedName(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
			cur = p.fns[name]
			cur.scanBlocks(lines[ln+1:])
		case line == "}":
			if cur != nil {
				if err := cur.resolve(); err != nil {
					return nil, fmt.Errorf("function @%s: %w", cur.f.Name, err)
				}
			}
			cur = nil
		case strings.HasSuffix(line, ":"):
			if cur == nil {
				return nil, fmt.Errorf("line %d: label outside function", ln+1)
			}
			cur.enterBlock(strings.TrimSuffix(line, ":"))
		default:
			if cur == nil {
				return nil, fmt.Errorf("line %d: instruction outside function", ln+1)
			}
			if err := cur.parseInstr(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
		}
	}
	if cur != nil {
		// Operands are resolved at the closing brace; without it they
		// would silently stay empty.
		return nil, fmt.Errorf("function @%s: missing closing brace", cur.f.Name)
	}
	return p.m, nil
}

type parser struct {
	m   *Module
	fns map[string]*funcParse
}

type pendingOp struct {
	in   *Instr
	refs []string // textual operands, resolved after all defs exist
	tys  []*Type  // expected type per operand (for constants/undef)
}

type funcParse struct {
	p      *parser
	f      *Func
	blocks map[string]*Block
	defs   map[string]*Instr
	cur    *Block
	pend   []pendingOp
}

func (p *parser) parseGlobal(line string) error {
	// @name = global|constant TYPE [v1 v2 ...]
	eq := strings.Index(line, " = ")
	if eq < 0 {
		return fmt.Errorf("bad global %q", line)
	}
	name := strings.TrimPrefix(line[:eq], "@")
	rest := line[eq+3:]
	readonly := false
	switch {
	case strings.HasPrefix(rest, "constant "):
		readonly = true
		rest = strings.TrimPrefix(rest, "constant ")
	case strings.HasPrefix(rest, "global "):
		rest = strings.TrimPrefix(rest, "global ")
	default:
		return fmt.Errorf("bad global kind in %q", line)
	}
	lb := strings.LastIndex(rest, "[")
	if lb < 0 {
		return fmt.Errorf("missing init in %q", line)
	}
	// The element type itself may be an array type containing '[', so take
	// the final bracket group as the initializer.
	tyStr := strings.TrimSpace(rest[:lb])
	initStr := strings.Trim(rest[lb:], "[] ")
	ty, err := parseType(tyStr)
	if err != nil {
		return err
	}
	var init []int64
	if initStr != "" {
		for _, tok := range strings.Fields(initStr) {
			v, err := strconv.ParseInt(tok, 10, 64)
			if err != nil {
				return fmt.Errorf("bad init value %q", tok)
			}
			init = append(init, v)
		}
	}
	p.m.NewGlobal(name, ty, init, readonly)
	return nil
}

func definedName(line string) (string, error) {
	at := strings.Index(line, "@")
	if at < 0 {
		return "", fmt.Errorf("bad define %q", line)
	}
	par := strings.Index(line[at:], "(")
	if par < 0 {
		return "", fmt.Errorf("bad define %q", line)
	}
	return line[at+1 : at+par], nil
}

func (p *parser) parseSignature(line string) error {
	// define RET @name(TY %p0, TY %p1) [attrs] {
	body := strings.TrimPrefix(line, "define ")
	at := strings.Index(body, "@")
	if at < 0 {
		return fmt.Errorf("bad define %q", line)
	}
	ret, err := parseType(strings.TrimSpace(body[:at]))
	if err != nil {
		return err
	}
	open := strings.Index(body, "(")
	close := strings.LastIndex(body, ")")
	if open < 0 || close < open {
		return fmt.Errorf("bad define %q", line)
	}
	name := body[at+1 : open]
	var ptys []*Type
	var pnames []string
	params := strings.TrimSpace(body[open+1 : close])
	if params != "" {
		for _, ps := range strings.Split(params, ",") {
			fields := strings.Fields(strings.TrimSpace(ps))
			if len(fields) != 2 {
				return fmt.Errorf("bad param %q", ps)
			}
			ty, err := parseType(fields[0])
			if err != nil {
				return err
			}
			ptys = append(ptys, ty)
			pnames = append(pnames, strings.TrimPrefix(fields[1], "%"))
		}
	}
	f := p.m.NewFunc(name, ret, ptys...)
	for i, pn := range pnames {
		f.Params[i].Name = pn
	}
	attrs := strings.TrimSuffix(strings.TrimSpace(body[close+1:]), "{")
	for _, a := range strings.Fields(attrs) {
		switch a {
		case "readnone":
			f.Attrs.ReadNone = true
		case "readonly":
			f.Attrs.ReadOnly = true
		case "notrap":
			f.Attrs.NoTrap = true
		case "noinline":
			f.Attrs.NoInline = true
		}
	}
	if p.fns == nil {
		p.fns = make(map[string]*funcParse)
	}
	p.fns[name] = &funcParse{
		p: p, f: f,
		blocks: make(map[string]*Block),
		defs:   make(map[string]*Instr),
	}
	return nil
}

// scanBlocks pre-creates the function's blocks so branches can forward-
// reference labels.
func (fp *funcParse) scanBlocks(rest []string) {
	for _, raw := range rest {
		line := strings.TrimSpace(raw)
		if line == "}" {
			return
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, " ") {
			label := strings.TrimSuffix(line, ":")
			fp.blocks[label] = fp.f.NewBlock(label)
		}
	}
}

func (fp *funcParse) enterBlock(label string) {
	fp.cur = fp.blocks[label]
}

// parseType parses i1..i64, T*, and [N x T].
func parseType(s string) (*Type, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "void":
		return Void, nil
	case strings.HasSuffix(s, "*"):
		elem, err := parseType(strings.TrimSuffix(s, "*"))
		if err != nil {
			return nil, err
		}
		return PointerTo(elem), nil
	case strings.HasPrefix(s, "["):
		inner := strings.Trim(s, "[]")
		parts := strings.SplitN(inner, " x ", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad array type %q", s)
		}
		n, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, err
		}
		elem, err := parseType(parts[1])
		if err != nil {
			return nil, err
		}
		return ArrayOf(elem, n), nil
	case strings.HasPrefix(s, "i"):
		bits, err := strconv.Atoi(s[1:])
		if err != nil {
			return nil, fmt.Errorf("bad type %q", s)
		}
		return IntType(bits), nil
	}
	return nil, fmt.Errorf("bad type %q", s)
}

var predByName = map[string]CmpPred{
	"eq": CmpEQ, "ne": CmpNE, "slt": CmpSLT, "sle": CmpSLE, "sgt": CmpSGT,
	"sge": CmpSGE, "ult": CmpULT, "ule": CmpULE, "ugt": CmpUGT, "uge": CmpUGE,
}

var opByName = map[string]Op{
	"add": OpAdd, "sub": OpSub, "mul": OpMul, "sdiv": OpSDiv, "srem": OpSRem,
	"and": OpAnd, "or": OpOr, "xor": OpXor, "shl": OpShl, "lshr": OpLShr,
	"ashr": OpAShr,
}

// parseInstr parses one instruction line into fp.cur.
func (fp *funcParse) parseInstr(line string) error {
	if fp.cur == nil {
		return fmt.Errorf("instruction before first label: %q", line)
	}
	var def string
	body := line
	if i := strings.Index(line, " = "); i > 0 && strings.HasPrefix(line, "%") {
		def = strings.TrimPrefix(line[:i], "%")
		body = line[i+3:]
	}
	in, refs, tys, err := fp.parseBody(body)
	if err != nil {
		return fmt.Errorf("%q: %w", line, err)
	}
	if def != "" && !printsResult(in) {
		// The printer would drop the name, leaving its uses dangling.
		return fmt.Errorf("%q: %s defines no value", line, in.Op)
	}
	if def != "" {
		// Numeric defs stay unnamed (they regenerate on print).
		if _, err := strconv.Atoi(def); err != nil {
			in.Name = def
		}
		fp.defs[def] = in
	}
	fp.cur.Append(in)
	fp.pend = append(fp.pend, pendingOp{in, refs, tys})
	return nil
}

// printsResult reports whether the printed form of in starts with
// "%name = ": every instruction but the void ones.
func printsResult(in *Instr) bool {
	switch in.Op {
	case OpStore, OpMemset, OpPrint, OpRet, OpBr, OpSwitch, OpUnreachable:
		return false
	case OpCall:
		return !in.Ty.IsVoid()
	}
	return true
}

// parseBody decodes the opcode-specific syntax, returning unresolved
// operand refs with their expected types.
func (fp *funcParse) parseBody(body string) (*Instr, []string, []*Type, error) {
	word := body
	if i := strings.IndexByte(body, ' '); i > 0 {
		word = body[:i]
	}
	if i := strings.IndexByte(word, '('); i > 0 {
		word = word[:i]
	}
	rest := strings.TrimSpace(strings.TrimPrefix(body, word))
	switch {
	case word == "ret":
		if rest == "void" {
			return &Instr{Op: OpRet, Ty: Void}, nil, nil, nil
		}
		ty, ref, err := tyRef(rest)
		if err != nil {
			return nil, nil, nil, err
		}
		return &Instr{Op: OpRet, Ty: Void}, []string{ref}, []*Type{ty}, nil
	case word == "br":
		if strings.HasPrefix(rest, "label ") {
			lbl := strings.TrimPrefix(strings.TrimPrefix(rest, "label "), "%")
			b := fp.blocks[lbl]
			if b == nil {
				return nil, nil, nil, fmt.Errorf("unknown label %q", lbl)
			}
			return &Instr{Op: OpBr, Ty: Void, Blocks: []*Block{b}}, nil, nil, nil
		}
		// br i1 %c, label %a, label %b
		parts := strings.Split(rest, ",")
		if len(parts) != 3 {
			return nil, nil, nil, fmt.Errorf("bad br")
		}
		_, cref, err := tyRef(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, nil, nil, err
		}
		t1 := fp.blocks[labelRef(parts[1])]
		t2 := fp.blocks[labelRef(parts[2])]
		if t1 == nil || t2 == nil {
			return nil, nil, nil, fmt.Errorf("bad br targets")
		}
		return &Instr{Op: OpBr, Ty: Void, Blocks: []*Block{t1, t2}},
			[]string{cref}, []*Type{I1}, nil
	case word == "switch":
		// switch TY %v, label %def [c: label %a, ...]
		lb := strings.Index(rest, "[")
		head := strings.TrimSpace(strings.TrimSuffix(rest[:lb], " "))
		caseStr := strings.Trim(rest[lb:], "[]")
		hp := strings.SplitN(head, ",", 2)
		ty, vref, err := tyRef(strings.TrimSpace(hp[0]))
		if err != nil {
			return nil, nil, nil, err
		}
		def := fp.blocks[labelRef(hp[1])]
		in := &Instr{Op: OpSwitch, Ty: Void, Blocks: []*Block{def}}
		if strings.TrimSpace(caseStr) != "" {
			for _, cs := range strings.Split(caseStr, ",") {
				cp := strings.SplitN(cs, ":", 2)
				v, err := strconv.ParseInt(strings.TrimSpace(cp[0]), 10, 64)
				if err != nil {
					return nil, nil, nil, err
				}
				tb := fp.blocks[labelRef(cp[1])]
				if tb == nil {
					return nil, nil, nil, fmt.Errorf("bad switch target")
				}
				in.Cases = append(in.Cases, v)
				in.Blocks = append(in.Blocks, tb)
			}
		}
		return in, []string{vref}, []*Type{ty}, nil
	case word == "unreachable":
		return &Instr{Op: OpUnreachable, Ty: Void}, nil, nil, nil
	case word == "store":
		parts := strings.SplitN(rest, ",", 2)
		vt, vref, err := tyRef(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, nil, nil, err
		}
		pt, pref, err := tyRef(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, nil, nil, err
		}
		return &Instr{Op: OpStore, Ty: Void}, []string{vref, pref}, []*Type{vt, pt}, nil
	case word == "print":
		arg := strings.Trim(strings.TrimPrefix(body, "print"), "() ")
		return &Instr{Op: OpPrint, Ty: Void}, []string{arg}, []*Type{I64}, nil
	case word == "memset":
		argStr := strings.Trim(strings.TrimPrefix(body, "memset"), "() ")
		args := splitRefs(argStr)
		if len(args) != 3 {
			return nil, nil, nil, fmt.Errorf("bad memset")
		}
		return &Instr{Op: OpMemset, Ty: Void}, args, []*Type{nil, I64, I64}, nil
	case word == "call":
		return fp.parseCall(Void, rest)
	case word == "phi":
		// phi TY [ v, %b ], ...
		sp := strings.IndexByte(rest, ' ')
		ty, err := parseType(rest[:sp])
		if err != nil {
			return nil, nil, nil, err
		}
		in := &Instr{Op: OpPhi, Ty: ty}
		var refs []string
		var tys []*Type
		for _, grp := range strings.Split(rest[sp+1:], "],") {
			grp = strings.Trim(grp, "[] ")
			cp := strings.SplitN(grp, ",", 2)
			if len(cp) != 2 {
				return nil, nil, nil, fmt.Errorf("bad phi incoming %q", grp)
			}
			b := fp.blocks[strings.TrimPrefix(strings.TrimSpace(cp[1]), "%")]
			if b == nil {
				return nil, nil, nil, fmt.Errorf("bad phi block %q", cp[1])
			}
			in.Blocks = append(in.Blocks, b)
			refs = append(refs, strings.TrimSpace(cp[0]))
			tys = append(tys, ty)
		}
		return in, refs, tys, nil
	case word == "icmp":
		// icmp PRED TY a, b
		fields := strings.SplitN(rest, " ", 3)
		pred, ok := predByName[fields[0]]
		if !ok {
			return nil, nil, nil, fmt.Errorf("bad predicate %q", fields[0])
		}
		ty, err := parseType(fields[1])
		if err != nil {
			return nil, nil, nil, err
		}
		ab := splitRefs(fields[2])
		if len(ab) != 2 {
			return nil, nil, nil, fmt.Errorf("bad icmp operands")
		}
		return &Instr{Op: OpICmp, Ty: I1, Pred: pred}, ab, []*Type{ty, ty}, nil
	case word == "alloca":
		ty, err := parseType(rest)
		if err != nil {
			return nil, nil, nil, err
		}
		elem := ty
		if ty.Kind == ArrayKind {
			elem = ty.Elem
		}
		return &Instr{Op: OpAlloca, Ty: PointerTo(elem), AllocTy: ty}, nil, nil, nil
	case word == "load":
		// load TY, PTRTY %p
		parts := strings.SplitN(rest, ",", 2)
		ty, err := parseType(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, nil, nil, err
		}
		pt, pref, err := tyRef(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, nil, nil, err
		}
		return &Instr{Op: OpLoad, Ty: ty}, []string{pref}, []*Type{pt}, nil
	case word == "getelementptr":
		// getelementptr PTRTY %base, idx
		parts := strings.SplitN(rest, ",", 2)
		bt, bref, err := tyRef(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, nil, nil, err
		}
		return &Instr{Op: OpGEP, Ty: bt},
			[]string{bref, strings.TrimSpace(parts[1])}, []*Type{bt, I64}, nil
	case word == "select":
		// select i1 c, TY a, TY b
		parts := strings.SplitN(rest, ",", 3)
		_, cref, err := tyRef(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, nil, nil, err
		}
		t1, aref, err := tyRef(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, nil, nil, err
		}
		t2, bref, err := tyRef(strings.TrimSpace(parts[2]))
		if err != nil {
			return nil, nil, nil, err
		}
		return &Instr{Op: OpSelect, Ty: t1},
			[]string{cref, aref, bref}, []*Type{I1, t1, t2}, nil
	case word == "trunc" || word == "zext" || word == "sext" || word == "bitcast":
		// OP TY %v to TY2
		toIdx := strings.LastIndex(rest, " to ")
		if toIdx < 0 {
			return nil, nil, nil, fmt.Errorf("bad cast")
		}
		fromTy, ref, err := tyRef(strings.TrimSpace(rest[:toIdx]))
		if err != nil {
			return nil, nil, nil, err
		}
		toTy, err := parseType(rest[toIdx+4:])
		if err != nil {
			return nil, nil, nil, err
		}
		ops := map[string]Op{"trunc": OpTrunc, "zext": OpZExt, "sext": OpSExt, "bitcast": OpBitCast}
		return &Instr{Op: ops[word], Ty: toTy}, []string{ref}, []*Type{fromTy}, nil
	default:
		if op, ok := opByName[word]; ok {
			// OP TY a, b
			sp := strings.IndexByte(rest, ' ')
			ty, err := parseType(rest[:sp])
			if err != nil {
				return nil, nil, nil, err
			}
			ab := splitRefs(rest[sp+1:])
			if len(ab) != 2 {
				return nil, nil, nil, fmt.Errorf("bad binary operands")
			}
			return &Instr{Op: op, Ty: ty}, ab, []*Type{ty, ty}, nil
		}
	}
	// Typed call: "%x = call TY @f(...)" arrives as word=="call" above only
	// for void; the valued form has body "call TY @f(...)".
	if strings.HasPrefix(body, "call ") {
		return fp.parseCall(nil, strings.TrimPrefix(body, "call "))
	}
	return nil, nil, nil, fmt.Errorf("unknown instruction %q", word)
}

func (fp *funcParse) parseCall(voidTy *Type, rest string) (*Instr, []string, []*Type, error) {
	// [TY] @callee(args)
	at := strings.Index(rest, "@")
	if at < 0 {
		return nil, nil, nil, fmt.Errorf("bad call %q", rest)
	}
	ty := voidTy
	if tyStr := strings.TrimSpace(rest[:at]); tyStr != "" {
		var err error
		ty, err = parseType(tyStr)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	open := strings.Index(rest, "(")
	callee := rest[at+1 : open]
	cf := fp.p.fns[callee]
	if cf == nil {
		return nil, nil, nil, fmt.Errorf("unknown callee @%s", callee)
	}
	if ty == nil {
		ty = cf.f.Ret
	}
	argStr := strings.Trim(rest[open:], "() ")
	args := splitRefs(argStr)
	tys := make([]*Type, len(args))
	for i := range args {
		if i < len(cf.f.Params) {
			tys[i] = cf.f.Params[i].Ty
		} else {
			tys[i] = I64
		}
	}
	return &Instr{Op: OpCall, Ty: ty, Callee: cf.f}, args, tys, nil
}

// tyRef splits "TY %ref" / "TY 42".
func tyRef(s string) (*Type, string, error) {
	sp := strings.LastIndexByte(s, ' ')
	if sp < 0 {
		return nil, "", fmt.Errorf("expected type and ref in %q", s)
	}
	ty, err := parseType(s[:sp])
	if err != nil {
		return nil, "", err
	}
	return ty, strings.TrimSpace(s[sp+1:]), nil
}

func labelRef(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "label ")
	return strings.TrimPrefix(s, "%")
}

func splitRefs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}

// resolve rewrites textual operands into values once every definition in
// the function exists.
func (fp *funcParse) resolve() error {
	lookup := func(ref string, ty *Type) (Value, error) {
		switch {
		case ref == "undef":
			return &Undef{Ty: ty}, nil
		case strings.HasPrefix(ref, "@"):
			g := fp.p.m.Global(strings.TrimPrefix(ref, "@"))
			if g == nil {
				return nil, fmt.Errorf("unknown global %s", ref)
			}
			return g, nil
		case strings.HasPrefix(ref, "%"):
			name := strings.TrimPrefix(ref, "%")
			if in, ok := fp.defs[name]; ok {
				return in, nil
			}
			for _, p := range fp.f.Params {
				if p.Name == name {
					return p, nil
				}
			}
			return nil, fmt.Errorf("unknown value %s", ref)
		default:
			v, err := strconv.ParseInt(ref, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad operand %q", ref)
			}
			if ty == nil || !ty.IsInt() {
				ty = I64
			}
			return ConstInt(ty, v), nil
		}
	}
	for _, pe := range fp.pend {
		for i, ref := range pe.refs {
			v, err := lookup(ref, pe.tys[i])
			if err != nil {
				return err
			}
			pe.in.Args = append(pe.in.Args, v)
		}
	}
	return nil
}
