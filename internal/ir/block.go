package ir

// Block is a basic block: a straight-line instruction sequence ending in
// exactly one terminator.
type Block struct {
	Name   string
	Instrs []*Instr
	parent *Func
}

// Parent returns the containing function.
func (b *Block) Parent() *Func { return b.parent }

// Term returns the block terminator, or nil if the block is unterminated
// (only legal mid-construction).
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.IsTerminator() {
		return nil
	}
	return last
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Targets()
}

// Preds returns the predecessor blocks, in function block order.
func (b *Block) Preds() []*Block {
	var preds []*Block
	for _, p := range b.parent.Blocks {
		for _, s := range p.Succs() {
			if s == b {
				preds = append(preds, p)
				break
			}
		}
	}
	return preds
}

// NumPreds returns len(b.Preds()) without building the list.
func (b *Block) NumPreds() int {
	n := 0
	for _, p := range b.parent.Blocks {
		for _, s := range p.Succs() {
			if s == b {
				n++
				break
			}
		}
	}
	return n
}

// NumPredEdges counts incoming CFG edges (a predecessor with two edges to b,
// e.g. a conditional branch with both targets b, counts twice).
func (b *Block) NumPredEdges() int {
	n := 0
	for _, p := range b.parent.Blocks {
		for _, s := range p.Succs() {
			if s == b {
				n++
			}
		}
	}
	return n
}

// Append adds an instruction at the end of the block and claims ownership.
func (b *Block) Append(in *Instr) *Instr {
	in.parent = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertBefore inserts in immediately before pos (which must be in b).
func (b *Block) InsertBefore(in *Instr, pos *Instr) {
	for i, x := range b.Instrs {
		if x == pos {
			in.parent = b
			b.Instrs = append(b.Instrs, nil)
			copy(b.Instrs[i+1:], b.Instrs[i:])
			b.Instrs[i] = in
			return
		}
	}
	b.Append(in)
}

// InsertBeforeTerm inserts in just before the terminator (or appends when
// the block is unterminated).
func (b *Block) InsertBeforeTerm(in *Instr) {
	if t := b.Term(); t != nil {
		b.InsertBefore(in, t)
		return
	}
	b.Append(in)
}

// Remove detaches instruction in from the block.
func (b *Block) Remove(in *Instr) {
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			in.parent = nil
			return
		}
	}
}

// Phis returns a copy of the leading phi instructions of the block (nil
// when there are none), so the caller may change the block while ranging
// over it. A caller that only reads can range over b.Instrs[:b.NumPhis()].
func (b *Block) Phis() []*Instr {
	n := b.NumPhis()
	if n == 0 {
		return nil
	}
	return append([]*Instr(nil), b.Instrs[:n]...)
}

// NumPhis returns the number of leading phi instructions.
func (b *Block) NumPhis() int {
	n := 0
	for n < len(b.Instrs) && b.Instrs[n].Op == OpPhi {
		n++
	}
	return n
}

// FirstNonPhi returns the first non-phi instruction (nil for an empty block).
func (b *Block) FirstNonPhi() *Instr {
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			return in
		}
	}
	return nil
}

// Index returns b's position in the parent function's block list, or -1.
func (b *Block) Index() int {
	for i, x := range b.parent.Blocks {
		if x == b {
			return i
		}
	}
	return -1
}

// IsEmptyForward reports whether the block contains only an unconditional
// branch (a pure forwarding block).
func (b *Block) IsEmptyForward() bool {
	return len(b.Instrs) == 1 && b.Instrs[0].Op == OpBr && len(b.Instrs[0].Blocks) == 1
}

// Prepend inserts an instruction at the head of the block (used for phi
// insertion by SSA construction). Like InsertBefore it shifts the
// instructions in place when the slice has room, so a caller ranging over
// b.Instrs must not prepend to b inside that loop.
func (b *Block) Prepend(in *Instr) {
	in.parent = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[1:], b.Instrs)
	b.Instrs[0] = in
}
