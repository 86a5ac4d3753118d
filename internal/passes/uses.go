package passes

import "autophase/internal/ir"

// useIndex is a flat snapshot of which instructions use each instruction of
// a function: the answer f.Uses gives, computed for every instruction in one
// sweep instead of one sweep per query. Users are stored compressed-row:
// the users of the instruction numbered i are users[off[i]:off[i+1]], in
// block order, each user once. i is the instruction's number
// (ir.Func.Number), checked against instrs.
//
// The snapshot is only as fresh as the IR it was built from. Callers build
// one where the IR is not rewritten between queries (an SCCP solve), or
// where every rewrite only redirects uses of the instruction already
// queried (one lcssa loop). Instructions created after the build, or
// outside f.Blocks, have no entry.
type useIndex struct {
	instrs []*ir.Instr // the instruction numbered i
	off    []int32
	users  []*ir.Instr
}

func newUseIndex(f *ir.Func) *useIndex {
	n := f.Number()
	x := &useIndex{instrs: make([]*ir.Instr, n), off: make([]int32, n+1)}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			x.instrs[in.Num()] = in
		}
	}
	// Count pass: off[i+1] collects the number of distinct users of i;
	// last[i] is the last user counted for i, so a user naming an operand
	// twice counts once.
	last := make([]int32, n)
	for i := range last {
		last[i] = -1
	}
	u := int32(0)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if i, ok := x.operand(a); ok && last[i] != u {
					last[i] = u
					x.off[i+1]++
				}
			}
			u++
		}
	}
	for i := 0; i < n; i++ {
		x.off[i+1] += x.off[i]
	}
	// Fill pass: next[i] is where i's next user goes; a user already
	// written last for i is the duplicate operand case.
	x.users = make([]*ir.Instr, x.off[n])
	next := last // reuse: every entry is overwritten
	copy(next, x.off[:n])
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				i, ok := x.operand(a)
				if !ok || (next[i] > x.off[i] && x.users[next[i]-1] == in) {
					continue
				}
				x.users[next[i]] = in
				next[i]++
			}
		}
	}
	return x
}

// operand returns the number of a when it is an instruction of the indexed
// function.
func (x *useIndex) operand(a ir.Value) (int32, bool) {
	in, ok := a.(*ir.Instr)
	if !ok {
		return 0, false
	}
	return x.num(in)
}

// num returns in's number when in is an instruction of the indexed
// function.
func (x *useIndex) num(in *ir.Instr) (int32, bool) {
	if k := in.Num(); k < len(x.instrs) && x.instrs[k] == in {
		return int32(k), true
	}
	return 0, false
}

// of returns the users of in, as f.Uses(in) would at build time. The slice
// aliases the index and must not be modified.
func (x *useIndex) of(in *ir.Instr) []*ir.Instr {
	i, ok := x.num(in)
	if !ok {
		return nil
	}
	return x.users[x.off[i]:x.off[i+1]:x.off[i+1]]
}
