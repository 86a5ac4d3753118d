package analysis

import "autophase/internal/ir"

// This file is the interprocedural substrate: a direct call graph over the
// module's functions with Tarjan SCC condensation. Calls in this IR are
// always direct (an OpCall carries its *ir.Func callee), so the graph is
// exact, not a may-call approximation; a nil callee (broken IR) is recorded
// as an unknown edge on the node and makes every consumer conservative.

// CGNode is one function's node in the call graph.
type CGNode struct {
	Fn      *ir.Func
	Callees []*CGNode   // unique direct callees, in first-call order
	Callers []*CGNode   // unique direct callers, in discovery order
	Sites   []*ir.Instr // every OpCall instruction inside Fn
	// SCC is the index of the strongly connected component the node belongs
	// to in CallGraph.SCCs. Components are numbered callees-first: every
	// call edge leaving component i targets a component j < i (or i itself).
	SCC int
	// SelfLoop reports a direct self-call (recursion invisible to SCC size).
	SelfLoop bool
	// UnknownCallee reports a call site with a nil callee in Fn.
	UnknownCallee bool
}

// CallGraph is the module's direct call graph plus its SCC condensation.
type CallGraph struct {
	Nodes  []*CGNode // one per module function, in module order
	ByFunc map[*ir.Func]*CGNode
	// SCCs lists the strongly connected components in callees-first
	// (reverse topological) order: processing SCCs[0], SCCs[1], ... visits
	// every callee before any of its callers outside the component.
	SCCs [][]*CGNode
}

// ComputeCallGraph builds the call graph of m.
func ComputeCallGraph(m *ir.Module) *CallGraph {
	cg := &CallGraph{ByFunc: make(map[*ir.Func]*CGNode, len(m.Funcs))}
	for _, f := range m.Funcs {
		n := &CGNode{Fn: f, SCC: -1}
		cg.Nodes = append(cg.Nodes, n)
		cg.ByFunc[f] = n
	}
	for _, n := range cg.Nodes {
		seen := make(map[*CGNode]bool)
		n.Fn.ForEachInstr(func(_ *ir.Block, in *ir.Instr) {
			if in.Op != ir.OpCall {
				return
			}
			n.Sites = append(n.Sites, in)
			if in.Callee == nil {
				n.UnknownCallee = true
				return
			}
			c := cg.ByFunc[in.Callee]
			if c == nil {
				// Detached callee (the verifier flags it); treat as unknown.
				n.UnknownCallee = true
				return
			}
			if c == n {
				n.SelfLoop = true
			}
			if !seen[c] {
				seen[c] = true
				n.Callees = append(n.Callees, c)
				c.Callers = append(c.Callers, n)
			}
		})
	}
	cg.condense()
	return cg
}

// condense runs Tarjan's SCC algorithm (iterative, so deep call chains
// cannot overflow the Go stack). Tarjan emits components callees-first,
// which is exactly the bottom-up summary order.
func (cg *CallGraph) condense() {
	index := make(map[*CGNode]int)
	low := make(map[*CGNode]int)
	onStack := make(map[*CGNode]bool)
	var stack []*CGNode
	next := 0

	type frame struct {
		n  *CGNode
		ci int // next callee index to visit
	}
	for _, root := range cg.Nodes {
		if _, visited := index[root]; visited {
			continue
		}
		work := []frame{{n: root}}
		for len(work) > 0 {
			fr := &work[len(work)-1]
			n := fr.n
			if fr.ci == 0 {
				index[n] = next
				low[n] = next
				next++
				stack = append(stack, n)
				onStack[n] = true
			}
			recursed := false
			for fr.ci < len(n.Callees) {
				c := n.Callees[fr.ci]
				fr.ci++
				if _, seen := index[c]; !seen {
					work = append(work, frame{n: c})
					recursed = true
					break
				}
				if onStack[c] && index[c] < low[n] {
					low[n] = index[c]
				}
			}
			if recursed {
				continue
			}
			if low[n] == index[n] {
				var comp []*CGNode
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					top.SCC = len(cg.SCCs)
					comp = append(comp, top)
					if top == n {
						break
					}
				}
				cg.SCCs = append(cg.SCCs, comp)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].n
				if low[n] < low[p] {
					low[p] = low[n]
				}
			}
		}
	}
}

// Recursive reports whether f can (transitively) invoke itself: it sits in
// a multi-node SCC or calls itself directly.
func (cg *CallGraph) Recursive(f *ir.Func) bool {
	n := cg.ByFunc[f]
	if n == nil {
		return false
	}
	return n.SelfLoop || len(cg.SCCs[n.SCC]) > 1
}

// ReachableFrom returns the set of functions reachable from root through
// call edges, root included. A nil root yields an empty set.
func (cg *CallGraph) ReachableFrom(root *ir.Func) map[*ir.Func]bool {
	out := make(map[*ir.Func]bool)
	start := cg.ByFunc[root]
	if start == nil {
		return out
	}
	work := []*CGNode{start}
	out[root] = true
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range n.Callees {
			if !out[c.Fn] {
				out[c.Fn] = true
				work = append(work, c)
			}
		}
	}
	return out
}
