package passes_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"autophase/internal/ir"
	"autophase/internal/passes"
	"autophase/internal/progen"
)

// refDom is a reference dominator tree: the Cooper–Harvey–Kennedy
// algorithm over pointer-keyed maps, reading predecessors from
// Block.Preds on every query.
type refDom struct {
	order []*ir.Block
	rpo   map[*ir.Block]int
	idom  map[*ir.Block]*ir.Block
}

func newRefDom(f *ir.Func) *refDom {
	rd := &refDom{rpo: map[*ir.Block]int{}, idom: map[*ir.Block]*ir.Block{}}
	if len(f.Blocks) == 0 {
		return rd
	}
	seen := map[*ir.Block]bool{}
	var post []*ir.Block
	var dfs func(*ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i := len(post) - 1; i >= 0; i-- {
		rd.rpo[post[i]] = len(rd.order)
		rd.order = append(rd.order, post[i])
	}
	entry := f.Entry()
	rd.idom[entry] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range rd.order[1:] {
			var nd *ir.Block
			for _, p := range b.Preds() {
				if _, ok := rd.idom[p]; !ok {
					continue
				}
				if nd == nil {
					nd = p
					continue
				}
				a := p
				for a != nd {
					for rd.rpo[a] > rd.rpo[nd] {
						a = rd.idom[a]
					}
					for rd.rpo[nd] > rd.rpo[a] {
						nd = rd.idom[nd]
					}
				}
			}
			if nd != nil && rd.idom[b] != nd {
				rd.idom[b] = nd
				changed = true
			}
		}
	}
	return rd
}

func (rd *refDom) idomOf(b *ir.Block) *ir.Block {
	if d := rd.idom[b]; d != b {
		return d
	}
	return nil
}

func (rd *refDom) dominates(a, b *ir.Block) bool {
	if _, ok := rd.idom[b]; !ok {
		return false
	}
	for ; a != b; b = rd.idom[b] {
		if rd.idom[b] == b {
			return false
		}
	}
	return true
}

func (rd *refDom) frontier() map[*ir.Block][]*ir.Block {
	df := map[*ir.Block][]*ir.Block{}
	for _, b := range rd.order {
		preds := b.Preds()
		if len(preds) < 2 {
			continue
		}
		for _, p := range preds {
			if _, ok := rd.idom[p]; !ok {
				continue
			}
			for r := p; r != rd.idom[b]; r = rd.idom[r] {
				if !containsBlock(df[r], b) {
					df[r] = append(df[r], b)
				}
				if r == rd.idom[r] {
					break
				}
			}
		}
	}
	return df
}

// refLoop is a reference natural loop; parent is an index into the same
// slice (-1 for none).
type refLoop struct {
	header        *ir.Block
	body, latches []*ir.Block
	parent, depth int
}

func refLoops(f *ir.Func, rd *refDom) []refLoop {
	var loops []refLoop
	find := func(h *ir.Block) int {
		for i := range loops {
			if loops[i].header == h {
				return i
			}
		}
		return -1
	}
	for _, b := range rd.order {
		for _, s := range b.Succs() {
			if !rd.dominates(s, b) {
				continue
			}
			i := find(s)
			if i < 0 {
				loops = append(loops, refLoop{header: s, parent: -1})
				i = len(loops) - 1
			}
			loops[i].latches = append(loops[i].latches, b)
		}
	}
	for i := range loops {
		l := &loops[i]
		in := map[*ir.Block]bool{l.header: true}
		stack := []*ir.Block{}
		for _, lt := range l.latches {
			if !in[lt] {
				in[lt] = true
				stack = append(stack, lt)
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range b.Preds() {
				if !in[p] {
					in[p] = true
					stack = append(stack, p)
				}
			}
		}
		for _, b := range f.Blocks {
			if in[b] {
				l.body = append(l.body, b)
			}
		}
	}
	for i := range loops {
		for j := range loops {
			if i == j || !containsBlock(loops[j].body, loops[i].header) {
				continue
			}
			if p := loops[i].parent; p < 0 || len(loops[j].body) < len(loops[p].body) {
				loops[i].parent = j
			}
		}
	}
	for i := range loops {
		loops[i].depth = 1
		for p := loops[i].parent; p >= 0; p = loops[p].parent {
			loops[i].depth++
		}
	}
	return loops
}

func containsBlock(bs []*ir.Block, b *ir.Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

func sameBlocks(a, b []*ir.Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func blockNames(bs []*ir.Block) []string {
	var s []string
	for _, b := range bs {
		s = append(s, b.Name)
	}
	return s
}

// checkDom compares dt's answers about f's current blocks against rd.
func checkDom(t *testing.T, where string, f *ir.Func, dt *ir.DomTree, rd *refDom) {
	t.Helper()
	if !sameBlocks(dt.RPO(), rd.order) {
		t.Fatalf("%s @%s: RPO %v, reference %v", where, f.Name, blockNames(dt.RPO()), blockNames(rd.order))
	}
	kids := dt.Children()
	for _, b := range f.Blocks {
		if got, want := dt.IDom(b), rd.idomOf(b); got != want {
			t.Fatalf("%s @%s: IDom(%s) = %v, reference %v", where, f.Name, b.Name, got, want)
		}
		if _, want := rd.rpo[b]; dt.Reachable(b) != want {
			t.Fatalf("%s @%s: Reachable(%s) = %v, reference %v", where, f.Name, b.Name, !want, want)
		}
		var want []*ir.Block
		for _, c := range f.Blocks {
			if rd.idomOf(c) == b {
				want = append(want, c)
			}
		}
		if got := kids.Of(b); !sameBlocks(got, want) {
			t.Fatalf("%s @%s: Children(%s) = %v, reference %v", where, f.Name, b.Name, blockNames(got), blockNames(want))
		}
		for _, a := range f.Blocks {
			if got, want := dt.Dominates(a, b), rd.dominates(a, b); got != want {
				t.Fatalf("%s @%s: Dominates(%s, %s) = %v, reference %v", where, f.Name, a.Name, b.Name, got, want)
			}
		}
	}
	got, want := dt.Frontier(), rd.frontier()
	if len(got) != len(want) {
		t.Fatalf("%s @%s: frontier has %d blocks, reference %d", where, f.Name, len(got), len(want))
	}
	for b, w := range want {
		if !sameBlocks(got[b], w) {
			t.Fatalf("%s @%s: DF(%s) = %v, reference %v", where, f.Name, b.Name, blockNames(got[b]), blockNames(w))
		}
	}
}

// checkCFGAnalyses compares NewDomTree, its predecessor table and
// FindLoops with the references for every function of m.
func checkCFGAnalyses(t *testing.T, where string, m *ir.Module) {
	t.Helper()
	for _, f := range m.Funcs {
		if len(f.Blocks) == 0 {
			continue
		}
		dt := ir.NewDomTree(f)
		rd := newRefDom(f)
		checkDom(t, where, f, dt, rd)
		for _, b := range f.Blocks {
			if got, want := dt.Preds(b), b.Preds(); !sameBlocks(got, want) {
				t.Fatalf("%s @%s: Preds(%s) = %v, Block.Preds %v", where, f.Name, b.Name, blockNames(got), blockNames(want))
			}
		}
		loops, ref := ir.FindLoops(f, dt), refLoops(f, rd)
		if len(loops) != len(ref) {
			t.Fatalf("%s @%s: %d loops, reference %d", where, f.Name, len(loops), len(ref))
		}
		for i, l := range loops {
			r := ref[i]
			parent := -1
			for j, o := range loops {
				if l.Parent == o {
					parent = j
				}
			}
			if l.Header != r.header || !sameBlocks(l.Body, r.body) || !sameBlocks(l.Latches, r.latches) ||
				parent != r.parent || l.Depth != r.depth {
				t.Fatalf("%s @%s: loop %d = {%s body %v latches %v parent %d depth %d}, reference {%s body %v latches %v parent %d depth %d}",
					where, f.Name, i, l.Header.Name, blockNames(l.Body), blockNames(l.Latches), parent, l.Depth,
					r.header.Name, blockNames(r.body), blockNames(r.latches), r.parent, r.depth)
			}
		}
	}
}

// checkCachedAnalyses compares f.Dom and f.Loops with a fresh
// NewDomTree and FindLoops for every function of m. Asking leaves every
// function with a cached tree and loops, which the next pass may change
// the CFG under.
func checkCachedAnalyses(t *testing.T, where string, m *ir.Module) {
	t.Helper()
	for _, f := range m.Funcs {
		loops := f.Loops()
		dt := f.Dom()
		ref := ir.NewDomTree(f)
		if !sameBlocks(dt.RPO(), ref.RPO()) {
			t.Fatalf("%s @%s: cached RPO %v, fresh %v", where, f.Name, blockNames(dt.RPO()), blockNames(ref.RPO()))
		}
		for _, b := range f.Blocks {
			if dt.IDom(b) != ref.IDom(b) || dt.Reachable(b) != ref.Reachable(b) || !sameBlocks(dt.Preds(b), ref.Preds(b)) {
				t.Fatalf("%s @%s: cached tree disagrees at %s: idom %v preds %v, fresh %v %v",
					where, f.Name, b.Name, dt.IDom(b), blockNames(dt.Preds(b)), ref.IDom(b), blockNames(ref.Preds(b)))
			}
		}
		fresh := ir.FindLoops(f, ref)
		if len(loops) != len(fresh) {
			t.Fatalf("%s @%s: %d cached loops, fresh %d", where, f.Name, len(loops), len(fresh))
		}
		for i, l := range loops {
			r := fresh[i]
			if l.Dom() != dt || l.Header != r.Header || !sameBlocks(l.Body, r.Body) || !sameBlocks(l.Latches, r.Latches) ||
				l.Depth != r.Depth || (l.Parent == nil) != (r.Parent == nil) || l.Parent != nil && l.Parent.Header != r.Parent.Header {
				t.Fatalf("%s @%s: cached loop %d {%s body %v latches %v depth %d}, fresh {%s body %v latches %v depth %d}",
					where, f.Name, i, l.Header.Name, blockNames(l.Body), blockNames(l.Latches), l.Depth,
					r.Header.Name, blockNames(r.Body), blockNames(r.Latches), r.Depth)
			}
		}
	}
}

// TestCFGAnalysesMatchReference runs the nine benchmarks through every
// prefix of the -O3 pipeline and checks the dominator tree and loop finder
// against the references after each pass. After each pass of -O3, and of
// 20 seeded random 18-pass sequences on a copy-on-write clone, the cached
// f.Dom and f.Loops must equal fresh ones.
func TestCFGAnalysesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for i, base := range progen.Benchmarks() {
		m := base.Clone()
		name := progen.BenchmarkNames[i]
		checkCFGAnalyses(t, name+" O0", m)
		checkCachedAnalyses(t, name+" O0", m)
		for k, p := range passes.O3Sequence {
			passes.Apply(m, []int{p})
			where := name + " O3[" + strconv.Itoa(k) + "]"
			checkCFGAnalyses(t, where, m)
			checkCachedAnalyses(t, where, m)
		}
		for s := 0; s < 20; s++ {
			m := base.CloneCOW()
			for k := 0; k < 18; k++ {
				p := r.Intn(passes.NumActions)
				passes.Apply(m, []int{p})
				checkCachedAnalyses(t, name+" seq"+strconv.Itoa(s)+"["+strconv.Itoa(k)+"]="+passes.Table1Names[p], m)
			}
		}
	}
}

// TestCFGAnalysesMatchReferenceCorpus does the same (references and
// cache) for the modules and pass sequences of the checked-in fuzz
// corpora, built the way the fuzz targets build them.
func TestCFGAnalysesMatchReferenceCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files (%v)", err)
	}
	for _, path := range files {
		seed, raw := readCorpusEntry(t, path)
		var m *ir.Module
		if seed%4 == 0 {
			bs := progen.Benchmarks()
			m = bs[int(uint64(seed)%uint64(len(bs)))].Clone()
		} else {
			m = progen.Generate(seed, progen.DefaultGen)
		}
		where := filepath.Base(path)
		checkCFGAnalyses(t, where, m)
		checkCachedAnalyses(t, where, m)
		for k, b := range []byte(raw) {
			idx := int(b) % passes.NumActions
			if idx == passes.TerminateIndex {
				continue
			}
			passes.Apply(m, []int{idx})
			checkCFGAnalyses(t, where+"["+strconv.Itoa(k)+"]", m)
			checkCachedAnalyses(t, where+"["+strconv.Itoa(k)+"]", m)
		}
	}
}

// TestCFGAnalysesDuplicateEdges covers the shapes the generated programs
// lack: a conditional branch with both targets equal (a duplicate edge
// that predecessor lists fold and latch lists keep), a header reached by
// two latches, and a nested loop.
func TestCFGAnalysesDuplicateEdges(t *testing.T) {
	m, err := ir.Parse(`define i32 @main(i32 %x) {
entry:
  %c = icmp slt i32 %x, 10
  br i1 %c, label %outer, label %outer
outer:
  br label %inner
inner:
  br i1 %c, label %inner, label %inner.exit
inner.exit:
  br i1 %c, label %outer, label %latch2
latch2:
  br i1 %c, label %outer, label %outer
}
`)
	if err != nil {
		t.Fatal(err)
	}
	checkCFGAnalyses(t, "duplicate edges", m)
	f := m.Funcs[0]
	for _, l := range ir.FindLoops(f, ir.NewDomTree(f)) {
		if l.Header.Name == "outer" && len(l.Latches) != 3 {
			t.Fatalf("outer loop has %d latch edges, want 3 (one per back edge)", len(l.Latches))
		}
	}
}

// TestCFGAnalysesOutsideSuccessors covers malformed IR whose branches
// reach blocks that are no longer in f.Blocks: the tree numbers them after
// f's blocks and walks through them, they are nobody's predecessor, and a
// back edge from one is a latch left out of the loop body.
func TestCFGAnalysesOutsideSuccessors(t *testing.T) {
	m, err := ir.Parse(`define i32 @main(i32 %x) {
entry:
  %c = icmp slt i32 %x, 10
  br label %head
head:
  br i1 %c, label %gone1, label %exit
gone1:
  br i1 %c, label %gone2, label %head
gone2:
  br label %head
exit:
  ret i32 %x
}
`)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Funcs[0]
	gone1, gone2 := f.Blocks[2], f.Blocks[3]
	f.RemoveBlock(gone1)
	f.RemoveBlock(gone2)
	checkCFGAnalyses(t, "outside successors", m)

	dt := ir.NewDomTree(f)
	if got := blockNames(dt.RPO()); strings.Join(got, " ") != "entry head exit gone1 gone2" {
		t.Fatalf("RPO %v", got)
	}
	if dt.IDom(gone1) != f.Blocks[1] {
		t.Fatalf("IDom(gone1) = %v, want head", dt.IDom(gone1))
	}
	for _, b := range []*ir.Block{gone1, gone2} {
		if !dt.Reachable(b) {
			t.Fatalf("%s unreachable", b.Name)
		}
		if got, want := dt.Preds(b), b.Preds(); !sameBlocks(got, want) {
			t.Fatalf("Preds(%s) = %v, Block.Preds %v", b.Name, blockNames(got), blockNames(want))
		}
	}
	// gone2 has no predecessor in f, so nothing dominates it and its edge
	// to head is no back edge.
	loops := ir.FindLoops(f, dt)
	if len(loops) != 1 {
		t.Fatalf("%d loops, want 1", len(loops))
	}
	if l := loops[0]; !sameBlocks(l.Body, []*ir.Block{f.Blocks[1]}) || !sameBlocks(l.Latches, []*ir.Block{gone1}) {
		t.Fatalf("loop body %v latches %v, want [head] [gone1]", blockNames(l.Body), blockNames(l.Latches))
	}
}

// readCorpusEntry parses a "go test fuzz v1" file holding an int64 and a
// []byte.
func readCorpusEntry(t *testing.T, path string) (int64, string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: unexpected corpus format", path)
	}
	seed, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(lines[1], "int64("), ")"), 10, 64)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	raw, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return seed, raw
}

// TestDomTreeStale pins what a tree answers after the function changed
// under it: every block keeps the number, dominators and frontier it had
// when the tree was built, even though removing a block shifts the
// positions of the blocks after it in f.Blocks.
func TestDomTreeStale(t *testing.T) {
	const src = `define i32 @main(i32 %x) {
entry:
  %c = icmp slt i32 %x, 10
  br i1 %c, label %a, label %b
dead:
  br label %join
a:
  br label %join
b:
  br label %join
join:
  ret i32 %x
}
`
	for _, remove := range []string{"dead", "b"} {
		m, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		f := m.Funcs[0]
		blk := map[string]*ir.Block{}
		for _, b := range f.Blocks {
			blk[b.Name] = b
		}
		dt := ir.NewDomTree(f)
		rd := newRefDom(f)
		df := rd.frontier()
		f.RemoveBlock(blk[remove])

		if got := blockNames(dt.RPO()); strings.Join(got, " ") != "entry b a join" {
			t.Fatalf("remove %s: RPO %v", remove, got)
		}
		entry, a, b, join := blk["entry"], blk["a"], blk["b"], blk["join"]
		for _, x := range []*ir.Block{a, b, join} {
			if dt.IDom(x) != entry || !dt.Dominates(entry, x) {
				t.Fatalf("remove %s: IDom(%s) = %v, want entry", remove, x.Name, dt.IDom(x))
			}
		}
		if dt.IDom(blk["dead"]) != nil || dt.Dominates(entry, blk["dead"]) {
			t.Fatalf("remove %s: unreachable block dominated", remove)
		}
		if !dt.Dominates(b, b) || dt.Dominates(b, join) || dt.Dominates(a, b) {
			t.Fatalf("remove %s: dominance among a, b, join changed", remove)
		}
		got := dt.Frontier()
		if len(got) != 2 || !sameBlocks(got[a], []*ir.Block{join}) || !sameBlocks(got[b], []*ir.Block{join}) {
			t.Fatalf("remove %s: frontier %v", remove, got)
		}
		if remove == "dead" {
			// Removing an unreachable block changes no live predecessor of
			// a reachable block, so the live reference agrees too.
			checkDom(t, "stale", f, dt, rd)
			if len(rd.frontier()) != len(df) {
				t.Fatal("reference frontier changed")
			}
		}
		// A block added after the tree was built is unknown to it.
		nb := f.NewBlock("late")
		if dt.IDom(nb) != nil || dt.Dominates(entry, nb) || dt.Dominates(nb, nb) || dt.Preds(nb) != nil {
			t.Fatalf("remove %s: tree answers for a block it never saw", remove)
		}
	}
}
