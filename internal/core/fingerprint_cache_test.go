package core

import (
	"math/rand"
	"reflect"
	"testing"

	"autophase/internal/hls"
	"autophase/internal/interp"
	"autophase/internal/ir"
	"autophase/internal/passes"
	"autophase/internal/progen"
	"autophase/internal/search"
)

// TestSeqKeyWideIndices pins the two-byte sequence encoding: pass indices
// that collide modulo 256 must key differently, and the byte-prefix ⟺
// sequence-prefix equivalence the IR cache depends on must hold.
func TestSeqKeyWideIndices(t *testing.T) {
	if seqKey([]int{1, 2}) == seqKey([]int{257, 2}) {
		t.Fatal("indices 1 and 257 alias under seqKey")
	}
	if seqKey([]int{0}) == seqKey([]int{256}) {
		t.Fatal("indices 0 and 256 alias under seqKey")
	}
	seq := []int{38, 31, 300, 7, 45}
	key := seqKey(seq)
	if len(key) != 2*len(seq) {
		t.Fatalf("key length %d, want %d", len(key), 2*len(seq))
	}
	for i := 0; i <= len(seq); i++ {
		if seqKey(seq[:i]) != key[:2*i] {
			t.Fatalf("prefix of length %d does not match key prefix", i)
		}
	}
}

// TestFingerprintCollisionBehaviour pins what happens when two modules hash
// to the same fingerprint: the store treats them as equal and the second
// sequence silently shares the first profile. The test fabricates the
// "collision" by pre-publishing a sentinel profile under the fingerprint a
// sequence is about to produce.
func TestFingerprintCollisionBehaviour(t *testing.T) {
	p := mustProgram(t, "matmul")
	seq := []int{38, 31}
	m := p.Module()
	passes.Apply(m, seq)
	fp := m.Fingerprint()

	const sentinelCycles, sentinelArea = 123456789, 777
	p.fpPublish(fp, sentinelCycles, sentinelArea)

	cycles, area, ok := p.CompileArea(seq)
	if !ok {
		t.Fatal("compile failed")
	}
	if cycles != sentinelCycles || area != sentinelArea {
		t.Fatalf("colliding sequence did not share the stored profile: got (%d,%d), want (%d,%d)",
			cycles, area, sentinelCycles, sentinelArea)
	}
	st := p.EvalStats()
	if st.FPHits != 1 || st.Compiles != 0 {
		t.Fatalf("fp-hits=%d compiles=%d, want exactly one shared hit and no physical compile",
			st.FPHits, st.Compiles)
	}
}

// TestStaleSeqIndexRecovers drives the degenerate white-box state where a
// sequence-index entry outlives its fingerprint-store record (fabricated by
// clearing the store directly): the next Compile must fall through to a
// clean recompute instead of returning garbage.
func TestStaleSeqIndexRecovers(t *testing.T) {
	p := mustProgram(t, "matmul")
	seq := []int{38, 31, 30}
	c1, _, ok := p.Compile(seq)
	if !ok {
		t.Fatal("compile failed")
	}
	p.mu.Lock()
	p.fpEntries = make(map[ir.Fingerprint]*fpEntry)
	p.mu.Unlock()

	c2, _, ok := p.Compile(seq)
	if !ok || c2 != c1 {
		t.Fatalf("stale index recompute: got (%d,%v), want (%d,true)", c2, ok, c1)
	}
}

// TestSetLimitsKeepsVectors pins what SetLimits keeps: the fingerprint
// records lose their profile verdicts but not their feature vectors. With
// feature extraction rigged to panic, recompiling after SetLimits must
// re-profile every record without a single re-extraction, which would show
// up as a feature-stage fault. It also pins what SetLimits charges: every
// sequence loses its verdict, so each pays one sample with no cache hit,
// each distinct IR is profiled once, and a sequence whose IR another one
// re-profiled first is an fp-hit — lowerinvoke and loweratomic are no-ops,
// so {38, 2, 44} and {38, 44} converge on one IR.
func TestSetLimitsKeepsVectors(t *testing.T) {
	p := mustProgram(t, "gsm")
	seqs := [][]int{passes.O3Sequence[:6], {38, 31, 30}, {38, 2, 44}, {12, 3, 5, 20}, {38, 44}}
	type want struct {
		cycles int64
		feats  []int64
	}
	wants := make([]want, len(seqs))
	distinct := make(map[ir.Fingerprint]bool)
	for i, s := range seqs {
		c, f, ok := p.Compile(s)
		if !ok {
			t.Fatalf("seq %v: compile failed", s)
		}
		wants[i] = want{c, f}
		m := p.Module()
		passes.Apply(m, s)
		distinct[m.Fingerprint()] = true
	}
	if len(distinct) != len(seqs)-1 {
		t.Fatalf("%d distinct IRs over %d sequences, want exactly one converging pair", len(distinct), len(seqs))
	}

	p.SetLimits(interp.DefaultLimits)
	enableFaults(t, "feature-panic:1")
	before := p.EvalStats()
	for i, s := range seqs {
		c, f, ok := p.Compile(s)
		if !ok || c != wants[i].cycles || !reflect.DeepEqual(f, wants[i].feats) {
			t.Fatalf("seq %v after SetLimits: (%d,%v), want (%d,true) with the same features",
				s, c, ok, wants[i].cycles)
		}
	}
	after := p.EvalStats()
	if d := after.Faults - before.Faults; d != 0 {
		t.Fatalf("%d feature faults: SetLimits dropped stored vectors", d)
	}
	got := [4]int64{after.Samples - before.Samples, after.CacheHits - before.CacheHits,
		after.Compiles - before.Compiles, after.FPHits - before.FPHits}
	if wantD := [4]int64{int64(len(seqs)), 0, int64(len(distinct)), int64(len(seqs) - len(distinct))}; got != wantD {
		t.Fatalf("after SetLimits: samples, cache-hits, compiles, fp-hits grew by %v, want %v", got, wantD)
	}
}

// TestFingerprintSharedMatchesFresh is the sharing differential: every
// result served through the fingerprint store on a long-lived Program must
// be identical to a fresh Program compiling the sequence from scratch, on
// every benchmark, and a cross-checked profile must reproduce the stored
// verdicts from the optimized IR alone.
func TestFingerprintSharedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, name := range progen.BenchmarkNames {
		shared := mustProgram(t, name)
		pipelines := [][]int{
			passes.O3Sequence[:10],
			{2, 44, 2, 44}, // pure no-op pipeline: resolves to the O0 profile
		}
		pipelines = append(pipelines, randSeqs(rng, 3, 6)...)
		// Duplicate each pipeline with a no-op suffix so fingerprint sharing
		// actually triggers on every benchmark.
		for _, s := range pipelines[:len(pipelines):len(pipelines)] {
			pipelines = append(pipelines, append(append([]int(nil), s...), 2, 44))
		}
		for _, seq := range pipelines {
			sc, sa, sok := shared.CompileArea(seq)
			fresh := mustProgram(t, name)
			fc, fa, fok := fresh.CompileArea(seq)
			if sc != fc || sa != fa || sok != fok {
				t.Fatalf("%s seq %v: shared (%d,%d,%v) != fresh (%d,%d,%v)",
					name, seq, sc, sa, sok, fc, fa, fok)
			}
			if !reflect.DeepEqual(shared.FeaturesAfter(seq), fresh.FeaturesAfter(seq)) {
				t.Fatalf("%s seq %v: shared features differ from fresh", name, seq)
			}
			if sok {
				// Recompute-and-compare from the optimized IR alone, on the
				// fully cross-checked path.
				m := fresh.Module()
				passes.Apply(m, seq)
				rep, err := hls.NewProfiler(hls.ProfileOptions{CrossCheck: true}).Profile(m)
				if err != nil {
					t.Fatalf("%s seq %v: recheck: %v", name, seq, err)
				}
				if rep.Cycles != sc || int64(rep.AreaLUT) != sa {
					t.Fatalf("%s seq %v: recomputed cycles %d / area %d, stored cycles %d / area %d",
						name, seq, rep.Cycles, rep.AreaLUT, sc, sa)
				}
			}
		}
		if st := shared.EvalStats(); st.FPHits == 0 {
			t.Fatalf("%s: no fingerprint sharing across %d pipelines", name, len(pipelines))
		}
	}
}

// TestSanitizedDifferentialAgreesWithShared runs the same workload through
// a sanitized Program — which never takes the fingerprint shortcut and
// cross-checks the store against every recompute — and requires zero
// mismatches and zero sanitizer reports.
func TestSanitizedDifferentialAgreesWithShared(t *testing.T) {
	shared := mustProgram(t, "gsm")
	san := mustProgram(t, "gsm")
	san.EnableSanitizer()
	rng := rand.New(rand.NewSource(33))
	seqs := append(randSeqs(rng, 4, 5), passes.O3Sequence[:8], []int{2, 44})
	for _, seq := range seqs {
		sc, _, sok := shared.Compile(seq)
		dc, _, dok := san.Compile(seq)
		if sok != dok || (sok && sc != dc) {
			t.Fatalf("seq %v: shared (%d,%v) vs sanitized (%d,%v)", seq, sc, sok, dc, dok)
		}
	}
	if rep := san.SanitizerReport(); rep != nil {
		t.Fatalf("sanitizer report on a clean workload:\n%v", rep)
	}
	if st := san.EvalStats(); st.FPMismatches != 0 {
		t.Fatalf("fingerprint store disagreed with %d sanitized recomputes", st.FPMismatches)
	}
}

// TestGeneticProfileSharing is the headline acceptance check: on a genetic
// search, fingerprint sharing must answer at least as many distinct
// sequences as physical profiling does — i.e. the physical profile count is
// at most half of what the one-level cache (Compiles+FPHits) would have
// paid.
func TestGeneticProfileSharing(t *testing.T) {
	p := mustProgram(t, "matmul")
	obj := NewEvaluator(p, 1).Objective(8)
	search.Genetic(obj, rand.New(rand.NewSource(9)), search.DefaultGA(), 120)
	st := p.EvalStats()
	if st.Compiles == 0 || st.FPHits == 0 {
		t.Fatalf("degenerate run: compiles=%d fp-hits=%d", st.Compiles, st.FPHits)
	}
	if st.FPHits < st.Compiles {
		t.Fatalf("fingerprint sharing below 2x: compiles=%d fp-hits=%d (one-level cache would pay %d)",
			st.Compiles, st.FPHits, st.Compiles+st.FPHits)
	}
}
