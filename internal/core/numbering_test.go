package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"autophase/internal/features"
	"autophase/internal/hls"
	"autophase/internal/ir"
	"autophase/internal/passes"
	"autophase/internal/progen"
)

// TestPassResultsIgnorePrinting: printing a module numbers its unnamed
// instructions, and a pass result must not depend on those numbers. Over
// the step-table test's modules and query streams, a sequence run with the
// module printed before every pass (as -sanitize does) must reach the
// fingerprint plain passes.RunSequence reaches. GVN and early-cse once
// ordered commutative operands by their printed reference, so the printed
// run canonicalized some operand pairs the other way.
func TestPassResultsIgnorePrinting(t *testing.T) {
	mods := progen.Benchmarks()
	seed := int64(700)
	for i := 0; i < 30; i++ {
		m, used := progen.GenerateFiltered(seed, progen.DefaultGen)
		seed = used + 1
		mods = append(mods, m)
	}
	n := 40
	if testing.Short() || raceBuild {
		mods, n = mods[:12], 15
	}
	for mi, m := range mods {
		t.Run(fmt.Sprintf("%s#%d", m.Name, mi), func(t *testing.T) {
			for _, seq := range stepTableSeqs(rand.New(rand.NewSource(int64(mi)+1)), n) {
				r, _ := passes.RunSequence(m, seq)
				want := r.Fingerprint()
				w := m.Clone()
				for i := 0; i < len(seq) && seq[i] != passes.TerminateIndex; i++ {
					_ = w.String()
					passes.Step(w, seq[i], i)
				}
				w.Seal()
				if got := w.Fingerprint(); got != want {
					t.Fatalf("%v: printing before every pass gives %s, RunSequence %s", seq, got, want)
				}
			}
		})
	}
}

// TestPublishedModuleReadersWriteNoNumber: every module a Program
// publishes (its original and each resident optimized module) is numbered
// (ir.Func.Number), so its readers only read the numbers. Concurrent
// printing, fingerprinting, feature extraction, copy-on-write pass runs
// and HLS profiling of one published module must leave it unchanged;
// under the race detector a reader that wrote a number is a reported race.
func TestPublishedModuleReadersWriteNoNumber(t *testing.T) {
	p := mustProgram(t, "matmul")
	seqs := randSeqs(rand.New(rand.NewSource(3)), 8, 12)
	NewEvaluator(p, 1).EvalBatch(seqs)
	mods := []*ir.Module{p.orig}
	p.mu.Lock()
	for _, s := range seqs {
		if e := p.seqs[seqKey(s)]; e != nil && e.m != nil {
			mods = append(mods, e.m)
		}
	}
	p.mu.Unlock()
	numbered := func(m *ir.Module) {
		t.Helper()
		for _, f := range m.Funcs {
			k := 0
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Num() != k {
						t.Fatalf("%s: instruction %d of @%s has number %d", m.Name, k, f.Name, in.Num())
					}
					k++
				}
			}
		}
	}
	for _, m := range mods {
		numbered(m)
	}
	var wg sync.WaitGroup
	for mi, m := range mods {
		text, fp := m.String(), m.Fingerprint()
		for r := 0; r < 10; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				switch r % 5 {
				case 0:
					if m.String() != text {
						t.Errorf("module %d prints differently", mi)
					}
				case 1:
					if m.Fingerprint() != fp {
						t.Errorf("module %d fingerprints differently", mi)
					}
				case 2:
					features.Extract(m)
				case 3:
					passes.RunSequence(m, seqs[r%len(seqs)])
				case 4:
					if _, err := hls.NewProfiler(hls.ProfileOptions{}).Profile(m); err != nil {
						t.Errorf("module %d: %v", mi, err)
					}
				}
			}(r)
		}
	}
	wg.Wait()
	for _, m := range mods {
		numbered(m)
	}
}
