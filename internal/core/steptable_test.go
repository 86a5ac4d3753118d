package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"autophase/internal/features"
	"autophase/internal/hls"
	"autophase/internal/ir"
	"autophase/internal/passes"
	"autophase/internal/progen"
)

// stepTableSeqs is the query stream of one search on one Program, in the
// order it is evaluated: n seeded random 18-pass sequences, then genetic
// style children of them (a point mutation, which may be -terminate, or a
// one-point crossover of two), then RL-style episodes that extend a
// sequence one pass at a time.
func stepTableSeqs(rng *rand.Rand, n int) [][]int {
	seqs := randSeqs(rng, n, 18)
	pop := seqs[:n]
	for i := 0; i < n/4; i++ {
		a := pop[rng.Intn(len(pop))]
		c := slices.Clone(a)
		if i%2 == 0 {
			c[rng.Intn(len(c))] = rng.Intn(passes.NumPasses)
		} else {
			b := pop[rng.Intn(len(pop))]
			cut := 1 + rng.Intn(len(c)-1)
			copy(c[cut:], b[cut:])
		}
		seqs = append(seqs, c)
	}
	for ep := 0; ep < n/20; ep++ {
		var seq []int
		if ep%2 == 0 {
			// Start from a prefix of an evaluated sequence, so the
			// episode's steps share IR with earlier compiles.
			seq = slices.Clone(pop[rng.Intn(len(pop))][:rng.Intn(10)])
		}
		for len(seq) < 18 {
			seq = append(slices.Clone(seq), rng.Intn(passes.NumActions))
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

// stepTableWant is a sequence's result computed without any cache.
type stepTableWant struct {
	fp     ir.Fingerprint
	feats  []int64
	cycles int64
	ok     bool
}

// stepTableReference runs every sequence on its own. Features and cycles
// are pure in the IR, so they are computed once per fingerprint.
func stepTableReference(m *ir.Module, seqs [][]int) []stepTableWant {
	prof := hls.NewProfiler(hls.ProfileOptions{})
	byFP := make(map[ir.Fingerprint]stepTableWant)
	want := make([]stepTableWant, len(seqs))
	for i, seq := range seqs {
		r, _ := passes.RunSequence(m, seq)
		fp := r.Fingerprint()
		w, ok := byFP[fp]
		if !ok {
			w = stepTableWant{fp: fp, feats: features.Extract(r)}
			if rep, err := prof.Profile(r); err == nil {
				w.cycles, w.ok = rep.Cycles, true
			}
			byFP[fp] = w
		}
		want[i] = w
	}
	return want
}

// TestStepTableMatchesRunSequence checks the pass-step walk against plain
// passes.RunSequence on the nine benchmarks and 30 generated modules: every
// sequence of a search-like query stream must produce the fingerprint,
// feature vector and cycle count it produces on its own, with the default
// residency, with only 8 resident modules (so the walk continues from
// fingerprint-resident modules that prefix reuse no longer finds, and from
// evicted ones it must not), and with 8 workers sharing the table.
func TestStepTableMatchesRunSequence(t *testing.T) {
	mods := progen.Benchmarks()
	seed := int64(700)
	for i := 0; i < 30; i++ {
		m, used := progen.GenerateFiltered(seed, progen.DefaultGen)
		seed = used + 1
		mods = append(mods, m)
	}
	n := 200
	if testing.Short() || raceBuild {
		mods, n = mods[:12], 40
	}
	variants := []struct {
		name    string
		cap     int
		workers int
	}{
		{"cap=2048", 2048, 1},
		{"cap=8", 8, 1},
		{"workers=8", 2048, 8},
	}
	for mi, m := range mods {
		seqs := stepTableSeqs(rand.New(rand.NewSource(int64(mi)+1)), n)
		want := stepTableReference(m, seqs)
		for _, v := range variants {
			t.Run(fmt.Sprintf("%s#%d/%s", m.Name, mi, v.name), func(t *testing.T) {
				oldCap := irCacheCap
				irCacheCap = v.cap
				defer func() { irCacheCap = oldCap }()
				p, err := NewProgram(m.Name, m)
				if err != nil {
					t.Fatal(err)
				}
				got := NewEvaluator(p, v.workers).EvalBatch(seqs)
				for i, r := range got {
					w := want[i]
					p.mu.Lock()
					e := p.seqs[seqKey(seqs[i])]
					var fp ir.Fingerprint
					if e != nil {
						fp = e.fp
					}
					p.mu.Unlock()
					switch {
					case e == nil && r.Ok:
						t.Fatalf("%v: compiled, but has no sequence-table entry", seqs[i])
					case e != nil && fp != w.fp:
						t.Fatalf("%v: fingerprint %s, RunSequence gives %s", seqs[i], fp, w.fp)
					case r.Ok != w.ok || r.Cycles != w.cycles:
						t.Fatalf("%v: ok=%v cycles=%d, RunSequence gives ok=%v cycles=%d",
							seqs[i], r.Ok, r.Cycles, w.ok, w.cycles)
					case r.Ok && !slices.Equal(r.Feats, w.feats):
						t.Fatalf("%v: features differ from RunSequence's", seqs[i])
					}
				}
				p.mu.Lock()
				learned := len(p.next)
				p.mu.Unlock()
				if learned == 0 {
					t.Fatal("the pass-step table learned nothing")
				}
			})
		}
	}
}
