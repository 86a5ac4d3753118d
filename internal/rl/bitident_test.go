// The pinned hashes hold where the compiler does not fuse a*b+c into one
// rounding: amd64 below GOAMD64=v3 (other targets may use fused
// multiply-add).

//go:build amd64 && !amd64.v3

package rl

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"autophase/internal/nn"
)

// hashFloats folds the exact bit patterns of vs into h.
func hashFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func hashNet(h hash.Hash64, m *nn.MLP) {
	for l := range m.W {
		hashFloats(h, m.W[l]...)
		hashFloats(h, m.B[l]...)
	}
}

func hashStats(h hash.Hash64, s Stats) {
	hashFloats(h, float64(s.Iteration), float64(s.TotalSteps), float64(s.TotalEpisodes),
		s.EpisodeRewardMean, s.PolicyLoss, s.ValueLoss, s.Entropy)
}

// TestTrainingBitIdentical pins the exact training trajectory of PPO and a
// single-worker A3C: every policy and value weight and every reported
// statistic, bit for bit. The constants were captured before the learner
// moved to the minibatch tape; a change to any accumulation order in the
// forward or backward pass moves them.
func TestTrainingBitIdentical(t *testing.T) {
	cfg := DefaultPPO()
	cfg.Hidden = []int{16, 16}
	cfg.RolloutSteps = 100 // not a multiple of the minibatch: a short last one
	cfg.Seed = 4
	// A second, ignored head covers the multi-head gradient assembly.
	p := NewPPO(cfg, 4, []int{4, 3})
	envs := []Env{newChainEnv(1), newChainEnv(2)}
	h := fnv.New64a()
	for i := 0; i < 3; i++ {
		hashStats(h, p.TrainIteration(envs))
	}
	hashNet(h, p.Policy.Net)
	hashNet(h, p.Value)
	if got, want := h.Sum64(), uint64(0x7ec4f15b96239418); got != want {
		t.Errorf("PPO trajectory hash = %#x, want %#x", got, want)
	}

	acfg := DefaultA3C()
	acfg.Hidden = []int{16, 16}
	acfg.Workers = 1
	acfg.Seed = 6
	a := NewA3C(acfg, 4, []int{4})
	h = fnv.New64a()
	a.Train(func(int) Env { return newChainEnv(9) }, 400, func(s Stats) { hashStats(h, s) })
	hashNet(h, a.Policy.Net)
	hashNet(h, a.Value)
	if got, want := h.Sum64(), uint64(0x321dcef71cc8306b); got != want {
		t.Errorf("A3C trajectory hash = %#x, want %#x", got, want)
	}
}
