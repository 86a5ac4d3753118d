package rl

import (
	"strings"
	"testing"
)

// validSnapshot is a well-formed three-input, two-action PPO snapshot.
const validSnapshot = `{"kind":"ppo","dims":[2],` +
	`"policy":{"sizes":[3,2],"act":0,"w":[[0.1,0.2,0.3,-0.1,0.5,0.2]],"b":[[0,0.1]]},` +
	`"value":{"sizes":[3,1],"act":1,"w":[[0.1,0.1,0.1]],"b":[[0]]},` +
	`"filter_n":3,"filter_mean":[0,1,2],"filter_m2":[1,1,1]}`

func TestDecodeSnapshotRejectsMalformed(t *testing.T) {
	if _, err := DecodeSnapshot([]byte(validSnapshot)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for _, tc := range []struct{ name, from, to string }{
		{"head wider than policy", `"dims":[2]`, `"dims":[5]`},
		{"heads cover too few logits", `"dims":[2]`, `"dims":[1]`},
		{"empty head", `"dims":[2]`, `"dims":[2,0]`},
		{"negative head", `"dims":[2]`, `"dims":[3,-1]`},
		{"no heads", `"dims":[2]`, `"dims":[]`},
		{"short filter moments", `"filter_m2":[1,1,1]`, `"filter_m2":[]`},
		{"filter narrower than input", `"filter_mean":[0,1,2],"filter_m2":[1,1,1]`, `"filter_mean":[0,0],"filter_m2":[1,1]`},
		{"moments without means", `"filter_mean":[0,1,2]`, `"filter_mean":null`},
		{"negative filter count", `"filter_n":3`, `"filter_n":-1`},
		{"value net with two outputs", `"sizes":[3,1],"act":1,"w":[[0.1,0.1,0.1]],"b":[[0]]`, `"sizes":[3,2],"act":1,"w":[[0.1,0.1,0.1,0,0,0]],"b":[[0,0]]`},
		{"value net on other inputs", `"sizes":[3,1],"act":1,"w":[[0.1,0.1,0.1]],"b":[[0]]`, `"sizes":[1,1],"act":1,"w":[[0.1]],"b":[[0]]`},
		{"negative layer sizes", `"sizes":[3,2],"act":0,"w":[[0.1,0.2,0.3,-0.1,0.5,0.2]],"b":[[0,0.1]]`, `"sizes":[-3,-2],"act":0,"w":[[0.1,0.2,0.3,-0.1,0.5,0.2]],"b":[[0,0.1]]`},
		{"layer sizes whose product wraps to zero", `"sizes":[3,2],"act":0,"w":[[0.1,0.2,0.3,-0.1,0.5,0.2]],"b":[[0,0.1]]`, `"sizes":[4611686018427387904,4],"act":0,"w":[[]],"b":[[0,0,0,0]]`},
		{"unknown activation", `"act":0`, `"act":7`},
		{"no policy", `"policy":{"sizes":[3,2],"act":0,"w":[[0.1,0.2,0.3,-0.1,0.5,0.2]],"b":[[0,0.1]]},`, ``},
	} {
		data := strings.Replace(validSnapshot, tc.from, tc.to, 1)
		if data == validSnapshot {
			t.Fatalf("%s: replacement did not apply", tc.name)
		}
		if _, err := DecodeSnapshot([]byte(data)); err == nil {
			t.Errorf("%s: accepted %s", tc.name, data)
		}
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the checkpoint decoder: any
// snapshot it accepts must restore and act without panicking. The seed
// corpus in testdata/fuzz/FuzzDecodeSnapshot holds well-formed snapshots
// and the malformed ones that used to panic at inference.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		s.Kind = "ppo"
		p, err := RestorePPO(s)
		if err != nil {
			t.Fatalf("decoded snapshot does not restore: %v", err)
		}
		obs := make([]float64, s.Policy.Sizes[0])
		for i := range obs {
			obs[i] = float64(i) - 1
		}
		for _, greedy := range []bool{true, false} {
			if a := p.Act(obs, greedy); len(a) != len(s.Dims) {
				t.Fatalf("Act returned %d actions for %d heads", len(a), len(s.Dims))
			}
		}
	})
}
