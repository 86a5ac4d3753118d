package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestWorkloadsSmoke runs every workload of BENCHMARK.json at its tiny
// size, untraced and traced, and checks that it passes its correctness
// checks and reports exactly the metrics BENCHMARK.json lists, with their
// units, and no end-to-end value of zero.
func TestWorkloadsSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bench struct {
		Workloads []spec `json:"workloads"`
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		drive, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			if trace {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: w.Name, seed: 1, seconds: 1, trace: trace, tiny: true, workDir: t.TempDir()}
				res, err := drive(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.finish(cfg); err != nil {
					t.Fatal(err)
				}
				out := res.output(trace)
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", out.Correct, out.Attempted, out.Failed, res.failures)
				}
				want := bench.EndToEnd
				if trace {
					want = bench.PerLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s: not reported", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (!trace && got.Value == 0):
						t.Errorf("%s: value %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}
