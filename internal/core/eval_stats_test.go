package core

import (
	"reflect"
	"testing"
	"time"
)

// TestStatsStringCleanByteIdentical pins the exact one-line output of a
// clean run: counters outside the always-printed block follow the
// nonzero-only convention, so any drift here is a CLI-output regression.
func TestStatsStringCleanByteIdentical(t *testing.T) {
	clean := EvalStats{Samples: 10, Compiles: 10}
	const want = "samples=10 compiles=10 fp-hits=0 noop-ir=0 cache-hits=0 merges=0 static=0 vm=0 interp=0"
	if got := clean.String(); got != want {
		t.Fatalf("clean stats output drifted:\n got  %q\n want %q", got, want)
	}
}

// TestStatsAdd: the serve layer's aggregation must sum every counter,
// including the batch wall clock.
func TestStatsAdd(t *testing.T) {
	a := EvalStats{Samples: 3, Successes: 2, Faults: 1, Compiles: 3, BatchWall: time.Second}
	b := EvalStats{Samples: 5, Successes: 5, Compiles: 4, BatchWall: time.Second}
	a.Add(b)
	if a.Samples != 8 || a.Successes != 7 || a.Faults != 1 || a.Compiles != 7 {
		t.Fatalf("Add missed a core counter: %+v", a)
	}
	if a.Samples != a.Successes+a.Faults+a.Flagged {
		t.Fatalf("Add broke the accounting invariant: %+v", a)
	}
	if a.BatchWall != 2*time.Second {
		t.Fatalf("Add missed BatchWall: %+v", a)
	}
}

// TestEvalCountersDeclared: evalCounters declares every EvalStats field
// exactly once, Add sums all of them, and ResetSamples zeroes exactly the
// per-run accounting.
func TestEvalCountersDeclared(t *testing.T) {
	var s EvalStats
	v := reflect.ValueOf(&s).Elem()
	keys := map[string]bool{}
	for _, c := range evalCounters {
		if keys[c.key] {
			t.Errorf("key %q declared twice", c.key)
		}
		keys[c.key] = true
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Int64 {
			t.Fatalf("EvalStats.%s is %s; evalCounters holds int64 counters only", v.Type().Field(i).Name, f.Type())
		}
		n := 0
		for _, c := range evalCounters {
			if reflect.ValueOf(c.field(&s)).Pointer() == f.UnsafeAddr() {
				n++
			}
		}
		if n != 1 {
			t.Errorf("EvalStats.%s appears %d times in evalCounters, want 1", v.Type().Field(i).Name, n)
		}
	}

	var a, b EvalStats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(100 * int64(i+1))
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		if got := va.Field(i).Int(); got != 101*int64(i+1) {
			t.Errorf("Add: EvalStats.%s = %d, want %d", va.Type().Field(i).Name, got, 101*(i+1))
		}
	}

	p := mustProgram(t, "matmul")
	ev := NewEvaluator(p, 1)
	ev.EvalBatch([][]int{{38}, {38, 30}})
	for c := range p.ctr {
		p.ctr[c].Add(int64(c) + 1)
	}
	before := ev.Stats()
	p.ResetSamples(false)
	after := ev.Stats()
	vBefore, vAfter := reflect.ValueOf(before), reflect.ValueOf(after)
	want := map[string]bool{"Samples": true, "Successes": true, "Faults": true, "Flagged": true, "Retries": true}
	for i := 0; i < vBefore.NumField(); i++ {
		name := vBefore.Type().Field(i).Name
		x, y := vBefore.Field(i).Int(), vAfter.Field(i).Int()
		if want[name] {
			if x == 0 || y != 0 {
				t.Errorf("ResetSamples: %s went %d -> %d, want nonzero -> 0", name, x, y)
			}
		} else if x != y {
			t.Errorf("ResetSamples touched %s: %d -> %d", name, x, y)
		}
	}
}
