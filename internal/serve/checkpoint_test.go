package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// checkpointBytes encodes a one-job checkpoint: a valid queued job, edited
// by edit.
func checkpointBytes(edit func(*jobRecord)) []byte {
	r := jobRecord{ID: "j000001", Tenant: "a", Algo: "random", IR: testIR, Budget: 4, SeqLen: 3}
	edit(&r)
	data, err := json.Marshal(checkpointFile{Version: checkpointVersion, Jobs: []jobRecord{r}})
	if err != nil {
		panic(err)
	}
	return data
}

// invalidRecords are checkpoint records that resumed without any check
// before loading validated them.
var invalidRecords = []struct {
	name string
	edit func(*jobRecord)
	want string
}{
	{"unknown algo", func(r *jobRecord) { r.Algo = "bogus" }, "unknown algo"},
	{"negative len", func(r *jobRecord) { r.SeqLen = -3 }, "len must be"},
	{"best_seq outside the pass table", func(r *jobRecord) { r.BestSeq, r.BestCycles = []int{99}, 5 }, "not a pass index"},
	{"negative budget", func(r *jobRecord) { r.Budget = -5 }, "budget must be"},
	{"no tenant, zero len", func(r *jobRecord) { r.Tenant, r.SeqLen = "", 0 }, "missing tenant"},
	{"samples_used over budget", func(r *jobRecord) { r.SamplesUsed = 5 }, "samples_used"},
	{"negative samples_used", func(r *jobRecord) { r.SamplesUsed = -1 }, "samples_used"},
	{"negative consumed_ms", func(r *jobRecord) { r.ConsumedMS = -1 }, "consumed_ms"},
	{"best_seq longer than len", func(r *jobRecord) { r.BestSeq, r.BestCycles = []int{0, 1, 2, 3}, 5 }, "more than len"},
	{"best_seq without best_cycles", func(r *jobRecord) { r.BestSeq = []int{0} }, "best_cycles"},
	{"deadline_ms overflows", func(r *jobRecord) { r.DeadlineMS = 1 << 62 }, "deadline_ms out of range"},
	{"missing id", func(r *jobRecord) { r.ID = "" }, "missing id"},
	{"function without blocks", func(r *jobRecord) { r.IR = "define i32 @main()" }, "bad ir"},
}

// TestLoadCheckpointRejectsInvalid checks that New fails, naming the
// problem and keeping the file, on a checkpoint with an invalid record or
// two records with one ID.
func TestLoadCheckpointRejectsInvalid(t *testing.T) {
	check := func(name string, data []byte, want string) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "serve.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.CheckpointPath = path
		s, err := New(cfg)
		if err == nil {
			s.Close()
			t.Errorf("%s: New accepted the checkpoint", name)
			return
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", name, err, want)
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("%s: rejected checkpoint was not kept: %v", name, err)
		}
	}
	for _, tc := range invalidRecords {
		check(tc.name, checkpointBytes(tc.edit), tc.want)
	}
	r := jobRecord{ID: "j000001", Tenant: "a", Algo: "random", IR: testIR, Budget: 4, SeqLen: 3}
	dup, err := json.Marshal(checkpointFile{Version: checkpointVersion, Jobs: []jobRecord{r, r}})
	if err != nil {
		t.Fatal(err)
	}
	check("duplicate id", dup, "duplicate job id")
}

// FuzzLoadCheckpoint feeds arbitrary checkpoint files to New. Loading
// either fails, or every resumed job passes validation and reaches a
// terminal state without a contained panic.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add(checkpointBytes(func(*jobRecord) {}))
	for _, tc := range invalidRecords[:5] {
		f.Add(checkpointBytes(tc.edit))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "serve.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.Workers = 1
		cfg.MaxBudget = 16 // keep each resumed search short
		cfg.MaxSeqLen = 8
		cfg.CheckpointPath = path
		s, err := New(cfg)
		if err != nil {
			return
		}
		defer s.Close()
		s.mu.Lock()
		var jobs []*Job
		for _, j := range s.jobs {
			if errText := s.checkResumed(j); errText != "" {
				t.Errorf("resumed job %q fails validation: %s", j.ID, errText)
			}
			jobs = append(jobs, j)
		}
		s.mu.Unlock()
		s.Start()
		for _, j := range jobs {
			select {
			case <-j.done:
			case <-time.After(time.Minute):
				t.Fatalf("resumed job %q never reached a terminal state", j.ID)
			}
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, j := range jobs {
			if !j.state.terminal() {
				t.Errorf("resumed job %q ended %v", j.ID, j.state)
			}
			if strings.Contains(j.errText, "contained job panic") {
				t.Errorf("resumed job %q: %s", j.ID, j.errText)
			}
		}
	})
}
