package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"autophase/internal/core"
	"autophase/internal/passes"
)

// checkpointVersion guards the on-disk format; a mismatch is an error, not
// a silent misparse.
const checkpointVersion = 1

// jobRecord is one unfinished job's persistent form: everything needed to
// resume it in a later server life — the module source, the search
// parameters, how much of the sample budget and wall budget it already
// spent, the incumbent so progress is not redone, and the quarantine
// records so known-bad sequences stay fenced without re-faulting.
type jobRecord struct {
	ID          string            `json:"id"`
	Tenant      string            `json:"tenant"`
	Algo        string            `json:"algo"`
	IR          string            `json:"ir"`
	Budget      int               `json:"budget"`
	SeqLen      int               `json:"len"`
	SamplesUsed int               `json:"samples_used"`
	DeadlineMS  int64             `json:"deadline_ms"`
	ConsumedMS  int64             `json:"consumed_ms"`
	BestCycles  int64             `json:"best_cycles,omitempty"`
	BestSeq     []int             `json:"best_seq,omitempty"`
	Quarantine  []*core.EvalFault `json:"quarantine,omitempty"`
}

type checkpointFile struct {
	Version int         `json:"version"`
	Jobs    []jobRecord `json:"jobs"`
}

// checkpointRemaining runs at the end of Shutdown, after every worker has
// exited: whatever jobs are still non-terminal (queued from the start, or
// interrupted mid-run and re-queued with their progress) are marked
// StateCheckpointed and, when a checkpoint path is configured, persisted
// atomically so the next life resumes them. This is the "no accepted job
// is silently lost" half of graceful shutdown; the drain window is the
// "finish what you can" half.
func (s *Server) checkpointRemaining() error {
	s.mu.Lock()
	var recs []jobRecord
	for _, id := range s.tenantIDs {
		t := s.tenants[id]
		for _, j := range t.queue {
			recs = append(recs, jobRecord{
				ID: j.ID, Tenant: j.Tenant, Algo: j.Algo, IR: j.irText,
				Budget: j.Budget, SeqLen: j.SeqLen, SamplesUsed: j.samplesUsed,
				DeadlineMS: j.Deadline.Milliseconds(), ConsumedMS: j.consumed.Milliseconds(),
				BestCycles: j.bestCycles, BestSeq: j.bestSeq, Quarantine: j.quar,
			})
			j.state = StateCheckpointed
			t.active--
			s.queued--
			s.checkpointed++
			close(j.done)
		}
		t.queue = nil
	}
	ckpt := s.checkpointed
	s.mu.Unlock()

	path := s.cfg.CheckpointPath
	if path == "" {
		return nil
	}
	if len(recs) == 0 {
		// Nothing unfinished: drop any stale checkpoint so a future start
		// does not resurrect long-dead jobs.
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
		return nil
	}
	if err := writeCheckpoint(path, recs); err != nil {
		return fmt.Errorf("serve: checkpointing %d unfinished jobs: %w", ckpt, err)
	}
	return nil
}

// writeCheckpoint persists records atomically (temp file + rename), so a
// crash mid-write leaves either the old checkpoint or the new one, never a
// torn file.
func writeCheckpoint(path string, recs []jobRecord) error {
	data, err := json.MarshalIndent(checkpointFile{Version: checkpointVersion, Jobs: recs}, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadCheckpoint re-admits a previous life's unfinished jobs. Resumed jobs
// bypass admission control (they were admitted once and the service owes
// them a result) and keep their IDs, spent budgets, incumbents and
// quarantine records. The file is consumed: a later crash before the next
// checkpoint cannot double-resume.
func (s *Server) loadCheckpoint(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var ckpt checkpointFile
	if err := json.Unmarshal(data, &ckpt); err != nil {
		return fmt.Errorf("serve: corrupt checkpoint %s: %w", path, err)
	}
	if ckpt.Version != checkpointVersion {
		return fmt.Errorf("serve: checkpoint %s has version %d, want %d", path, ckpt.Version, checkpointVersion)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range ckpt.Jobs {
		r := &ckpt.Jobs[i]
		j, errText := s.resumedJob(r)
		if errText == "" && s.jobs[r.ID] != nil {
			errText = "duplicate job id"
		}
		if errText != "" {
			// Validation runs before anything is owed to a client: a record
			// that fails it is corrupt, and resuming it would run or report
			// what the API refuses. Fail loudly and keep the file.
			return fmt.Errorf("serve: checkpoint %s job %d (%q): %s", path, i, r.ID, errText)
		}
		mod, err := parseModule(r.IR)
		if err != nil {
			// The module parsed and verified when the job was admitted; a
			// checkpoint whose module no longer does is corrupt. Fail
			// loudly rather than silently dropping an owed job.
			return fmt.Errorf("serve: checkpoint job %s: bad ir: %w", r.ID, err)
		}
		j.mod = mod
		s.enqueueResumed(j)
	}
	return os.Remove(path)
}

// resumedJob rebuilds a checkpointed job from its record, without its
// parsed module, and validates it: the checks every submission passes,
// plus the progress only a checkpoint carries.
func (s *Server) resumedJob(r *jobRecord) (*Job, string) {
	if r.ID == "" {
		return nil, "missing id"
	}
	deadline, ok := millis(r.DeadlineMS)
	if !ok {
		return nil, fmt.Sprintf("deadline_ms out of range (got %d)", r.DeadlineMS)
	}
	consumed, ok := millis(r.ConsumedMS)
	if !ok {
		return nil, fmt.Sprintf("consumed_ms out of range (got %d)", r.ConsumedMS)
	}
	j := &Job{
		ID: r.ID, Tenant: r.Tenant, Algo: r.Algo,
		Budget: r.Budget, SeqLen: r.SeqLen,
		Deadline:    deadline,
		irText:      r.IR,
		consumed:    consumed,
		samplesUsed: r.SamplesUsed,
		bestCycles:  r.BestCycles,
		quar:        r.Quarantine,
	}
	if len(r.BestSeq) > 0 {
		j.bestSeq = r.BestSeq
	}
	if errText := s.checkResumed(j); errText != "" {
		return nil, errText
	}
	return j, ""
}

// checkResumed is checkJob plus the checks on what only a checkpointed job
// carries: its spent samples and wall budget, and its incumbent.
func (s *Server) checkResumed(j *Job) string {
	if errText := s.checkJob(j); errText != "" {
		return errText
	}
	switch {
	case j.samplesUsed < 0 || j.samplesUsed > j.Budget:
		return fmt.Sprintf("samples_used must be in [0, %d] (got %d)", j.Budget, j.samplesUsed)
	case j.consumed < 0:
		return fmt.Sprintf("consumed_ms must not be negative (got %d)", j.consumed.Milliseconds())
	case len(j.bestSeq) > j.SeqLen:
		return fmt.Sprintf("best_seq has %d passes, more than len %d", len(j.bestSeq), j.SeqLen)
	case len(j.bestSeq) > 0 && j.bestCycles <= 0:
		return fmt.Sprintf("best_cycles must be positive with a best_seq (got %d)", j.bestCycles)
	}
	for _, a := range j.bestSeq {
		if a < 0 || a >= passes.NumActions {
			return fmt.Sprintf("best_seq entry %d is not a pass index in [0, %d)", a, passes.NumActions)
		}
	}
	return ""
}
