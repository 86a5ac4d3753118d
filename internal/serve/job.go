package serve

import (
	"time"

	"autophase/internal/core"
	"autophase/internal/ir"
)

// JobState is a job's lifecycle position. Accepted jobs always reach a
// terminal state: the service's contract is that work is finished, failed
// loudly, or checkpointed — never silently lost.
type JobState int

// Job lifecycle states. Terminal states are StateDone, StateFault,
// StateDeadline and StateCheckpointed.
const (
	StateQueued JobState = iota
	StateRunning
	StateDone         // search finished inside its budget and deadline
	StateFault        // the job itself failed (baseline fault, escaped panic, all samples faulted)
	StateDeadline     // the wall-clock budget ran out (queue wait included)
	StateCheckpointed // graceful shutdown persisted the job for a later restart
)

var jobStateNames = [...]string{"queued", "running", "done", "fault", "deadline", "checkpointed"}

// String returns the wire name of the state.
func (s JobState) String() string {
	if s < 0 || int(s) >= len(jobStateNames) {
		return "unknown"
	}
	return jobStateNames[s]
}

// terminal reports whether the state ends the job.
func (s JobState) terminal() bool { return s >= StateDone }

// Job is one accepted phase-ordering search. Mutable fields are guarded by
// the server's mu; done is closed exactly once, when the job reaches a
// terminal state.
type Job struct {
	ID     string
	Tenant string
	Algo   string
	Budget int
	SeqLen int
	// Deadline is the job's total wall-clock budget, queue wait included;
	// zero means unbounded. It is a budget, not an instant: a checkpointed
	// job resumes with whatever was left when the server stopped.
	Deadline time.Duration

	irText string
	mod    *ir.Module // parsed irText; nil once the job is terminal

	state       JobState
	submitted   time.Time     // when this server life accepted/resumed the job
	consumed    time.Duration // budget spent in previous server lives
	started     time.Time     // when a worker picked it up (zero while queued)
	samplesUsed int
	bestCycles  int64
	bestSeq     []int
	errText     string
	stats       core.EvalStats
	resumed     bool
	quar        []*core.EvalFault // quarantine carried across a restart
	latency     time.Duration     // submit → terminal, this life

	done chan struct{}
}

// remaining returns the wall budget left at now, or a large positive value
// when the job is unbounded.
func (j *Job) remaining(now time.Time) time.Duration {
	if j.Deadline <= 0 {
		return time.Duration(1<<62 - 1)
	}
	elapsed := j.consumed
	if !j.submitted.IsZero() {
		elapsed += now.Sub(j.submitted)
	}
	return j.Deadline - elapsed
}

// JobStatus is the wire rendering of a job, returned by GET /v1/jobs/{id}.
type JobStatus struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant"`
	State       string  `json:"state"`
	Algo        string  `json:"algo"`
	Budget      int     `json:"budget"`
	SamplesUsed int     `json:"samples_used"`
	BestCycles  int64   `json:"best_cycles,omitempty"`
	BestSeq     []int   `json:"best_seq,omitempty"`
	Error       string  `json:"error,omitempty"`
	Resumed     bool    `json:"resumed,omitempty"`
	Stats       string  `json:"stats,omitempty"`
	LatencyMS   float64 `json:"latency_ms,omitempty"`
}

// status snapshots the job. Callers hold the server's mu.
func (j *Job) status() JobStatus {
	st := JobStatus{
		ID: j.ID, Tenant: j.Tenant, State: j.state.String(), Algo: j.Algo,
		Budget: j.Budget, SamplesUsed: j.samplesUsed, Resumed: j.resumed,
		Error: j.errText,
	}
	if j.bestSeq != nil || j.bestCycles > 0 {
		st.BestCycles = j.bestCycles
		st.BestSeq = j.bestSeq
	}
	if j.state.terminal() {
		st.Stats = j.stats.String()
		st.LatencyMS = float64(j.latency) / float64(time.Millisecond)
	}
	return st
}
