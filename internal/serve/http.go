package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"autophase/internal/artifact"
	"autophase/internal/core"
	"autophase/internal/ir"
)

// SubmitRequest is the POST /v1/jobs body: one IR module plus search
// parameters. Zero-valued knobs take server defaults.
type SubmitRequest struct {
	Tenant     string `json:"tenant"`
	IR         string `json:"ir"`
	Algo       string `json:"algo"`        // "random" (default) or "genetic"
	Budget     int    `json:"budget"`      // samples; default Config.DefaultBudget
	SeqLen     int    `json:"len"`         // sequence length; default 8
	DeadlineMS int64  `json:"deadline_ms"` // total wall budget incl. queue wait; default Config.DefaultDeadline
}

// SubmitResponse acknowledges an accepted job.
type SubmitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP surface:
//
//	POST /v1/jobs        submit a module, get a job ID (202) or a shed (429/503)
//	GET  /v1/jobs/{id}   poll a job; ?wait=2s long-polls until terminal or timeout
//	GET  /v1/stats       service-wide and per-tenant counters
//	GET  /healthz        200 while accepting, 503 once draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeShed turns an admission rejection into its explicit wire form: the
// 429/503 status plus a Retry-After in whole seconds (rounded up, floor 1,
// so "try again in 300ms" never becomes "retry immediately").
func writeShed(w http.ResponseWriter, e *shedError) {
	secs := int64(math.Ceil(e.retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeJSON(w, e.code, errorBody{Error: e.reason})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	maxBody := s.cfg.MaxBody
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	j, errText := s.buildJob(&req)
	if errText != "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: errText})
		return
	}
	if shed := s.admit(j); shed != nil {
		writeShed(w, shed)
		return
	}
	// j.ID is immutable once admitted; the state is read as a constant here
	// because a worker may already have dispatched the job.
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: j.ID, State: StateQueued.String()})
}

// buildJob validates a submission and constructs the (not yet admitted)
// job, or explains why the request is malformed. Validation failures are
// 400s, not sheds: the request was wrong, not the load.
func (s *Server) buildJob(req *SubmitRequest) (*Job, string) {
	if req.Algo == "" {
		req.Algo = "random"
	}
	if req.Budget == 0 {
		req.Budget = s.cfg.DefaultBudget
	}
	if req.SeqLen == 0 {
		req.SeqLen = 8
	}
	deadline, ok := millis(req.DeadlineMS)
	if !ok {
		return nil, fmt.Sprintf("deadline_ms out of range (got %d)", req.DeadlineMS)
	}
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	j := &Job{
		Tenant:   req.Tenant,
		Algo:     req.Algo,
		Budget:   req.Budget,
		SeqLen:   req.SeqLen,
		Deadline: deadline,
		irText:   req.IR,
	}
	if errText := s.checkJob(j); errText != "" {
		return nil, errText
	}
	mod, err := parseModule(req.IR)
	if err != nil {
		return nil, "bad ir: " + err.Error()
	}
	j.mod = mod
	return j, ""
}

// parseModule parses a job's module and verifies it: a module that parses
// but does not verify, such as a function without blocks, would otherwise
// reach the engine and panic there.
func parseModule(src string) (*ir.Module, error) {
	mod, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := mod.Verify(); err != nil {
		return nil, err
	}
	return mod, nil
}

// checkJob reports what makes a job's parameters invalid, or "" when
// nothing does. A submission is checked once its defaults are filled in,
// and a checkpointed job again when a later life resumes it, so a damaged
// checkpoint cannot run what the API would refuse.
func (s *Server) checkJob(j *Job) string {
	switch {
	case j.Tenant == "":
		return "missing tenant"
	case j.irText == "":
		return "missing ir"
	case j.Algo != "random" && j.Algo != "genetic":
		return fmt.Sprintf("unknown algo %q (want random or genetic)", j.Algo)
	case j.Budget < 1 || (s.cfg.MaxBudget > 0 && j.Budget > s.cfg.MaxBudget):
		return fmt.Sprintf("budget must be in [1, %d] (got %d)", s.cfg.MaxBudget, j.Budget)
	case j.SeqLen < 1 || (s.cfg.MaxSeqLen > 0 && j.SeqLen > s.cfg.MaxSeqLen):
		return fmt.Sprintf("len must be in [1, %d] (got %d)", s.cfg.MaxSeqLen, j.SeqLen)
	case j.Deadline < 0:
		return fmt.Sprintf("deadline_ms must not be negative (got %d)", j.Deadline.Milliseconds())
	case s.cfg.MaxDeadline > 0 && j.Deadline > s.cfg.MaxDeadline:
		return fmt.Sprintf("deadline_ms must not exceed %d (got %d)", s.cfg.MaxDeadline.Milliseconds(), j.Deadline.Milliseconds())
	}
	return ""
}

// millis converts a wire millisecond count to a Duration; ok is false when
// it does not fit in one.
func millis(ms int64) (d time.Duration, ok bool) {
	const limit = math.MaxInt64 / int64(time.Millisecond)
	if ms > limit || ms < -limit {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil || wait < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad wait duration"})
			return
		}
		if wait > 30*time.Second {
			wait = 30 * time.Second
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-j.done:
		case <-timer.C:
		case <-r.Context().Done():
		}
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// TenantReport is one tenant's slice of /v1/stats.
type TenantReport struct {
	ID          string `json:"id"`
	Admitted    int64  `json:"admitted"`
	Shed        int64  `json:"shed"`
	Done        int64  `json:"done"`
	Faulted     int64  `json:"faulted"`
	Deadlined   int64  `json:"deadlined"`
	Pending     int    `json:"pending"` // queued + running right now
	BreakerOpen bool   `json:"breaker_open,omitempty"`
	Samples     int64  `json:"samples"`
	Successes   int64  `json:"successes"`
	Faults      int64  `json:"faults"`
	Flagged     int64  `json:"flagged"`
}

// StatsReport is the GET /v1/stats body: service-wide admission and
// shutdown counters, the summed engine stats of all finished jobs (in the
// engine's own one-line format), the shared artifact store's counters
// (absent without a store), and a per-tenant breakdown.
type StatsReport struct {
	Accepted     int64           `json:"accepted"`
	Shed429      int64           `json:"shed_429"`
	Shed503      int64           `json:"shed_503"`
	Queued       int             `json:"queued"`
	Running      int             `json:"running"`
	Drained      int64           `json:"drained"`
	Checkpointed int64           `json:"checkpointed"`
	Resumed      int64           `json:"resumed"`
	Aggregate    string          `json:"aggregate"`
	Store        *artifact.Stats `json:"store,omitempty"`
	Tenants      []TenantReport  `json:"tenants"`
}

// Stats snapshots the whole service.
func (s *Server) Stats() StatsReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	rep := StatsReport{
		Accepted: s.accepted, Shed429: s.shed429, Shed503: s.shed503,
		Queued: s.queued, Running: s.running,
		Drained: s.drainedJobs, Checkpointed: s.checkpointed, Resumed: s.resumed,
	}
	var agg core.EvalStats
	for _, id := range s.tenantIDs {
		t := s.tenants[id]
		agg.Add(t.agg)
		rep.Tenants = append(rep.Tenants, TenantReport{
			ID: t.id, Admitted: t.admitted, Shed: t.shed,
			Done: t.done, Faulted: t.faulted, Deadlined: t.deadlined,
			Pending:     t.active,
			BreakerOpen: t.brk.tripped(now, s.cfg.BreakerFaults),
			Samples:     t.agg.Samples, Successes: t.agg.Successes,
			Faults: t.agg.Faults, Flagged: t.agg.Flagged,
		})
	}
	rep.Aggregate = agg.String()
	if s.store != nil {
		ss := s.store.Stats()
		rep.Store = &ss
	}
	return rep
}
