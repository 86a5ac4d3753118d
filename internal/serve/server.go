// Package serve is the robustness shell that turns the evaluation engine
// into a multi-tenant phase-ordering service: an stdlib net/http server
// that accepts IR modules, runs searches asynchronously (submit → job ID →
// poll), and shares one warm artifact store across tenants. The routing is
// deliberately thin; the substance is the isolation discipline:
//
//   - Admission control: a per-tenant token bucket (rate + burst), a
//     per-tenant concurrency quota, and a global queue bound. Every
//     rejection is an explicit 429/503 with a Retry-After — load is shed
//     loudly, never by silent queueing collapse.
//   - Weighted-fair scheduling: stride scheduling over tenant queues, so a
//     tenant that floods its queue cannot starve anyone else's jobs.
//   - Deadlines as budgets: a job's wall-clock deadline covers its whole
//     life, queue wait included, and propagates into interp.Limits.Deadline
//     so a single pathological profile cannot overshoot it either.
//   - Quarantine as a cross-tenant shield: each job evaluates in its own
//     core.Program (per-tenant fault containment by construction), and a
//     tenant whose jobs keep faulting trips a per-tenant circuit breaker —
//     its submissions bounce with 429 while everyone else is untouched.
//   - Graceful degradation: shutdown stops admission, drains in-flight work
//     inside a bounded window, and checkpoints whatever did not finish so a
//     restart resumes instead of losing accepted jobs.
package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"autophase/internal/artifact"
	"autophase/internal/core"
	"autophase/internal/faults"
	"autophase/internal/interp"
	"autophase/internal/passes"
	"autophase/internal/search"
)

// Config tunes the service. The zero value is unusable; call
// DefaultConfig and override.
type Config struct {
	Workers  int // concurrent search-runner goroutines
	QueueCap int // global queued-job bound (backpressure past it → 503)

	TenantRate  float64 // token-bucket refill, submissions/second/tenant
	TenantBurst float64 // token-bucket capacity
	TenantJobs  int     // per-tenant queued+running quota

	// Weights assigns stride-scheduling weights per tenant ID; tenants not
	// listed (and all tenants when nil) get weight 1.
	Weights map[string]int

	DefaultBudget int // samples per job when the request leaves it 0
	MaxBudget     int // request budgets are clamped by validation, not silently
	MaxSeqLen     int

	DefaultDeadline time.Duration // job wall budget when the request leaves it 0 (0 = unbounded)
	MaxDeadline     time.Duration

	BreakerFaults   int           // consecutive fault-classed jobs that trip a tenant's breaker
	BreakerCooldown time.Duration // open duration before a half-open probe

	DrainTimeout   time.Duration // graceful shutdown's bounded drain window
	CheckpointPath string        // unfinished-job state file ("" disables checkpointing)

	ArtifactDir    string // shared persistent artifact store ("" = memory only)
	ArtifactBudget int64

	MaxBody int64 // request body bound
}

// DefaultConfig returns a service tuning that suits tests and small
// deployments; production overrides per flag.
func DefaultConfig() Config {
	return Config{
		Workers:         4,
		QueueCap:        1024,
		TenantRate:      50,
		TenantBurst:     100,
		TenantJobs:      64,
		DefaultBudget:   64,
		MaxBudget:       4096,
		MaxSeqLen:       45,
		DefaultDeadline: 0,
		MaxDeadline:     10 * time.Minute,
		BreakerFaults:   3,
		BreakerCooldown: 5 * time.Second,
		DrainTimeout:    10 * time.Second,
		MaxBody:         1 << 20,
	}
}

// Server is the phase-ordering service. Create with New, wire Handler into
// an http.Server, call Start, and Shutdown on the way out.
type Server struct {
	cfg   Config
	now   func() time.Time
	store *artifact.Store
	// compile is the server-wide compile budget every job's evaluator
	// shares: a job running alone spreads its batches over the idle cores,
	// and jobs that run together take them back.
	compile *core.Budget
	// baselines remembers each module's O0 and -O3 baselines, so a job on
	// a module the server has seen skips the -O3 pipeline and both
	// baseline profiles. Records are pure functions of the module, so one
	// memo serves every tenant, as the artifact store does.
	baselines core.Baselines

	mu   sync.Mutex
	cond *sync.Cond

	tenants   map[string]*tenant // guarded by mu
	tenantIDs []string           // guarded by mu; sorted, for deterministic scheduling scans
	jobs      map[string]*Job    // guarded by mu
	queued    int                // guarded by mu; jobs waiting across all tenants
	running   int                // guarded by mu; jobs on a worker
	cancels   map[string]func()  // guarded by mu; cancel hooks of running jobs
	draining  bool               // guarded by mu; admission off, workers drain the queue
	aborting  bool               // guarded by mu; drain window over, stop dispatch and cancel
	nextID    uint64             // guarded by mu

	accepted     int64 // guarded by mu
	shed429      int64 // guarded by mu
	shed503      int64 // guarded by mu
	drainedJobs  int64 // guarded by mu; jobs that finished inside the drain window
	checkpointed int64 // guarded by mu
	resumed      int64 // guarded by mu

	wg sync.WaitGroup
}

// New builds a Server. When cfg.CheckpointPath names a checkpoint written
// by a previous life, its unfinished jobs are re-admitted (bypassing
// admission control — they were admitted once already) before any new
// traffic arrives.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("serve: config needs at least one worker (got %d)", cfg.Workers)
	}
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("serve: config needs a positive queue capacity (got %d)", cfg.QueueCap)
	}
	s := &Server{
		cfg:     cfg,
		now:     wallNow,
		tenants: make(map[string]*tenant),
		jobs:    make(map[string]*Job),
		cancels: make(map[string]func()),
		compile: core.NewBudget(runtime.GOMAXPROCS(0)),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.ArtifactDir != "" {
		st, err := artifact.Open(cfg.ArtifactDir, cfg.ArtifactBudget)
		if err != nil {
			return nil, err
		}
		s.store = st
		core.SetDefaultArtifacts(st)
	}
	if cfg.CheckpointPath != "" {
		if err := s.loadCheckpoint(cfg.CheckpointPath); err != nil {
			if s.store != nil {
				core.SetDefaultArtifacts(nil)
				s.store.Close()
			}
			return nil, err
		}
	}
	return s, nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Close releases the shared artifact store. Call after Shutdown.
func (s *Server) Close() error {
	if s.store != nil {
		core.SetDefaultArtifacts(nil)
		return s.store.Close()
	}
	return nil
}

// tenantLocked returns (creating if needed) the tenant record. Callers
// hold mu.
//
//contractvet:locked tenants,tenantIDs -- callers hold mu
func (s *Server) tenantLocked(id string) *tenant {
	t := s.tenants[id]
	if t == nil {
		w := 1
		if s.cfg.Weights != nil && s.cfg.Weights[id] > 0 {
			w = s.cfg.Weights[id]
		}
		t = &tenant{id: id, weight: w}
		// A new tenant starts at the current maximum pass, not zero:
		// joining late must not grant a catch-up burst over tenants that
		// have been scheduled all along.
		for _, other := range s.tenantIDs {
			if p := s.tenants[other].pass; p > t.pass {
				t.pass = p
			}
		}
		s.tenants[id] = t
		s.tenantIDs = append(s.tenantIDs, id)
		sort.Strings(s.tenantIDs)
	}
	return t
}

// shedError is one explicit load-shedding decision: the HTTP status to
// send (always 429 or 503) and the Retry-After to advertise.
type shedError struct {
	code       int
	retryAfter time.Duration
	reason     string
}

func (e *shedError) Error() string { return e.reason }

// admit applies the full admission stack for one submission and either
// enqueues the job or returns the shed decision. Every rejection path is
// explicit: the caller turns it into a 429/503 with Retry-After.
func (s *Server) admit(j *Job) *shedError {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	if s.draining {
		s.shed503++
		return &shedError{code: http.StatusServiceUnavailable, retryAfter: 5 * time.Second,
			reason: "server is draining; resubmit to the replacement instance"}
	}
	if s.queued >= s.cfg.QueueCap {
		s.shed503++
		return &shedError{code: http.StatusServiceUnavailable, retryAfter: time.Second,
			reason: "queue full; backpressure"}
	}
	t := s.tenantLocked(j.Tenant)
	if s.cfg.TenantJobs > 0 && t.active >= s.cfg.TenantJobs {
		t.shed++
		s.shed429++
		return &shedError{code: http.StatusTooManyRequests, retryAfter: time.Second,
			reason: "tenant concurrency quota exhausted"}
	}
	if s.cfg.TenantRate > 0 {
		if ok, wait := t.bucket.take(now, s.cfg.TenantRate, s.cfg.TenantBurst); !ok {
			t.shed++
			s.shed429++
			return &shedError{code: http.StatusTooManyRequests, retryAfter: wait,
				reason: "tenant submission rate exceeded"}
		}
	}
	// The breaker goes last: granting its half-open probe slot commits the
	// job to run, so no later check may reject it (a rejected probe would
	// leave the slot latched with no job completion to release it).
	if ok, wait := t.brk.admit(now, s.cfg.BreakerFaults); !ok {
		t.shed++
		s.shed429++
		return &shedError{code: http.StatusTooManyRequests, retryAfter: wait,
			reason: "tenant circuit breaker open: recent jobs kept faulting"}
	}
	s.nextID++
	j.ID = fmt.Sprintf("j%06d", s.nextID)
	j.submitted = now
	j.state = StateQueued
	j.done = make(chan struct{})
	s.jobs[j.ID] = j
	t.queue = append(t.queue, j)
	t.active++
	t.admitted++
	s.queued++
	s.accepted++
	s.cond.Signal()
	return nil
}

// enqueueResumed re-admits one checkpointed job, bypassing admission
// control. Callers hold mu.
//
//contractvet:locked jobs,queued,accepted,resumed,nextID -- callers hold mu (loadCheckpoint runs before the server is shared, but takes mu anyway)
func (s *Server) enqueueResumed(j *Job) {
	t := s.tenantLocked(j.Tenant)
	j.state = StateQueued
	j.resumed = true
	j.submitted = s.now()
	j.done = make(chan struct{})
	s.jobs[j.ID] = j
	t.queue = append(t.queue, j)
	t.active++
	t.admitted++
	s.queued++
	s.accepted++
	s.resumed++
	// Keep new IDs clear of resumed ones.
	if n, err := strconv.ParseUint(strings.TrimPrefix(j.ID, "j"), 10, 64); err == nil && n > s.nextID {
		s.nextID = n
	}
}

// worker is one search runner: pull the next fair-share job, run it,
// repeat until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// next blocks until a job is dispatchable and claims it, or returns nil
// when the server is done handing out work (drained or aborting). Dispatch
// order is stride scheduling: among backlogged tenants, the one with the
// smallest virtual pass goes first, ties broken by tenant ID so the
// schedule is deterministic for a given arrival order.
func (s *Server) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.aborting {
			return nil
		}
		var pick *tenant
		for _, id := range s.tenantIDs {
			t := s.tenants[id]
			if len(t.queue) == 0 {
				continue
			}
			if pick == nil || t.pass < pick.pass {
				pick = t
			}
		}
		if pick != nil {
			j := pick.queue[0]
			pick.queue = pick.queue[1:]
			pick.pass += pick.stride()
			s.queued--
			s.running++
			j.state = StateRunning
			j.started = s.now()
			return j
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// searchOutcome is what one runSearch attempt reports back to the job
// bookkeeping under mu.
type searchOutcome struct {
	interrupted bool // drain cancellation: job goes back to the queue for checkpointing
	state       JobState
	errText     string
	stats       core.EvalStats
	bestCycles  int64
	bestSeq     []int
	quar        []*core.EvalFault
}

// runJob runs one job to an outcome and applies it. The runner itself is a
// containment boundary: an escaped panic (organic or the serve-panic
// injection point) becomes a fault-classed job, never a dead worker —
// which is what keeps one tenant's pathological module from shrinking the
// pool everyone shares.
func (s *Server) runJob(j *Job) {
	cancel := make(chan struct{})
	var once sync.Once
	s.mu.Lock()
	s.cancels[j.ID] = func() { once.Do(func() { close(cancel) }) }
	// A resumed job arrives with samples already spent in a previous life;
	// this life's engine counters start from zero and add on top.
	prior := j.samplesUsed
	s.mu.Unlock()

	out := s.runSearch(j, prior, cancel)

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.cancels, j.ID)
	s.running--
	t := s.tenantLocked(j.Tenant)
	if out.interrupted {
		// Drain cancellation: record progress and hand the job back to the
		// queue so the checkpoint pass persists it. aborting is set, so no
		// worker will re-dispatch it in this life.
		j.consumed += s.now().Sub(j.submitted)
		j.submitted = time.Time{}
		j.state = StateQueued
		j.samplesUsed = clampSamples(int64(prior)+out.stats.Samples, j.Budget)
		if out.bestSeq != nil {
			j.bestCycles, j.bestSeq = out.bestCycles, out.bestSeq
		}
		j.quar = out.quar
		t.queue = append(t.queue, j)
		s.queued++
		s.cond.Broadcast()
		return
	}
	j.state = out.state
	// A terminal job never runs again, and s.jobs keeps every job for the
	// server's life: release its parsed module. The interrupted branch
	// above keeps it for the requeue; a checkpoint holds irText anyway.
	j.mod = nil
	j.errText = out.errText
	j.stats = out.stats
	j.samplesUsed = clampSamples(int64(prior)+out.stats.Samples, j.Budget)
	if out.bestSeq != nil && (j.bestSeq == nil || out.bestCycles < j.bestCycles) {
		j.bestCycles, j.bestSeq = out.bestCycles, out.bestSeq
	}
	j.latency = j.consumed + s.now().Sub(j.submitted)
	t.active--
	t.agg.Add(out.stats)
	faulted := out.state == StateFault
	switch out.state {
	case StateDone:
		t.done++
	case StateFault:
		t.faulted++
	case StateDeadline:
		t.deadlined++
	}
	t.brk.record(s.now(), faulted, s.cfg.BreakerFaults, s.cfg.BreakerCooldown)
	if s.draining {
		s.drainedJobs++
	}
	close(j.done)
	s.cond.Broadcast()
}

func clampSamples(n int64, budget int) int {
	if n > int64(budget) {
		return budget
	}
	return int(n)
}

// runSearch executes the job's remaining sample budget under its remaining
// wall budget. The deadline is honored at every stage: the budget clock
// started at submission (queue wait already spent part of it), each
// physical profile runs under interp.Limits.Deadline bounded by what is
// left, and the batch loop re-checks between chunks.
func (s *Server) runSearch(j *Job, prior int, cancel <-chan struct{}) (out searchOutcome) {
	defer func() {
		if v := recover(); v != nil {
			out = searchOutcome{state: StateFault, errText: fmt.Sprintf("serve: contained job panic: %v", v)}
		}
	}()
	if faults.Hit(faults.ServePanic) {
		panic(fmt.Errorf("serve runner: %w", faults.ErrInjected))
	}
	rem := j.remaining(s.now())
	if rem <= 0 {
		return searchOutcome{state: StateDeadline, errText: "deadline exhausted while queued"}
	}
	p, err := s.baselines.NewProgram(j.ID, j.mod)
	if err != nil {
		// Baseline profiling failed: the module itself is pathological
		// (stalls, traps, blows limits). Fault-classed — this is exactly
		// what feeds the tenant's breaker.
		return searchOutcome{state: StateFault, errText: err.Error()}
	}
	if len(j.quar) > 0 {
		p.RestoreQuarantine(j.quar)
	}
	if j.Deadline > 0 {
		lim := interp.DefaultLimits
		lim.Deadline = rem
		p.SetLimits(lim)
	}
	ev := s.compile.Evaluator(p)

	var interrupted, deadlined bool
	expired := func() bool {
		select {
		case <-cancel:
			interrupted = true
			return true
		default:
		}
		if j.remaining(s.now()) <= 0 {
			deadlined = true
			return true
		}
		return false
	}
	const chunk = 16
	obj := &search.Objective{
		K:     passes.NumActions,
		N:     j.SeqLen,
		Batch: chunk,
		EvalBatch: func(seqs [][]int) []search.EvalOutcome {
			if interrupted || deadlined || expired() {
				// Shed the rest of the search without touching the engine:
				// the algorithm fast-forwards over all-failed outcomes and
				// returns promptly, bounded by candidate generation only.
				outs := make([]search.EvalOutcome, len(seqs))
				return outs
			}
			rs := ev.EvalBatch(seqs)
			outs := make([]search.EvalOutcome, len(rs))
			for i, r := range rs {
				outs[i] = search.EvalOutcome{Val: r.Cycles, Ok: r.Ok}
			}
			s.recordProgress(j, p, prior)
			return outs
		},
	}
	budget := j.Budget - prior
	if budget > 0 {
		rng := rand.New(rand.NewSource(jobSeed(j.ID) ^ int64(prior)))
		switch j.Algo {
		case "genetic":
			search.Genetic(obj, rng, search.DefaultGA(), budget)
		default: // "random"
			search.Random(obj, rng, budget)
		}
	}

	stats := p.EvalStats()
	best, seq := p.BestCycles()
	out = searchOutcome{stats: stats, bestCycles: best, bestSeq: seq}
	switch {
	case interrupted:
		out.interrupted = true
		out.quar = p.QuarantineRecords()
	case deadlined:
		out.state = StateDeadline
		out.errText = "wall-clock budget exhausted mid-search"
	case stats.Samples > 0 && stats.Successes == 0:
		out.state = StateFault
		out.errText = "every sample faulted"
	default:
		out.state = StateDone
	}
	return out
}

// recordProgress publishes a running job's partial result so polls see
// live progress.
func (s *Server) recordProgress(j *Job, p *core.Program, prior int) {
	best, seq := p.BestCycles()
	st := p.EvalStats()
	s.mu.Lock()
	j.samplesUsed = clampSamples(int64(prior)+st.Samples, j.Budget)
	if seq != nil && (j.bestSeq == nil || best < j.bestCycles) {
		j.bestCycles, j.bestSeq = best, seq
	}
	s.mu.Unlock()
}

// jobSeed hashes a job ID into the search RNG seed (FNV-1a).
func jobSeed(id string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return int64(h &^ (1 << 63))
}

// Shutdown gracefully stops the service: admission turns into explicit
// 503s immediately, workers keep draining queued jobs until the bounded
// drain window closes, anything still unfinished is checkpointed (when
// configured) and marked StateCheckpointed. Safe to call once; the ctx can
// end the drain early.
func (s *Server) Shutdown(ctx contextLike) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()

	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-workersDone:
	case <-timer.C:
		s.abort()
		<-workersDone
	case <-ctx.Done():
		s.abort()
		<-workersDone
	}
	return s.checkpointRemaining()
}

// contextLike is the subset of context.Context Shutdown needs; declared
// locally so the package's public surface documents exactly what it uses.
type contextLike interface{ Done() <-chan struct{} }

// abort ends the drain window: no further dispatch, running jobs are
// cancelled so they can be checkpointed instead of running long.
func (s *Server) abort() {
	s.mu.Lock()
	s.aborting = true
	for _, cancel := range s.cancels {
		cancel()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Draining reports whether admission has been stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
