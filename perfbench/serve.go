package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"autophase/internal/core"
	"autophase/internal/ir"
	"autophase/internal/passes"
	"autophase/internal/progen"
	"autophase/internal/serve"
)

// serve-warm-deadline drives an in-process autophase service (serve.New
// with its Handler on loopback, two workers, an artifact store) in an open
// loop: one generator goroutine submits jobs at a fixed rate below
// capacity while one poller long-polls them, so the load uses two
// connections. Jobs come from four tenants over eight generated modules:
// random search, budget 40, 18-pass sequences, and a deadline far above
// any job's latency. The store is primed once per invocation with the same
// job list, a few jobs outstanding at a time, and copied for each set-up,
// so it does not grow across runs.
// There is one submitter because the server derives each job's search
// seed from the ID it assigns, and one submitter keeps the ID → module
// mapping, and so every result, deterministic.
//
// The deadline is the point of the workload: hls.Profiler keys stored
// profiles on the full interp.Limits, Deadline included, and the service
// sets Deadline to each job's remaining budget, so primed profiles are
// almost never found again (serve.disk_hit_ratio).

const (
	serveTenants  = 4
	serveModules  = 8
	serveBudget   = 40
	serveSeqLen   = 18
	serveWorkers  = 2
	serveRate     = 3.4              // jobs per second: a quarter to a third of the 2 cores busy, little queueing
	primeWindow   = serveWorkers + 1 // jobs outstanding while priming the store
	serveDeadline = 10 * time.Minute // far above any job's latency; the service's maximum
)

// serveInputs is the generated job list with each module's reference.
type serveInputs struct {
	refs   []*reference
	o3     []int64
	module []int    // job → module
	bodies [][]byte // job → submission
}

func makeServeInputs(cfg config) (*serveInputs, error) {
	nMods, nJobs := serveModules, int(math.Round(serveRate*cfg.seconds))
	if cfg.tiny {
		nMods, nJobs = 2, 4
	}
	nJobs = max(nJobs, 1)
	in := &serveInputs{}
	texts := make([]string, nMods)
	// The module pool is fixed and job j optimizes module j mod 8, so the
	// server's search seed for each job (derived from its ID) meets the
	// same module for every seed: the work and the results do not change
	// from seed to seed. The seed picks the tenant submitting each job,
	// which is what the service's admission and fair scheduling see.
	next := int64(1000)
	for i := range texts {
		m, used := progen.GenerateFiltered(next, progen.DefaultGen)
		next = used + 1
		texts[i] = m.String()
		// The service sees the module through its textual form; the
		// reference and the -O3 baseline use the same parsed module.
		parsed, err := ir.Parse(texts[i])
		if err != nil {
			return nil, fmt.Errorf("module %d: %w", i, err)
		}
		ref, err := newReference(fmt.Sprintf("m%d", i), parsed)
		if err != nil {
			return nil, err
		}
		p, err := core.NewProgram(ref.name, parsed)
		if err != nil {
			return nil, err
		}
		in.refs = append(in.refs, ref)
		in.o3 = append(in.o3, p.O3Cycles)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for j := 0; j < nJobs; j++ {
		mod := j % nMods
		in.module = append(in.module, mod)
		body, err := json.Marshal(serve.SubmitRequest{
			Tenant: fmt.Sprintf("t%d", rng.Intn(serveTenants)), IR: texts[mod], Algo: "random",
			Budget: serveBudget, SeqLen: serveSeqLen, DeadlineMS: serveDeadline.Milliseconds(),
		})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

func runServe(cfg config) (*result, error) {
	in, err := makeServeInputs(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{inputKey: fmt.Sprintf("serve-warm-deadline/jobs=%d", len(in.bodies))}

	prime := filepath.Join(cfg.workDir, "prime")
	srv, err := startServer(prime)
	if err != nil {
		return nil, err
	}
	primed, _ := srv.drive(in.bodies, 0, nil)
	if err := srv.stop(); err != nil {
		return nil, err
	}
	runtime.GC() // the priming server's heap is garbage now; keep it out of the measured phase
	for i, o := range primed {
		if o.err != nil || o.status.State != "done" {
			return nil, fmt.Errorf("priming job %d: state %q: %v %s", i, o.status.State, o.err, o.status.Error)
		}
	}

	// Each set-up copies the primed store and starts a fresh server on it;
	// the last one serves the measured load.
	reps := 0
	res.setups, err = setUp(func() error {
		reps++
		dir := filepath.Join(cfg.workDir, "run"+strconv.Itoa(reps))
		if err := copyDir(prime, dir); err != nil {
			return err
		}
		srv, err = startServer(dir)
		return err
	}, func() error {
		if err := srv.stop(); err != nil {
			return err
		}
		return os.RemoveAll(srv.dir)
	})
	if err != nil {
		return nil, err
	}
	tr := newTracer(cfg)
	u0 := snapshot()
	outs, wall := srv.drive(in.bodies, serveRate, tr)
	res.use = snapshot().sub(u0)
	res.rounds = []time.Duration{wall}
	var report serve.StatsReport
	statsErr := srv.getJSON("/v1/stats", &report)
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if statsErr != nil {
		return nil, statsErr
	}

	var work core.EvalStats
	var diskHits int64
	bests := make([]best, len(in.refs))
	var submit, late, server time.Duration
	var polls int
	for i, o := range outs {
		res.attempted++
		switch {
		case o.err != nil:
			res.failedJobs++
			res.fail("job %d: %v", i, o.err)
			continue
		case o.status.State != "done":
			res.failedJobs++
			res.fail("job %s: state %s: %s", o.status.ID, o.status.State, o.status.Error)
			continue
		}
		serverLatency := time.Duration(o.status.LatencyMS * float64(time.Millisecond))
		// The job was due at o.scheduled; the server's latency runs from
		// admission, just before the submission was acknowledged.
		res.jobs = append(res.jobs, o.acked.Sub(o.scheduled)+serverLatency)
		submit += o.submit
		late += o.late
		server += serverLatency
		polls += o.polls
		c := parseStats(o.status.Stats)
		work.Samples += c["samples"]
		work.Compiles += c["compiles"]
		work.CacheHits += c["cache-hits"]
		work.FPHits += c["fp-hits"]
		work.NoopIR += c["noop-ir"]
		work.Merges += c["merges"]
		work.StaticHits += c["static"]
		work.VMHits += c["vm"]
		work.InterpHits += c["interp"]
		diskHits += c["disk-hits"]
		p := primed[i].status
		if o.status.BestCycles != p.BestCycles || !slices.Equal(o.status.BestSeq, p.BestSeq) {
			res.fail("job %s: best %d %v on the primed store, %d %v when priming it",
				o.status.ID, o.status.BestCycles, o.status.BestSeq, p.BestCycles, p.BestSeq)
		}
		m := in.module[i]
		bests[m].update(o.status.BestCycles, o.status.BestSeq, in.o3[m])
	}
	if report.Shed429+report.Shed503 != 0 {
		res.fail("the server shed %d submissions", report.Shed429+report.Shed503)
	}
	for _, t := range report.Tenants {
		if t.Samples != t.Successes+t.Faults+t.Flagged {
			res.fail("tenant %s: samples=%d != successes+faults+flagged=%d+%d+%d", t.ID, t.Samples, t.Successes, t.Faults, t.Flagged)
		}
	}
	for m, b := range bests {
		if b.set {
			if err := in.refs[m].check(b.seq); err != nil {
				res.fail("%v", err)
			}
		}
	}
	res.samples = work.Samples
	res.evals = int64(len(res.jobs)) * serveBudget
	res.speedup = speedupPct(bests)
	if tr == nil || len(res.jobs) == 0 {
		return res, nil
	}

	// The server's own sequences stay inside it; the replay draws the same
	// kind the jobs draw: random 18-pass sequences, each on the module of a
	// random job.
	rng := rand.New(rand.NewSource(cfg.seed))
	items := make([]replayItem, replaySize)
	mods := make([]*ir.Module, len(in.refs))
	for i, ref := range in.refs {
		mods[i] = ref.mod
	}
	for i := range items {
		seq := make([]int, serveSeqLen)
		for j := range seq {
			seq[j] = rng.Intn(passes.NumActions)
		}
		items[i] = replayItem{mod: mods[in.module[rng.Intn(len(in.module))]], seq: seq}
	}
	per, err := replay(items, mods, cfg.workDir)
	if err != nil {
		return nil, err
	}
	n := float64(len(res.jobs))
	ratio := 0.0
	if work.Compiles > 0 {
		ratio = float64(diskHits) / float64(work.Compiles)
	}
	res.setLayers(layerInputs{
		client:       "load generator and poller outside HTTP calls",
		selfS:        tr.self.Seconds(),
		callS:        tr.call.Seconds(),
		callsPerJob:  float64(tr.calls) / n,
		systemMS:     ms(server) / n,
		programS:     -1,
		diskHitRatio: ratio,
		// Every compile looks up its profile and feature records; every
		// compile not answered from disk writes both back.
		programs: n,
		stats:    work,
		gets:     2 * float64(work.Compiles),
		puts:     2 * float64(work.Compiles-diskHits),
	}, per, len(items))
	res.notes = append(res.notes,
		fmt.Sprintf("serve.submit_ms = %.3f ms (mean POST /v1/jobs round trip)", ms(submit)/n),
		fmt.Sprintf("serve.server_latency_ms = %.3f ms (mean latency_ms of JobStatus: admission to terminal, queueing included)", ms(server)/n),
		fmt.Sprintf("serve.gen_late_ms = %.3f ms (mean lateness of the generator against its schedule)", ms(late)/n),
		fmt.Sprintf("serve.polls_per_job = %.3f", float64(polls)/n),
		fmt.Sprintf("serve.disk_hit_ratio = %.4f (per-job disk-hits / compiles from the job stats lines)", ratio),
		"client.call_s is the time inside POST and long-poll GET calls; job.system_ms is serve.server_latency_ms.",
		"core.NewProgram runs inside the server for every job; its row is the replay's time without a store times the job count.",
		"The artifact rows estimate two Gets per compile and two Puts per compile not answered from disk.",
		"Artifact counters come from per-job stats lines, never from /v1/stats' aggregate, which adds the store-wide disk-writes and disk-bytes once per job.")
	return res, nil
}

// server is one in-process service on a loopback listener, with the
// two-connection client the load uses.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	dir    string
	client *http.Client
	served chan error
}

func startServer(dir string) (*server, error) {
	cfg := serve.DefaultConfig()
	cfg.Workers = serveWorkers
	cfg.MaxBudget = serveBudget
	cfg.ArtifactDir = dir
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	srv.Start()
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the service, closes the listener and waits for it, and
// closes the artifact store.
func (s *server) stop() error {
	if err := s.srv.Shutdown(context.Background()); err != nil {
		return err
	}
	if err := s.hs.Close(); err != nil {
		return err
	}
	<-s.served
	s.client.CloseIdleConnections()
	return s.srv.Close()
}

// jobOutcome is one submitted job as the client saw it.
type jobOutcome struct {
	status    serve.JobStatus
	err       error
	scheduled time.Time     // when the job was due to be sent
	acked     time.Time     // when the submission was acknowledged
	submit    time.Duration // POST round trip
	late      time.Duration // how late the generator sent it
	polls     int
}

// drive submits every body, at rate per second from one generator
// goroutine, while this goroutine long-polls each accepted job to a
// terminal state in submission order. When rate is 0 the generator instead
// keeps primeWindow jobs outstanding, so the service never queues more
// than its admission quotas allow. It returns when every job is settled,
// with the time from the first send.
func (s *server) drive(bodies [][]byte, rate float64, tr *tracer) ([]jobOutcome, time.Duration) {
	outs := make([]jobOutcome, len(bodies))
	// Sized to every job, so the generator never waits for the poller.
	sent := make(chan int, len(bodies))
	var window chan struct{}
	if rate == 0 {
		window = make(chan struct{}, primeWindow)
	}
	var genCall, genSelf time.Duration
	start := time.Now()
	go func() {
		defer close(sent)
		for i, body := range bodies {
			o := &outs[i]
			if rate > 0 {
				o.scheduled = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(o.scheduled))
			} else {
				window <- struct{}{}
				o.scheduled = time.Now()
			}
			t0 := time.Now()
			o.late = t0.Sub(o.scheduled)
			o.status.ID, o.err = s.submit(body)
			o.acked = time.Now()
			o.submit = o.acked.Sub(t0)
			genCall += o.submit
			sent <- i
			genSelf += time.Since(o.acked)
		}
	}()
	var pollCall, pollSelf time.Duration
	for i := range sent {
		o := &outs[i]
		if o.err == nil {
			t0 := time.Now()
			var call time.Duration
			o.status, o.polls, call, o.err = s.wait(o.status.ID)
			pollCall += call
			pollSelf += time.Since(t0) - call
		}
		if window != nil {
			<-window
		}
	}
	wall := time.Since(start)
	if tr != nil {
		tr.call += genCall + pollCall
		tr.self += genSelf + pollSelf
		for _, o := range outs {
			tr.calls += int64(1 + o.polls)
		}
	}
	return outs, wall
}

func (s *server) submit(body []byte) (string, error) {
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var ack serve.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return ack.ID, nil
}

// wait long-polls job id until it is terminal and returns its status, the
// number of polls and the time spent inside them.
func (s *server) wait(id string) (serve.JobStatus, int, time.Duration, error) {
	var inside time.Duration
	for polls := 1; ; polls++ {
		var st serve.JobStatus
		t0 := time.Now()
		err := s.getJSON("/v1/jobs/"+id+"?wait=30s", &st)
		inside += time.Since(t0)
		if err != nil || (st.State != "queued" && st.State != "running") {
			return st, polls, inside, err
		}
	}
}

func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// parseStats reads the integer key=value fields of a job's stats line.
func parseStats(line string) map[string]int64 {
	out := map[string]int64{}
	for _, f := range strings.Fields(line) {
		if k, v, ok := strings.Cut(f, "="); ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				out[k] = n
			}
		}
	}
	return out
}

// copyDir copies the regular files of a store directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
