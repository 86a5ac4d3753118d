package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"autophase/internal/core"
	"autophase/internal/faults"
	"autophase/internal/progen"
)

// testIR is a tiny, quickly profiled module every engine handles.
const testIR = `define i32 @main() {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %inc, %loop ]
  %acc = phi i32 [ 0, %entry ], [ %sum, %loop ]
  %sum = add i32 %acc, %i
  %inc = add i32 %i, 1
  %c = icmp slt i32 %inc, 64
  br i1 %c, label %loop, label %exit
exit:
  ret i32 %sum
}
`

// poisonIR faults organically in every engine: the VM and the interpreter
// blow MaxSteps for real, and the static estimator (under the sanitizer)
// computes a step count past the limit and declines.
const poisonIR = `define i32 @main() {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %inc, %loop ]
  %inc = add i32 %i, 1
  %c = icmp slt i32 %inc, 100000000
  br i1 %c, label %loop, label %exit
exit:
  ret i32 %i
}
`

// fakeClock drives the server's injectable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.TenantRate = 1000
	cfg.TenantBurst = 1000
	cfg.DrainTimeout = 30 * time.Second
	return cfg
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func submit(t *testing.T, ts *httptest.Server, req SubmitRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "?wait=2s")
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "queued" && st.State != "running" {
			return st
		}
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

func TestTokenBucket(t *testing.T) {
	clk := newFakeClock()
	var b tokenBucket
	for i := 0; i < 3; i++ {
		if ok, _ := b.take(clk.now(), 1, 3); !ok {
			t.Fatalf("take %d should succeed within the burst", i)
		}
	}
	ok, retry := b.take(clk.now(), 1, 3)
	if ok {
		t.Fatal("bucket should be empty")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s]", retry)
	}
	clk.advance(time.Second)
	if ok, _ := b.take(clk.now(), 1, 3); !ok {
		t.Fatal("one token should have refilled after a second")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clk := newFakeClock()
	var b breaker
	const threshold = 3
	cooldown := 10 * time.Second

	for i := 0; i < threshold; i++ {
		if ok, _ := b.admit(clk.now(), threshold); !ok {
			t.Fatalf("breaker should admit before tripping (failure %d)", i)
		}
		b.record(clk.now(), true, threshold, cooldown)
	}
	if ok, retry := b.admit(clk.now(), threshold); ok || retry <= 0 {
		t.Fatalf("tripped breaker should reject with a positive Retry-After (ok=%v retry=%v)", ok, retry)
	}
	clk.advance(cooldown + time.Second)
	if ok, _ := b.admit(clk.now(), threshold); !ok {
		t.Fatal("cooled-down breaker should admit one half-open probe")
	}
	if ok, _ := b.admit(clk.now(), threshold); ok {
		t.Fatal("only one probe may be in flight at a time")
	}
	// A faulting probe re-opens the breaker.
	b.record(clk.now(), true, threshold, cooldown)
	if ok, _ := b.admit(clk.now(), threshold); ok {
		t.Fatal("breaker should re-open after a faulting probe")
	}
	clk.advance(cooldown + time.Second)
	if ok, _ := b.admit(clk.now(), threshold); !ok {
		t.Fatal("second probe should be admitted after another cooldown")
	}
	// A clean probe closes it entirely.
	b.record(clk.now(), false, threshold, cooldown)
	for i := 0; i < 5; i++ {
		if ok, _ := b.admit(clk.now(), threshold); !ok {
			t.Fatal("closed breaker should admit freely")
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, testConfig())
	defer s.Close()
	cases := []struct {
		name string
		req  SubmitRequest
		want string
	}{
		{"missing tenant", SubmitRequest{IR: testIR}, "missing tenant"},
		{"missing ir", SubmitRequest{Tenant: "a"}, "missing ir"},
		{"bad algo", SubmitRequest{Tenant: "a", IR: testIR, Algo: "ppo"}, "unknown algo"},
		{"budget too big", SubmitRequest{Tenant: "a", IR: testIR, Budget: 1 << 20}, "budget"},
		{"negative budget", SubmitRequest{Tenant: "a", IR: testIR, Budget: -1}, "budget"},
		{"len too big", SubmitRequest{Tenant: "a", IR: testIR, SeqLen: 1000}, "len"},
		{"negative deadline", SubmitRequest{Tenant: "a", IR: testIR, DeadlineMS: -5}, "deadline_ms"},
		{"bad ir", SubmitRequest{Tenant: "a", IR: "definitely not ir"}, "bad ir"},
		{"ir that does not verify", SubmitRequest{Tenant: "a", IR: "define i32 @main()"}, "bad ir"},
		{"deadline overflows", SubmitRequest{Tenant: "a", IR: testIR, DeadlineMS: 1 << 62}, "deadline_ms"},
	}
	for _, tc := range cases {
		if _, errText := s.buildJob(&tc.req); !strings.Contains(errText, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, errText, tc.want)
		}
	}
}

// TestAdmissionQuotaAndQueue exercises the per-tenant concurrency quota
// (429) and the global queue bound (503) without any workers running, so
// every accepted job stays queued.
func TestAdmissionQuotaAndQueue(t *testing.T) {
	cfg := testConfig()
	cfg.TenantJobs = 2
	cfg.QueueCap = 3
	s := newTestServer(t, cfg)
	defer s.Close()

	mk := func(tenant string) *Job {
		j, errText := s.buildJob(&SubmitRequest{Tenant: tenant, IR: testIR})
		if errText != "" {
			t.Fatal(errText)
		}
		return j
	}
	for i := 0; i < 2; i++ {
		if shed := s.admit(mk("a")); shed != nil {
			t.Fatalf("admit %d: unexpected shed %v", i, shed)
		}
	}
	shed := s.admit(mk("a"))
	if shed == nil || shed.code != http.StatusTooManyRequests {
		t.Fatalf("third job should hit tenant a's quota with 429, got %+v", shed)
	}
	if shed.retryAfter <= 0 {
		t.Fatal("quota shed must carry a Retry-After")
	}
	if shed := s.admit(mk("b")); shed != nil {
		t.Fatalf("tenant b should be unaffected by a's quota: %v", shed)
	}
	shed = s.admit(mk("c"))
	if shed == nil || shed.code != http.StatusServiceUnavailable {
		t.Fatalf("queue is full (3): tenant c should shed with 503, got %+v", shed)
	}
	st := s.Stats()
	if st.Shed429 != 1 || st.Shed503 != 1 || st.Accepted != 3 {
		t.Fatalf("counters: accepted=%d shed429=%d shed503=%d, want 3/1/1", st.Accepted, st.Shed429, st.Shed503)
	}
}

func TestRateLimitRetryAfter(t *testing.T) {
	cfg := testConfig()
	cfg.TenantRate = 1
	cfg.TenantBurst = 1
	s := newTestServer(t, cfg)
	defer s.Close()
	clk := newFakeClock()
	s.now = clk.now

	mk := func() *Job {
		j, errText := s.buildJob(&SubmitRequest{Tenant: "a", IR: testIR})
		if errText != "" {
			t.Fatal(errText)
		}
		return j
	}
	if shed := s.admit(mk()); shed != nil {
		t.Fatalf("burst token should admit: %v", shed)
	}
	shed := s.admit(mk())
	if shed == nil || shed.code != http.StatusTooManyRequests || shed.retryAfter <= 0 {
		t.Fatalf("rate-limited submit should shed 429 with Retry-After, got %+v", shed)
	}
	clk.advance(1100 * time.Millisecond)
	if shed := s.admit(mk()); shed != nil {
		t.Fatalf("after a refill period the tenant should be admitted: %v", shed)
	}
}

// TestStrideFairness floods tenant a's queue and checks that tenant b's
// jobs are interleaved at fair share instead of waiting behind the flood.
func TestStrideFairness(t *testing.T) {
	cfg := testConfig()
	s := newTestServer(t, cfg)
	defer s.Close()

	submitOne := func(tenant string) {
		j, errText := s.buildJob(&SubmitRequest{Tenant: tenant, IR: testIR})
		if errText != "" {
			t.Fatal(errText)
		}
		if shed := s.admit(j); shed != nil {
			t.Fatal(shed)
		}
	}
	for i := 0; i < 6; i++ {
		submitOne("a")
	}
	for i := 0; i < 2; i++ {
		submitOne("b")
	}
	var order []string
	for i := 0; i < 8; i++ {
		j := s.next()
		if j == nil {
			t.Fatal("next returned nil with jobs queued")
		}
		order = append(order, j.Tenant)
	}
	want := []string{"a", "b", "a", "b", "a", "a", "a", "a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v (b must not starve behind a's flood)", order, want)
		}
	}
}

// TestStrideWeights gives tenant a twice the weight and checks it is
// served roughly twice as often under backlog.
func TestStrideWeights(t *testing.T) {
	cfg := testConfig()
	cfg.Weights = map[string]int{"a": 2}
	s := newTestServer(t, cfg)
	defer s.Close()
	for i := 0; i < 8; i++ {
		for _, tenant := range []string{"a", "b"} {
			j, errText := s.buildJob(&SubmitRequest{Tenant: tenant, IR: testIR})
			if errText != "" {
				t.Fatal(errText)
			}
			if shed := s.admit(j); shed != nil {
				t.Fatal(shed)
			}
		}
	}
	aServed := 0
	for i := 0; i < 9; i++ {
		if j := s.next(); j.Tenant == "a" {
			aServed++
		}
	}
	if aServed != 6 {
		t.Fatalf("weight-2 tenant got %d of the first 9 dispatches, want 6", aServed)
	}
}

// TestDeadlineSpentInQueue: a job whose wall budget evaporates while it
// waits must terminate as a deadline miss without burning any samples —
// queue wait counts against the budget.
func TestDeadlineSpentInQueue(t *testing.T) {
	cfg := testConfig()
	s := newTestServer(t, cfg)
	defer s.Close()
	clk := newFakeClock()
	s.now = clk.now

	j, errText := s.buildJob(&SubmitRequest{Tenant: "a", IR: testIR, DeadlineMS: 50})
	if errText != "" {
		t.Fatal(errText)
	}
	if shed := s.admit(j); shed != nil {
		t.Fatal(shed)
	}
	clk.advance(100 * time.Millisecond)
	got := s.next()
	if got != j {
		t.Fatal("dispatched a different job")
	}
	s.runJob(got)
	s.mu.Lock()
	state, errMsg, samples := j.state, j.errText, j.samplesUsed
	deadlined := s.tenants["a"].deadlined
	s.mu.Unlock()
	if state != StateDeadline {
		t.Fatalf("state = %v, want deadline", state)
	}
	if !strings.Contains(errMsg, "queued") {
		t.Fatalf("error %q should say the budget died in the queue", errMsg)
	}
	if samples != 0 {
		t.Fatalf("an expired job must not burn samples, used %d", samples)
	}
	if deadlined != 1 {
		t.Fatalf("tenant deadlined counter = %d, want 1", deadlined)
	}
}

func TestServeEndToEnd(t *testing.T) {
	s := newTestServer(t, testConfig())
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	defer s.Shutdown(context.Background())

	var ids []string
	for i := 0; i < 4; i++ {
		tenant := []string{"acme", "globex"}[i%2]
		resp, body := submit(t, ts, SubmitRequest{Tenant: tenant, IR: testIR, Budget: 8, SeqLen: 4})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d body %s", i, resp.StatusCode, body)
		}
		var ack SubmitResponse
		if err := json.Unmarshal(body, &ack); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ack.ID)
	}
	for _, id := range ids {
		st := waitTerminal(t, ts, id)
		if st.State != "done" {
			t.Fatalf("job %s: state %s (%s), want done", id, st.State, st.Error)
		}
		if st.SamplesUsed != 8 {
			t.Fatalf("job %s used %d samples, want the full budget 8", id, st.SamplesUsed)
		}
		if st.BestCycles <= 0 {
			t.Fatalf("job %s reported no best cycles", id)
		}
		if st.Stats == "" || st.LatencyMS <= 0 {
			t.Fatalf("terminal job %s should report stats and latency: %+v", id, st)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var rep StatsReport
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 4 || len(rep.Tenants) != 2 {
		t.Fatalf("stats: accepted=%d tenants=%d, want 4 and 2", rep.Accepted, len(rep.Tenants))
	}
	var samples, successes, faultsN, flagged int64
	for _, tr := range rep.Tenants {
		samples += tr.Samples
		successes += tr.Successes
		faultsN += tr.Faults
		flagged += tr.Flagged
	}
	if samples != successes+faultsN+flagged {
		t.Fatalf("accounting invariant broken across tenants: %d != %d+%d+%d", samples, successes, faultsN, flagged)
	}
	if hr, err := ts.Client().Get(ts.URL + "/healthz"); err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz should be 200 while accepting (err=%v)", err)
	} else {
		hr.Body.Close()
	}
}

// TestStatsDiskCountersReadOnce: the shared store's counters are
// store-wide, so /v1/stats reports them once, straight from the store, and
// no job's stats line carries them.
func TestStatsDiskCountersReadOnce(t *testing.T) {
	cfg := testConfig()
	cfg.ArtifactDir = t.TempDir()
	s := newTestServer(t, cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	defer s.Shutdown(context.Background())

	const jobs = 3
	for i := 0; i < jobs; i++ {
		// One at a time, so each job sees the writes of those before it.
		resp, body := submit(t, ts, SubmitRequest{Tenant: "acme", IR: testIR, Budget: 8, SeqLen: 4})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d body %s", i, resp.StatusCode, body)
		}
		var ack SubmitResponse
		if err := json.Unmarshal(body, &ack); err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, ts, ack.ID)
		if st.State != "done" {
			t.Fatalf("job %s: state %s (%s), want done", ack.ID, st.State, st.Error)
		}
		for _, banned := range []string{"disk-writes=", "disk-bytes=", "disk-corrupt="} {
			if strings.Contains(st.Stats, banned) {
				t.Fatalf("job %s stats line carries the store-wide %s: %q", ack.ID, banned, st.Stats)
			}
		}
	}
	s.store.Flush()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var rep StatsReport
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	ss := s.store.Stats()
	if ss.Writes == 0 {
		t.Fatal("jobs wrote nothing to the store")
	}
	if rep.Store == nil || *rep.Store != ss {
		t.Fatalf("/v1/stats store = %+v, want the store's own counters %+v", rep.Store, ss)
	}
}

// TestServePanicContained: an injected panic inside the job runner must
// become a fault-classed job, and the worker must survive to run the next
// one.
func TestServePanicContained(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.BreakerFaults = 0 // keep the breaker out of this test's way
	s := newTestServer(t, cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	defer s.Shutdown(context.Background())

	spec, err := faults.ParseSpec("serve-panic:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(spec)
	resp, body := submit(t, ts, SubmitRequest{Tenant: "a", IR: testIR, Budget: 4})
	if resp.StatusCode != http.StatusAccepted {
		faults.Disable()
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var ack SubmitResponse
	json.Unmarshal(body, &ack)
	st := waitTerminal(t, ts, ack.ID)
	faults.Disable()
	if st.State != "fault" || !strings.Contains(st.Error, "contained job panic") {
		t.Fatalf("injected panic should surface as a contained fault, got %s (%s)", st.State, st.Error)
	}

	// The worker that contained the panic must still be alive.
	resp, body = submit(t, ts, SubmitRequest{Tenant: "a", IR: testIR, Budget: 4})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after panic: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &ack)
	if st := waitTerminal(t, ts, ack.ID); st.State != "done" {
		t.Fatalf("post-panic job state %s (%s), want done", st.State, st.Error)
	}
}

// TestBreakerShieldsOtherTenants is the cross-tenant isolation proof: a
// tenant whose modules organically fault trips its own breaker and starts
// shedding with 429, while a healthy tenant's jobs keep completing
// untouched.
func TestBreakerShieldsOtherTenants(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.BreakerFaults = 2
	cfg.BreakerCooldown = time.Hour
	s := newTestServer(t, cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	defer s.Shutdown(context.Background())

	for i := 0; i < 2; i++ {
		resp, body := submit(t, ts, SubmitRequest{Tenant: "poison", IR: poisonIR, Budget: 2})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("poison submit %d: %d %s", i, resp.StatusCode, body)
		}
		var ack SubmitResponse
		json.Unmarshal(body, &ack)
		if st := waitTerminal(t, ts, ack.ID); st.State != "fault" {
			t.Fatalf("poison job should fault, got %s (%s)", st.State, st.Error)
		}
	}
	resp, _ := submit(t, ts, SubmitRequest{Tenant: "poison", IR: poisonIR, Budget: 2})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tripped tenant should shed with 429, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker shed must carry Retry-After")
	}

	resp, body := submit(t, ts, SubmitRequest{Tenant: "healthy", IR: testIR, Budget: 4})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy tenant must be untouched by poison's breaker: %d %s", resp.StatusCode, body)
	}
	var ack SubmitResponse
	json.Unmarshal(body, &ack)
	if st := waitTerminal(t, ts, ack.ID); st.State != "done" {
		t.Fatalf("healthy job state %s (%s), want done", st.State, st.Error)
	}
}

// TestGracefulShutdownDrains: jobs in flight when Shutdown begins must
// complete inside the drain window; new submissions must shed with an
// explicit 503; healthz must flip to 503.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, testConfig())
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		resp, body := submit(t, ts, SubmitRequest{Tenant: "a", IR: testIR, Budget: 8})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
		var ack SubmitResponse
		json.Unmarshal(body, &ack)
		ids = append(ids, ack.ID)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if st := waitTerminal(t, ts, id); st.State != "done" {
			t.Fatalf("job %s should drain to done, got %s (%s)", id, st.State, st.Error)
		}
	}
	resp, _ := submit(t, ts, SubmitRequest{Tenant: "a", IR: testIR})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server must shed submissions with 503, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain shed must carry Retry-After")
	}
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", hr.StatusCode)
	}
	if st := s.Stats(); st.Checkpointed != 0 {
		t.Fatalf("everything drained, nothing should be checkpointed: %+v", st)
	}
}

// TestCheckpointRestartResume is the restart-and-resume acceptance test:
// a server stopped with queued jobs checkpoints every one of them, and a
// new server built on the same path resumes and finishes them under their
// original IDs.
func TestCheckpointRestartResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	cfg := testConfig()
	cfg.CheckpointPath = path

	// Life 1: no workers started, so every accepted job stays queued.
	s1 := newTestServer(t, cfg)
	var ids []string
	for i := 0; i < 3; i++ {
		j, errText := s1.buildJob(&SubmitRequest{Tenant: "a", IR: testIR, Budget: 6})
		if errText != "" {
			t.Fatal(errText)
		}
		if shed := s1.admit(j); shed != nil {
			t.Fatal(shed)
		}
		ids = append(ids, j.ID)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if st := s1.Stats(); st.Checkpointed != 3 {
		t.Fatalf("checkpointed = %d, want 3", st.Checkpointed)
	}
	s1.mu.Lock()
	for _, id := range ids {
		if got := s1.jobs[id].state; got != StateCheckpointed {
			t.Fatalf("job %s state %v, want checkpointed", id, got)
		}
	}
	s1.mu.Unlock()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}

	// Life 2: the same path resumes all three, and workers finish them.
	s2 := newTestServer(t, cfg)
	if st := s2.Stats(); st.Resumed != 3 {
		t.Fatalf("resumed = %d, want 3", st.Resumed)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file should be consumed on load, stat err = %v", err)
	}
	s2.Start()
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	defer s2.Close()
	defer s2.Shutdown(context.Background())
	for _, id := range ids {
		st := waitTerminal(t, ts, id)
		if st.State != "done" {
			t.Fatalf("resumed job %s: state %s (%s), want done", id, st.State, st.Error)
		}
		if !st.Resumed {
			t.Fatalf("job %s should be marked resumed", id)
		}
		if st.SamplesUsed != 6 {
			t.Fatalf("resumed job %s used %d samples, want 6", id, st.SamplesUsed)
		}
	}
}

// TestCheckpointPartialProgress: a job interrupted mid-search checkpoints
// its spent samples and incumbent, and the next life only runs the
// remainder — prior work is neither lost nor redone.
func TestCheckpointPartialProgress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	recs := []jobRecord{{
		ID: "j000042", Tenant: "a", Algo: "random", IR: testIR,
		Budget: 10, SeqLen: 4, SamplesUsed: 4,
		BestCycles: 1, BestSeq: []int{0},
	}}
	if err := writeCheckpoint(path, recs); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.CheckpointPath = path
	s := newTestServer(t, cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	defer s.Shutdown(context.Background())

	st := waitTerminal(t, ts, "j000042")
	if st.State != "done" {
		t.Fatalf("state %s (%s), want done", st.State, st.Error)
	}
	if st.SamplesUsed != 10 {
		t.Fatalf("samples_used = %d, want prior 4 + remaining 6 = 10", st.SamplesUsed)
	}
	// The checkpointed incumbent (an impossibly good 1 cycle) must survive:
	// this life cannot have beaten it.
	if st.BestCycles != 1 {
		t.Fatalf("resumed incumbent lost: best_cycles = %d, want 1", st.BestCycles)
	}
	s.mu.Lock()
	thisLife := s.jobs["j000042"].stats.Samples
	s.mu.Unlock()
	if thisLife != 6 {
		t.Fatalf("this life ran %d samples, want exactly the remaining 6", thisLife)
	}
}

// TestDrainInterruptCheckpoint: a running job cancelled when the drain
// window closes is checkpointed with partial progress, and a restart
// finishes exactly the remainder.
func TestDrainInterruptCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	cfg := testConfig()
	cfg.CheckpointPath = path
	s := newTestServer(t, cfg)

	j, errText := s.buildJob(&SubmitRequest{Tenant: "a", IR: testIR, Budget: 4096, SeqLen: 6})
	if errText != "" {
		t.Fatal(errText)
	}
	if shed := s.admit(j); shed != nil {
		t.Fatal(shed)
	}
	// Run the job on a hand-driven worker so the interruption timing is
	// deterministic: wait for real progress, then slam the drain shut.
	got := s.next()
	done := make(chan struct{})
	go func() {
		s.runJob(got)
		close(done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.mu.Lock()
		progressed := j.samplesUsed > 0
		s.mu.Unlock()
		if progressed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.abort()
	<-done
	if err := s.checkpointRemaining(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.mu.Lock()
	state, used, mod := j.state, j.samplesUsed, j.mod
	s.mu.Unlock()
	if mod == nil {
		t.Fatal("an interrupted job must keep its parsed module for the requeue")
	}
	if state != StateCheckpointed {
		t.Fatalf("interrupted job state %v, want checkpointed", state)
	}
	if used <= 0 || used >= 4096 {
		t.Fatalf("interrupted job should checkpoint partial progress, samplesUsed = %d", used)
	}

	s2 := newTestServer(t, cfg)
	s2.Start()
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	defer s2.Close()
	defer s2.Shutdown(context.Background())
	st := waitTerminal(t, ts, j.ID)
	if st.State != "done" {
		t.Fatalf("resumed job state %s (%s), want done", st.State, st.Error)
	}
	if st.SamplesUsed != 4096 {
		t.Fatalf("resumed job finished with %d samples, want the full 4096", st.SamplesUsed)
	}
	s2.mu.Lock()
	thisLife := s2.jobs[j.ID].stats.Samples
	s2.mu.Unlock()
	if int(thisLife) != 4096-used {
		t.Fatalf("second life ran %d samples, want exactly the remaining %d", thisLife, 4096-used)
	}
}

// TestServeResultsIndependentOfWorkers: the same job list gives every job
// ID the same best cycles, best sequence and sample count at one runner
// and at two, whether the jobs run one at a time (so a lone job spreads
// its batches over the compile budget's helpers) or overlap (so runners
// contend for it). Each tenant's accounting invariant holds in every run.
func TestServeResultsIndependentOfWorkers(t *testing.T) {
	mods := []string{testIR, progen.Benchmark("qsort").String(), progen.Benchmark("gsm").String()}
	var reqs []SubmitRequest
	for i := 0; i < 6; i++ {
		algo := []string{"random", "genetic"}[i%2]
		reqs = append(reqs, SubmitRequest{Tenant: []string{"acme", "globex"}[i%2], IR: mods[i%len(mods)],
			Algo: algo, Budget: 24, SeqLen: 6})
	}
	type result struct {
		best    int64
		seq     []int
		samples int
	}
	run := func(workers int, overlap bool) map[string]result {
		cfg := testConfig()
		cfg.Workers = workers
		s := newTestServer(t, cfg)
		s.Start()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Close()
		defer s.Shutdown(context.Background())

		var ids []string
		out := make(map[string]result)
		wait := func(id string) {
			st := waitTerminal(t, ts, id)
			if st.State != "done" || st.BestCycles <= 0 {
				t.Fatalf("workers=%d overlap=%v: job %s ended %s with best %d (%s)",
					workers, overlap, id, st.State, st.BestCycles, st.Error)
			}
			out[id] = result{st.BestCycles, st.BestSeq, st.SamplesUsed}
		}
		for _, req := range reqs {
			resp, body := submit(t, ts, req)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
			}
			var ack SubmitResponse
			if err := json.Unmarshal(body, &ack); err != nil {
				t.Fatal(err)
			}
			if overlap {
				ids = append(ids, ack.ID)
			} else {
				wait(ack.ID)
			}
		}
		for _, id := range ids {
			wait(id)
		}
		for _, tr := range s.Stats().Tenants {
			if tr.Samples != tr.Successes+tr.Faults+tr.Flagged {
				t.Fatalf("workers=%d overlap=%v: tenant %s: samples=%d != successes=%d + faults=%d + flagged=%d",
					workers, overlap, tr.ID, tr.Samples, tr.Successes, tr.Faults, tr.Flagged)
			}
		}
		return out
	}
	want := run(1, false)
	for _, tc := range []struct {
		workers int
		overlap bool
	}{{1, true}, {2, false}, {2, true}} {
		got := run(tc.workers, tc.overlap)
		for id, w := range want {
			if g := got[id]; g.best != w.best || !reflect.DeepEqual(g.seq, w.seq) || g.samples != w.samples {
				t.Fatalf("workers=%d overlap=%v: job %s got %+v, want %+v (workers=1, one job at a time)",
					tc.workers, tc.overlap, id, g, w)
			}
		}
	}
}

// TestServeRepeatedModuleMatchesFresh: a job on a module whose baselines
// the server remembers reports the same best cycles, best sequence and
// samples as the same job (same ID, so the same search seed) on a fresh
// server, which has to compute them. Only its engine counters differ: a
// job's engines answer one profile per physical compile plus the two
// baseline profiles, and on a remembered module the baselines cost none.
func TestServeRepeatedModuleMatchesFresh(t *testing.T) {
	repeated := progen.Benchmark("qsort").String()
	for _, algo := range []string{"random", "genetic"} {
		// run submits first, then the repeated module, one job at a time,
		// and returns the second job's status and engine counters.
		run := func(first string) (JobStatus, core.EvalStats) {
			s := newTestServer(t, testConfig())
			s.Start()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Close()
			defer s.Shutdown(context.Background())
			var st JobStatus
			for _, ir := range []string{first, repeated} {
				resp, body := submit(t, ts, SubmitRequest{Tenant: "acme", IR: ir, Algo: algo, Budget: 24, SeqLen: 6})
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
				}
				var ack SubmitResponse
				if err := json.Unmarshal(body, &ack); err != nil {
					t.Fatal(err)
				}
				if st = waitTerminal(t, ts, ack.ID); st.State != "done" || st.BestCycles <= 0 {
					t.Fatalf("%s: job %s ended %s with best %d (%s)", algo, ack.ID, st.State, st.BestCycles, st.Error)
				}
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			return st, s.jobs[st.ID].stats
		}
		hit, hitStats := run(repeated)
		fresh, freshStats := run(testIR)
		if hit.ID != fresh.ID {
			t.Fatalf("%s: compared jobs %s and %s, want one ID", algo, hit.ID, fresh.ID)
		}
		if hit.BestCycles != fresh.BestCycles || !reflect.DeepEqual(hit.BestSeq, fresh.BestSeq) || hit.SamplesUsed != fresh.SamplesUsed {
			t.Fatalf("%s: remembered baseline gave best %d %v samples %d, fresh server best %d %v samples %d", algo,
				hit.BestCycles, hit.BestSeq, hit.SamplesUsed, fresh.BestCycles, fresh.BestSeq, fresh.SamplesUsed)
		}
		engines := func(st core.EvalStats) int64 { return st.StaticHits + st.VMHits + st.InterpHits + st.DiskHits }
		if got := engines(hitStats); got != hitStats.Compiles {
			t.Fatalf("%s: remembered baseline: engines answered %d for %d compiles, want no baseline profile", algo, got, hitStats.Compiles)
		}
		if got := engines(freshStats); got != freshStats.Compiles+2 {
			t.Fatalf("%s: fresh server: engines answered %d for %d compiles, want the two baselines on top", algo, got, freshStats.Compiles)
		}
	}
}

// TestTerminalJobReleasesModule: a job that reaches a terminal state drops
// its parsed module but still reports its result, and a queued job next to
// it still checkpoints and resumes from its text.
func TestTerminalJobReleasesModule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	cfg := testConfig()
	cfg.CheckpointPath = path
	s := newTestServer(t, cfg)
	var jobs []*Job
	for _, ir := range []string{testIR, poisonIR, testIR} {
		j, errText := s.buildJob(&SubmitRequest{Tenant: "a", IR: ir, Budget: 8, SeqLen: 4})
		if errText != "" {
			t.Fatal(errText)
		}
		if shed := s.admit(j); shed != nil {
			t.Fatal(shed)
		}
		jobs = append(jobs, j)
	}
	// Run the first two by hand (one done, one fault); the third stays
	// queued for the checkpoint.
	for _, want := range []JobState{StateDone, StateFault} {
		j := s.next()
		s.runJob(j)
		s.mu.Lock()
		state, mod, st := j.state, j.mod, j.status()
		s.mu.Unlock()
		if state != want {
			t.Fatalf("job %s ended %v (%s), want %v", j.ID, state, st.Error, want)
		}
		if mod != nil {
			t.Fatalf("terminal job %s still holds its parsed module", j.ID)
		}
		if st.Stats == "" || (want == StateDone && (st.BestCycles <= 0 || st.SamplesUsed != 8)) {
			t.Fatalf("terminal job %s reports %+v", j.ID, st)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st := s.Stats(); st.Checkpointed != 1 {
		t.Fatalf("checkpointed = %d, want the one queued job", st.Checkpointed)
	}

	s2 := newTestServer(t, cfg)
	s2.Start()
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	defer s2.Close()
	defer s2.Shutdown(context.Background())
	if st := waitTerminal(t, ts, jobs[2].ID); st.State != "done" || st.SamplesUsed != 8 || !st.Resumed {
		t.Fatalf("resumed job %s: %+v", jobs[2].ID, st)
	}
	s2.mu.Lock()
	_, stale := s2.jobs[jobs[0].ID]
	s2.mu.Unlock()
	if stale {
		t.Fatalf("terminal job %s was checkpointed", jobs[0].ID)
	}
}
