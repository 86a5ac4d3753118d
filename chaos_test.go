// Chaos suite: every consumer of the evaluation engine — the search
// algorithms and the RL trainers — must survive sustained deterministic
// fault injection without crashing or hanging, while keeping the engine's
// accounting invariant (samples == successes + faults + flagged) and never
// reporting a quarantined sequence as its best result.
//
// Set AUTOPHASE_CHAOS_DIR to also exercise the crash-bundle sink; CI points
// it at an artifact directory so bundles from a failing run are uploaded.
package autophase_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"autophase/internal/artifact"
	"autophase/internal/core"
	"autophase/internal/faults"
	"autophase/internal/progen"
	"autophase/internal/rl"
	"autophase/internal/search"
	"autophase/internal/serve"
)

// detProgramIR returns a benchmark's IR text, as a serve client would POST
// it.
func detProgramIR(t *testing.T, name string) string {
	t.Helper()
	m := progen.Benchmark(name)
	if m == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	return m.String()
}

// chaosSpec keeps every injection point active at a 1–5% rate.
const chaosSpec = "pass-panic:0.03,interp-stall:0.02,profile-err:0.03,feature-panic:0.01,vm-panic:0.02"

const chaosWorkers = 8

// runChaos drives fn against a freshly injected program under a watchdog,
// then checks the engine invariants.
func runChaos(t *testing.T, prog string, fn func(p *core.Program)) {
	t.Helper()
	p := detProgram(t, prog)
	if dir := os.Getenv("AUTOPHASE_CHAOS_DIR"); dir != "" {
		core.SetCrashDir(dir)
		defer core.SetCrashDir("")
	}
	spec, err := faults.ParseSpec(chaosSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(spec)
	defer faults.Disable()

	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(p)
	}()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("chaos driver hung: watchdog fired after 90s")
	}
	faults.Disable()

	st := p.EvalStats()
	if st.Samples != st.Successes+st.Faults+st.Flagged {
		t.Fatalf("accounting invariant broken: samples=%d successes=%d faults=%d flagged=%d",
			st.Samples, st.Successes, st.Faults, st.Flagged)
	}
	if st.Faults == 0 {
		t.Fatalf("no faults at these injection rates — injection is not reaching the engine: %+v", st)
	}
	if st.Quarantined > st.Faults {
		t.Fatalf("quarantine (%d) outgrew the fault count (%d)", st.Quarantined, st.Faults)
	}
	if best, seq := p.BestCycles(); seq != nil {
		if f, q := p.IsQuarantined(seq); q {
			t.Fatalf("best sequence (%d cycles) is quarantined: %v", best, f)
		}
		if _, _, ok := p.Compile(seq); !ok {
			t.Fatalf("best sequence does not recompile cleanly with injection off: %v", seq)
		}
	}
}

func TestChaosRandom(t *testing.T) {
	runChaos(t, "matmul", func(p *core.Program) {
		obj := core.NewEvaluator(p, chaosWorkers).Objective(10)
		search.Random(obj, rand.New(rand.NewSource(4)), 300)
	})
}

// TestChaosVMPinned runs on the bytecode VM, which answers every profile of
// a lowerable module, so every injected vm-panic fires inside the dispatch
// loop; containment must hold exactly as it does for interpreter panics,
// with the panic surfacing as a contained profile-stage fault rather than
// a dead worker.
func TestChaosVMPinned(t *testing.T) {
	runChaos(t, "gsm", func(p *core.Program) {
		obj := core.NewEvaluator(p, chaosWorkers).Objective(10)
		search.Random(obj, rand.New(rand.NewSource(11)), 300)
		if st := p.EvalStats(); st.VMHits == 0 || st.StaticHits != 0 || st.InterpHits != 0 {
			t.Errorf("profiles did not all run on the VM: %+v", st)
		}
	})
}

func TestChaosGenetic(t *testing.T) {
	runChaos(t, "sha", func(p *core.Program) {
		obj := core.NewEvaluator(p, chaosWorkers).Objective(8)
		search.Genetic(obj, rand.New(rand.NewSource(9)), search.DefaultGA(), 300)
	})
}

func TestChaosES(t *testing.T) {
	runChaos(t, "matmul", func(p *core.Program) {
		envCfg := core.DefaultEnv()
		envCfg.Obs = core.ObsFeatures
		envCfg.EpisodeLen = 6
		envs := make([]rl.Env, chaosWorkers)
		for i := range envs {
			envs[i] = core.NewPhaseEnv(p, envCfg)
		}
		cfg := rl.DefaultES()
		cfg.Hidden = []int{16}
		cfg.Population = 8
		cfg.Seed = 5
		cfg.Workers = chaosWorkers
		agent := rl.NewES(cfg, envs[0].ObsSize(), envs[0].ActionDims())
		for g := 0; g < 3; g++ {
			agent.Generation(envs)
		}
	})
}

// TestChaosDiskCorrupt attacks the persistent artifact store from both
// sides — real on-disk bit flips between runs, plus the disk-corrupt
// injection point during segment load — and demands the warm search still
// reproduce the uncached search bit-for-bit. Corruption must only ever
// demote records to misses, never change results.
func TestChaosDiskCorrupt(t *testing.T) {
	run := func(st *artifact.Store) (int64, []int, int) {
		core.SetDefaultArtifacts(st)
		defer core.SetDefaultArtifacts(nil)
		p := detProgram(t, "matmul")
		obj := core.NewEvaluator(p, chaosWorkers).Objective(10)
		search.Random(obj, rand.New(rand.NewSource(21)), 200)
		best, seq := p.BestCycles()
		return best, seq, p.Samples()
	}

	wantBest, wantSeq, wantSamples := run(nil)

	dir := t.TempDir()
	st, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	coldBest, coldSeq, coldSamples := run(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if coldBest != wantBest || fmt.Sprint(coldSeq) != fmt.Sprint(wantSeq) || coldSamples != wantSamples {
		t.Fatalf("cold cached search diverged: best %d seq %v samples %d, want %d %v %d",
			coldBest, coldSeq, coldSamples, wantBest, wantSeq, wantSamples)
	}

	// Flip a spray of bytes across every segment, header included, so the
	// reload sees bad checksums, torn framing, and possibly version skew.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to corrupt (err=%v)", err)
	}
	rng := rand.New(rand.NewSource(99))
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		flips := 1 + len(data)/512
		for i := 0; i < flips; i++ {
			data[rng.Intn(len(data))] ^= 1 << uint(rng.Intn(8))
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen under disk-corrupt injection as well: records that survived the
	// byte spray are additionally dropped at random during load.
	spec, err := faults.ParseSpec("disk-corrupt:0.2", 13)
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(spec)
	st2, err := artifact.Open(dir, 0)
	faults.Disable()
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()

	warmBest, warmSeq, warmSamples := run(st2)
	if warmBest != wantBest || fmt.Sprint(warmSeq) != fmt.Sprint(wantSeq) || warmSamples != wantSamples {
		t.Fatalf("search after corruption diverged: best %d seq %v samples %d, want %d %v %d",
			warmBest, warmSeq, warmSamples, wantBest, wantSeq, wantSamples)
	}
	if stats := st2.Stats(); stats.Corrupt == 0 {
		t.Fatalf("corrupted store reloaded without counting any corruption: %+v", stats)
	}
}

// TestChaosServe drives fault injection through a live multi-tenant
// server: eight tenants hammer real HTTP submissions while every injection
// point — including the serve layer's own panic point — fires at 1–5%
// rates. The service must keep every contract it makes under fire: all
// accepted jobs reach a terminal state, every rejection is an explicit
// 429/503 with Retry-After, the engine's accounting invariant holds across
// the whole tenant population, and contained serve panics never kill a
// worker (the run finishes).
func TestChaosServe(t *testing.T) {
	if dir := os.Getenv("AUTOPHASE_CHAOS_DIR"); dir != "" {
		core.SetCrashDir(dir)
		defer core.SetCrashDir("")
	}
	cfg := serve.DefaultConfig()
	cfg.Workers = chaosWorkers
	cfg.TenantRate = 30
	cfg.TenantBurst = 5
	cfg.BreakerCooldown = 200 * time.Millisecond
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	irText := detProgramIR(t, "matmul")
	spec, err := faults.ParseSpec(chaosSpec+",serve-panic:0.05", 7)
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(spec)
	defer faults.Disable()

	const tenantsN, jobsPerTenant = 8, 6
	type outcome struct {
		state   string
		badShed bool
		err     string
	}
	results := make(chan outcome, tenantsN*jobsPerTenant)
	var wg sync.WaitGroup
	for tn := 0; tn < tenantsN; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < jobsPerTenant; i++ {
				body, _ := json.Marshal(serve.SubmitRequest{
					Tenant: fmt.Sprintf("t%d", tn), IR: irText, Budget: 8, SeqLen: 5,
				})
				var id string
				for attempt := 0; ; attempt++ {
					resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						results <- outcome{err: err.Error()}
						return
					}
					payload, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusAccepted {
						var ack serve.SubmitResponse
						json.Unmarshal(payload, &ack)
						id = ack.ID
						break
					}
					bad := (resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable) ||
						resp.Header.Get("Retry-After") == ""
					if bad {
						results <- outcome{badShed: true, err: fmt.Sprintf("status %d retry-after %q", resp.StatusCode, resp.Header.Get("Retry-After"))}
						return
					}
					if attempt > 200 {
						results <- outcome{err: "retry budget exhausted"}
						return
					}
					time.Sleep(50 * time.Millisecond)
				}
				for {
					resp, err := client.Get(ts.URL + "/v1/jobs/" + id + "?wait=2s")
					if err != nil {
						results <- outcome{err: err.Error()}
						return
					}
					var st serve.JobStatus
					err = json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
					if err != nil {
						results <- outcome{err: err.Error()}
						return
					}
					if st.State != "queued" && st.State != "running" {
						results <- outcome{state: st.State}
						break
					}
				}
			}
		}(tn)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("serve chaos hung: watchdog fired after 120s")
	}
	faults.Disable()
	close(results)

	terminal := 0
	for r := range results {
		if r.err != "" || r.badShed {
			t.Fatalf("client saw a broken contract: badShed=%v err=%s", r.badShed, r.err)
		}
		switch r.state {
		case "done", "fault", "deadline":
			terminal++
		default:
			t.Fatalf("job ended in non-terminal state %q", r.state)
		}
	}
	if terminal != tenantsN*jobsPerTenant {
		t.Fatalf("%d of %d jobs reached a terminal state", terminal, tenantsN*jobsPerTenant)
	}

	rep := srv.Stats()
	var samples, successes, faultsN, flagged int64
	for _, tr := range rep.Tenants {
		samples += tr.Samples
		successes += tr.Successes
		faultsN += tr.Faults
		flagged += tr.Flagged
	}
	if samples != successes+faultsN+flagged {
		t.Fatalf("accounting invariant broken across tenants: samples=%d successes=%d faults=%d flagged=%d",
			samples, successes, faultsN, flagged)
	}
	if len(rep.Tenants) != tenantsN {
		t.Fatalf("server saw %d tenants, want %d", len(rep.Tenants), tenantsN)
	}
	// Injection at these rates must actually have reached the service.
	faulted := int64(0)
	for _, tr := range rep.Tenants {
		faulted += tr.Faulted
	}
	if faultsN == 0 && faulted == 0 {
		t.Fatalf("no faults observed — injection is not reaching the serve layer: %+v", rep)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestChaosPPO(t *testing.T) {
	runChaos(t, "qsort", func(p *core.Program) {
		envCfg := core.DefaultEnv()
		envCfg.Obs = core.ObsHistogram
		envCfg.EpisodeLen = 8
		env := core.NewPhaseEnv(p, envCfg)
		cfg := rl.DefaultPPO()
		cfg.RolloutSteps = 64
		agent := rl.NewPPO(cfg, env.ObsSize(), env.ActionDims())
		agent.Train([]rl.Env{env}, 256, nil)
	})
}
