package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"autophase/internal/artifact"
	"autophase/internal/core"
	"autophase/internal/features"
	"autophase/internal/hls"
	"autophase/internal/interp"
	"autophase/internal/ir"
	"autophase/internal/passes"
	"autophase/internal/rl"
	"autophase/internal/search"
	"autophase/internal/vm"
)

// replaySize is how many evaluated sequences a traced run keeps for the
// layer replay, and interpCap how many of them also run under the
// (slowest) interpreter engine.
const (
	replaySize = 64
	interpCap  = 16
)

// tracer times the calls a workload makes into the system from outside
// and samples the sequences they evaluate. Untraced runs use a nil tracer,
// which adds no wrappers and reads no clocks. A tracer is used from one
// goroutine.
type tracer struct {
	call        time.Duration // inside calls into the system
	calls       int64
	self        time.Duration // in the client's own code outside those calls
	programs    time.Duration // inside core.NewProgram
	newPrograms int64
	sample      *sampler
}

func newTracer(cfg config) *tracer {
	if !cfg.trace {
		return nil
	}
	return &tracer{sample: &sampler{rng: rand.New(rand.NewSource(cfg.seed)), k: replaySize}}
}

// booked adds one call that started at t0.
func (t *tracer) booked(t0 time.Time) {
	t.call += time.Since(t0)
	t.calls++
}

// client runs fn, the client's own loop, and books its wall time minus the
// traced calls inside it as client self time.
func (t *tracer) client(fn func()) {
	if t == nil {
		fn()
		return
	}
	t0, c0 := time.Now(), t.call
	fn()
	t.self += time.Since(t0) - (t.call - c0)
}

// newProgram builds the job's core.Program, timing it when traced.
func (t *tracer) newProgram(ref *reference) (*core.Program, error) {
	if t == nil {
		return core.NewProgram(ref.name, ref.mod)
	}
	t0 := time.Now()
	p, err := core.NewProgram(ref.name, ref.mod)
	t.programs += time.Since(t0)
	t.newPrograms++
	return p, err
}

// wrapObjective times every EvalBatch call and samples its sequences.
func (t *tracer) wrapObjective(o *search.Objective, mod *ir.Module) {
	if t == nil {
		return
	}
	inner := o.EvalBatch
	o.EvalBatch = func(seqs [][]int) []search.EvalOutcome {
		t0 := time.Now()
		out := inner(seqs)
		t.booked(t0)
		for _, s := range seqs {
			t.sample.add(mod, s, 0)
		}
		return out
	}
}

// wrapEnv returns the environment the learner trains on: env itself, or
// when traced a timedEnv around it.
func (t *tracer) wrapEnv(env *core.PhaseEnv, mod *ir.Module) rl.Env {
	if t == nil {
		return env
	}
	return &timedEnv{env: env, t: t, mod: mod}
}

// timedEnv is an rl.Env that times every Reset and Step of the
// core.PhaseEnv inside it and samples the sequences the steps evaluate.
// Each step extends the previous sequence by one pass, so the sample
// records that prefix as already built.
type timedEnv struct {
	env *core.PhaseEnv
	t   *tracer
	mod *ir.Module
}

func (e *timedEnv) Reset() []float64 {
	t0 := time.Now()
	obs := e.env.Reset()
	e.t.booked(t0)
	return obs
}

func (e *timedEnv) Step(actions []int) ([]float64, float64, bool) {
	t0 := time.Now()
	obs, r, done := e.env.Step(actions)
	e.t.booked(t0)
	if seq := e.env.Sequence(); len(seq) > 0 {
		e.t.sample.add(e.mod, seq, len(seq)-1)
	}
	return obs, r, done
}

func (e *timedEnv) ActionDims() []int { return e.env.ActionDims() }
func (e *timedEnv) ObsSize() int      { return e.env.ObsSize() }

// replayItem is one evaluated sequence kept for the layer replay: the
// program's module, the sequence, and how many of its passes were already
// applied (a cached prefix) when the workload evaluated it.
type replayItem struct {
	mod    *ir.Module
	seq    []int
	prefix int
}

// sampler keeps a seeded uniform sample (a reservoir) of the sequences a
// run evaluates.
type sampler struct {
	rng   *rand.Rand
	k     int
	seen  int
	items []replayItem
}

func (s *sampler) add(mod *ir.Module, seq []int, prefix int) {
	s.seen++
	if len(s.items) < s.k {
		s.items = append(s.items, replayItem{mod, append([]int(nil), seq...), prefix})
	} else if j := s.rng.Intn(s.seen); j < s.k {
		s.items[j] = replayItem{mod, append([]int(nil), seq...), prefix}
	}
}

// layerClock accumulates the time and number of timed calls per layer.
type layerClock map[string]*[2]float64

func (c layerClock) add(name string, t0 time.Time) {
	e := c[name]
	if e == nil {
		e = new([2]float64)
		c[name] = e
	}
	e[0] += float64(time.Since(t0)) / float64(time.Microsecond)
	e[1]++
}

// replay times each reward-path layer's public function on the sampled
// sequences and returns the mean microseconds per call. Every distinct
// optimized module goes once through each engine pinned in its own fresh
// hls.Profiler (so the VM engine pays for lowering, as a compile miss
// does), through vm.Lower/vm.Run directly, and into a scratch
// artifact.Store; programs are rebuilt with core.NewProgram once each.
func replay(items []replayItem, programs []*ir.Module, dir string) (map[string]float64, error) {
	// Collect between items, never inside a timed call: GC work depends on
	// the heap the workload left behind, and the table has its own GC row.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	clock := layerClock{}
	engines := []struct {
		name string
		prof *hls.Profiler
	}{
		{"hls.static_us", hls.NewProfiler(hls.ProfileOptions{Engine: hls.EngineStatic})},
		{"hls.vm_us", hls.NewProfiler(hls.ProfileOptions{Engine: hls.EngineVM})},
		{"hls.interp_us", hls.NewProfiler(hls.ProfileOptions{Engine: hls.EngineInterp})},
	}
	st, err := artifact.Open(filepath.Join(dir, "replay-store"), 0)
	if err != nil {
		return nil, err
	}
	var keys []artifact.Key
	seen := map[ir.Fingerprint]bool{}
	for _, it := range items {
		runtime.GC()
		base := it.mod
		if it.prefix > 0 {
			base, _ = passes.RunSequence(it.mod, it.seq[:it.prefix])
		}
		t0 := time.Now()
		m, _ := passes.RunSequence(base, it.seq[it.prefix:])
		clock.add("passes.run_us", t0)
		t0 = time.Now()
		fp := m.Fingerprint()
		clock.add("ir.fingerprint_us", t0)
		t0 = time.Now()
		feats := features.Extract(m)
		clock.add("features.extract_us", t0)
		if seen[fp] {
			continue // the workload profiles and stores each distinct IR once
		}
		seen[fp] = true
		for _, e := range engines {
			if e.name == "hls.interp_us" && len(seen) > interpCap {
				continue
			}
			t0 = time.Now()
			_, err := e.prof.ProfileFP(m, fp)
			// A static decline still costs the attempt the Auto cascade
			// makes on every compile; other engines count successes only.
			if err == nil || e.name == "hls.static_us" {
				clock.add(e.name, t0)
			}
		}
		t0 = time.Now()
		sched := hls.Schedule(m, hls.DefaultConfig)
		prog, err := vm.Lower(m, sched.StatesOf)
		if err == nil {
			err = vm.Verify(prog)
		}
		if err == nil {
			clock.add("vm.lower_us", t0)
			t0 = time.Now()
			if _, err := vm.Run(prog, interp.DefaultLimits); err == nil {
				clock.add("vm.run_us", t0)
			}
		}
		k := artifact.Key{FP: fp, Kind: artifact.KindFeatures}
		payload := make([]byte, 8*len(feats))
		for i, f := range feats {
			binary.LittleEndian.PutUint64(payload[8*i:], uint64(f))
		}
		t0 = time.Now()
		st.Put(k, payload)
		clock.add("artifact.put_us", t0)
		keys = append(keys, k)
	}
	st.Flush()
	for _, k := range keys {
		t0 := time.Now()
		if _, ok := st.Get(k); ok {
			clock.add("artifact.get_us", t0)
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	for _, m := range programs {
		runtime.GC()
		t0 := time.Now()
		if _, err := core.NewProgram("replay", m); err != nil {
			return nil, err
		}
		clock.add("core.newprogram_us", t0)
	}
	per := map[string]float64{}
	for name, e := range clock {
		per[name] = e[0] / e[1]
	}
	return per, nil
}

// layerInputs is what a workload measured for its traced report, per
// round. The counts multiply the replay's per-call times in the "where the
// time goes" table.
type layerInputs struct {
	client      string  // what the client's own code is, for the table
	selfS       float64 // client.self_s
	callS       float64 // client.call_s
	callsPerJob float64
	systemMS    float64 // job.system_ms
	// programS is the measured core.NewProgram time; negative when the
	// programs are built inside the server and the replay estimates it.
	programS     float64
	diskHitRatio float64
	programs     float64 // core.Programs built
	stats        core.EvalStats
	gets, puts   float64 // artifact.Store calls (0 without a store)
}

// traceBenchmarks finishes a traced search-sweep or rl-ppo run: it replays
// the sampled sequences on the benchmark programs and fills the per-layer
// metrics from the tracer and the summed engine counters.
func (r *result) traceBenchmarks(cfg config, tr *tracer, refs []*reference, total core.EvalStats, client string) error {
	mods := make([]*ir.Module, len(refs))
	for i, ref := range refs {
		mods[i] = ref.mod
	}
	per, err := replay(tr.sample.items, mods, cfg.workDir)
	if err != nil {
		return err
	}
	rounds, jobs := float64(len(r.rounds)), float64(len(r.jobs))
	r.setLayers(layerInputs{
		client:      client,
		selfS:       tr.self.Seconds() / rounds,
		callS:       tr.call.Seconds() / rounds,
		callsPerJob: float64(tr.calls) / jobs,
		systemMS:    ms(tr.call+tr.programs) / jobs,
		programS:    tr.programs.Seconds() / rounds,
		programs:    float64(tr.newPrograms) / rounds,
		stats:       scaleStats(total, rounds),
	}, per, len(tr.sample.items))
	return nil
}

// scaleStats divides the counters the table uses by the number of rounds.
func scaleStats(st core.EvalStats, rounds float64) core.EvalStats {
	div := func(v int64) int64 { return int64(float64(v)/rounds + 0.5) }
	return core.EvalStats{
		Samples: div(st.Samples), Compiles: div(st.Compiles), CacheHits: div(st.CacheHits),
		FPHits: div(st.FPHits), NoopIR: div(st.NoopIR), Merges: div(st.Merges),
		StaticHits: div(st.StaticHits), VMHits: div(st.VMHits), InterpHits: div(st.InterpHits),
	}
}

// row is one line of the "where the time goes" table.
type row struct {
	layer string
	calls float64 // per round; 0 for rows measured as a total
	us    float64 // per call
	s     float64 // seconds per round
}

// setLayers assembles the per-layer metrics and the attribution table from
// the workload's measurements and the replay's per-call times.
func (r *result) setLayers(in layerInputs, per map[string]float64, sampled int) {
	st := in.stats
	r.layers = map[string]float64{
		"client.self_s":        in.selfS,
		"client.call_s":        in.callS,
		"client.calls_per_job": in.callsPerJob,
		"job.system_ms":        in.systemMS,
		"core.samples":         float64(st.Samples),
		"core.compiles":        float64(st.Compiles),
		"core.cache_hits":      float64(st.CacheHits),
		"core.fp_hits":         float64(st.FPHits),
		"core.noop_ir":         float64(st.NoopIR),
		"core.merges":          float64(st.Merges),
		"hls.static_hits":      float64(st.StaticHits),
		"hls.vm_hits":          float64(st.VMHits),
		"hls.interp_hits":      float64(st.InterpHits),
		"serve.disk_hit_ratio": in.diskHitRatio,
		"gc.cpu_frac":          r.use.gcFrac(),
	}
	for name, us := range per {
		r.layers[name] = us
	}
	rounds := float64(len(r.rounds))
	r.table = []row{
		{layer: in.client + " (client.self_s)", s: in.selfS},
		{layer: "core.NewProgram (O0 and -O3 baselines)", calls: in.programs, us: per["core.newprogram_us"], s: max(in.programS, 0)},
		{layer: "passes.RunSequence", calls: float64(st.Samples), us: per["passes.run_us"]},
		{layer: "(*ir.Module).Fingerprint", calls: float64(st.Samples - st.NoopIR), us: per["ir.fingerprint_us"]},
		{layer: "features.Extract", calls: float64(st.Compiles), us: per["features.extract_us"]},
		{layer: "hls static estimator, tried first on every compile", calls: float64(st.Compiles), us: per["hls.static_us"]},
		{layer: "hls VM engine (lower + run)", calls: float64(st.VMHits), us: per["hls.vm_us"]},
		{layer: "hls interpreter engine", calls: float64(st.InterpHits), us: per["hls.interp_us"]},
		{layer: "artifact.Store.Get", calls: in.gets, us: per["artifact.get_us"]},
		{layer: "artifact.Store.Put", calls: in.puts, us: per["artifact.put_us"]},
		{layer: "garbage collector (runtime/metrics estimate)", s: r.use.gcCPU / rounds},
	}
	cpu := r.use.procCPU / rounds
	attributed := 0.0
	for i := range r.table {
		// Rows not measured as a total are estimated from their count.
		if rw := &r.table[i]; rw.s == 0 {
			rw.s = rw.calls * rw.us / 1e6
		}
		attributed += r.table[i].s
	}
	r.table = append(r.table, row{layer: "unattributed", s: cpu - attributed})
	r.layers["unattributed_cpu_frac"] = (cpu - attributed) / cpu
	r.notes = append([]string{fmt.Sprintf("The replay timed %d sampled sequences.", sampled)}, r.notes...)
}

// renderTable writes the traced run's "where the time goes" table.
func (r *result) renderTable(cfg config) string {
	var b strings.Builder
	rounds := float64(len(r.rounds))
	cpu := r.use.procCPU / rounds
	wall := quantile(r.rounds, 0.5).Seconds()
	fmt.Fprintf(&b, "# Where the time goes: %s\n\n", cfg.workload)
	fmt.Fprintf(&b, "Traced run, seed %d, %d round(s); median round wall %.3f s, process CPU %.3f s per round (getrusage).\n", cfg.seed, len(r.rounds), wall, cpu)
	b.WriteString("Each layer row is calls per round × the mean time per call, measured by replaying a seeded sample of the\n")
	b.WriteString("evaluated sequences through the layer's public function; the client row is timed around the workload's own\n")
	b.WriteString("calls. Unattributed is process CPU minus every row: cache bookkeeping, locks, allocation, HTTP, and estimate error.\n\n")
	b.WriteString("| layer | calls/round | µs/call | s/round | share of CPU |\n|---|---:|---:|---:|---:|\n")
	for _, rw := range r.table {
		calls, us := "", ""
		if rw.calls > 0 {
			calls, us = fmt.Sprintf("%.0f", rw.calls), fmt.Sprintf("%.1f", rw.us)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %.3f | %.1f%% |\n", rw.layer, calls, us, rw.s, 100*rw.s/cpu)
	}
	b.WriteString("\n")
	if walls := untracedWalls(cfg); len(walls) > 0 {
		med := quantile(walls, 0.5).Seconds()
		fmt.Fprintf(&b, "Tracing overhead: traced wall_s %.3f s − untraced median %.3f s over %d run(s) = %+.3f s.\n\n", wall, med, len(walls), wall-med)
	} else {
		b.WriteString("Tracing overhead: no untraced run of this workload is recorded in this checkout yet.\n\n")
	}
	b.WriteString("Per-layer metrics:\n\n")
	names := make([]string, 0, len(layerUnits))
	for name := range layerUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "- %s = %.6g %s\n", name, r.layers[name], layerUnits[name])
	}
	if len(r.notes) > 0 {
		b.WriteString("\nNotes:\n\n")
		for _, n := range r.notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
	}
	return b.String()
}
