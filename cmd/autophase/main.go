// Command autophase optimizes a program's compiler phase ordering for HLS.
//
// Usage:
//
//	autophase -program matmul -algo ppo            # optimize one benchmark
//	autophase -program rand:42 -algo greedy        # random program by seed
//	autophase -program file:prog.ir -algo opentuner
//	autophase -program sha -features               # dump the Table 2 features
//	autophase -program aes -passes "mem2reg,loop-rotate,loop-unroll"
//	autophase -program gsm -rtl                    # emit the scheduled RTL
//	autophase -train 10 -agent agent.json          # train a generalizer
//	autophase -agent agent.json -program sha       # zero-shot inference
//	autophase -list                                # available programs/algos
//	autophase lint -program file:prog.ir           # static analysis + diagnostics
//	autophase -program sha -sanitize               # optimize with the pass sanitizer
//	autophase -program aes -algo genetic -workers 8  # parallel candidate scoring
//	autophase collect -program gsm -episodes 32    # exploration tuples + win rates
//	autophase -program sha -algo random -faults "pass-panic:0.02" -crashdir crashes
//	autophase replay crashes/crash-sha-panic-1a2b3c4d.json  # re-run a crash bundle
//
// Algorithms: ppo (histogram obs), ppo-multi (§5.2), a3c, es, greedy,
// genetic, opentuner, random, o3, o0. The population-style algorithms
// (es, a3c, genetic, opentuner, random) and the collect subcommand score
// candidates through a -workers wide evaluation pool; results are
// identical at any worker count (OpenTuner batches its bandit rounds, so
// its trajectory depends on -workers, deterministically).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"math/rand"

	"autophase/internal/analysis"
	"autophase/internal/artifact"
	"autophase/internal/cliutil"
	"autophase/internal/core"
	"autophase/internal/faults"
	"autophase/internal/features"
	"autophase/internal/hls"
	"autophase/internal/interp"
	"autophase/internal/ir"
	"autophase/internal/passes"
	"autophase/internal/profiling"
	"autophase/internal/progen"
	"autophase/internal/rl"
	"autophase/internal/search"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		os.Exit(lintMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "collect" {
		runCollect(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		runReplay(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	prog := flag.String("program", "matmul", "benchmark name, rand:<seed>, or file:<path.ir>")
	algo := flag.String("algo", "ppo", "ppo, ppo-multi, a3c, es, greedy, genetic, opentuner, random, o3, o0")
	budget := flag.Int("budget", 800, "sample/step budget for the chosen algorithm")
	seqLen := flag.Int("len", 45, "maximum pass-sequence length")
	dumpFeatures := flag.Bool("features", false, "print the 56 Table 2 features and exit")
	passList := flag.String("passes", "", "apply this comma-separated pass list instead of searching")
	rtl := flag.Bool("rtl", false, "emit scheduled RTL for the optimized design")
	binding := flag.Bool("binding", false, "print the functional-unit binding report")
	dot := flag.Bool("dot", false, "print the optimized main function's CFG in GraphViz dot syntax")
	objective := flag.String("objective", "cycles", "optimize for: cycles, area, areadelay")
	emitIR := flag.String("emit-ir", "", "write the optimized IR to this file")
	trainN := flag.Int("train", 0, "train a generalization agent on N random programs and save it to -agent")
	agentPath := flag.String("agent", "", "path of a saved agent (write with -train, read for inference)")
	verbose := flag.Bool("verbose", false, "print per-pass statistics for the final sequence")
	sanitize := flag.Bool("sanitize", false, "run the pass sanitizer during optimization; on miscompilation print the minimized repro and exit 1")
	list := flag.Bool("list", false, "list available programs, algorithms and passes")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel candidate evaluations (results identical at any count)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	faultSpec := flag.String("faults", "", `fault-injection spec, e.g. "pass-panic:0.01,interp-stall:0.005,profile-err:0.01"`)
	faultSeed := flag.Int64("faults-seed", 1, "deterministic seed for the -faults injector")
	crashDirFlag := flag.String("crashdir", "", "write a crash-repro bundle here for every contained panic/deadline fault")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline per profile, e.g. 2s (0 = unbounded)")
	cacheDir := flag.String("cache-dir", "", "persistent artifact cache directory (profiles and features survive restarts)")
	cacheBudget := flag.Int64("cache-budget", 0, "artifact cache size budget in bytes (0 = 512 MiB default); whole segments evict oldest-first")
	flag.Parse()

	// Reject meaningless knob values with a usage error (exit 2) before any
	// work starts. Historically -workers silently clamped to 1 and a
	// negative -deadline was silently ignored; both were almost certainly
	// typos the user wanted to hear about.
	if err := cliutil.FirstErr(
		cliutil.MinInt("budget", *budget, 1),
		cliutil.MinInt("len", *seqLen, 1),
		cliutil.MinInt("workers", *workers, 1),
		cliutil.MinInt("train", *trainN, 0),
		cliutil.NonNegDuration("deadline", *deadline),
		cliutil.MinInt64("cache-budget", *cacheBudget, 0),
	); err != nil {
		fmt.Fprintln(os.Stderr, "autophase:", err)
		os.Exit(2)
	}

	closeArtifacts, err := openArtifacts(*cacheDir, *cacheBudget)
	if err != nil {
		fatal(err)
	}
	defer closeArtifacts()

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *list {
		fmt.Println("programs:", strings.Join(progen.BenchmarkNames, ", "), "+ rand:<seed>")
		fmt.Println("algorithms: ppo, ppo-multi, a3c, es, greedy, genetic, opentuner, random, o3, o0")
		fmt.Println("passes (Table 1):")
		for i, n := range passes.Table1Names {
			fmt.Printf("  %2d %s\n", i, n)
		}
		return
	}

	if *trainN > 0 {
		if *agentPath == "" {
			fatal(fmt.Errorf("-train requires -agent <path>"))
		}
		trainGeneralizer(*trainN, *budget, *agentPath)
		return
	}

	m, err := loadProgram(*prog)
	if err != nil {
		fatal(err)
	}
	if *dumpFeatures {
		f := features.Extract(m)
		for i, v := range f {
			fmt.Printf("%2d %-55s %d\n", i, features.Names[i], v)
		}
		return
	}

	p, err := core.NewProgram(*prog, m)
	if err != nil {
		fatal(err)
	}
	if *sanitize {
		p.EnableSanitizer()
	}
	if *crashDirFlag != "" {
		core.SetCrashDir(*crashDirFlag)
	}
	if *deadline > 0 {
		lim := interp.DefaultLimits
		lim.Deadline = *deadline
		p.SetLimits(lim)
	}
	// Injection starts after NewProgram so the O0/O3 baselines are organic.
	if *faultSpec != "" {
		spec, err := faults.ParseSpec(*faultSpec, *faultSeed)
		if err != nil {
			fatal(err)
		}
		faults.Enable(spec)
		defer faults.Disable()
	}
	fmt.Printf("program %s: O0=%d cycles, O3=%d cycles\n", *prog, p.O0Cycles, p.O3Cycles)

	var seq []int
	switch {
	case *agentPath != "":
		seq = inferWithAgent(p, *agentPath)
		c, _, ok := p.Compile(seq)
		if !ok {
			failCompile(p)
		}
		report(p, seq, c)
	case *passList != "":
		seq, err = parsePasses(*passList)
		if err != nil {
			fatal(err)
		}
		c, _, ok := p.Compile(seq)
		if !ok {
			failCompile(p)
		}
		report(p, seq, c)
	case *algo == "o0":
		report(p, nil, p.O0Cycles)
	case *algo == "o3":
		seq = passes.O3Sequence
		report(p, seq, p.O3Cycles)
	default:
		ev := core.NewEvaluator(p, *workers)
		seq = optimize(p, ev, *algo, *budget, *seqLen, *objective)
		best, bestSeq := p.BestCycles()
		if bestSeq != nil {
			seq = bestSeq
		}
		report(p, seq, best)
		fmt.Println("evaluator:", ev.Stats())
	}

	if rep := p.SanitizerReport(); rep != nil {
		fmt.Print(rep.String())
		fatal(fmt.Errorf("sanitizer detected a miscompiling pass sequence"))
	}

	if *verbose {
		pm := passes.NewManager()
		pm.VerifyEach = true
		opt := p.Module()
		pm.Apply(opt, seq)
		fmt.Print(pm.Report())
		if after, err := pm.FirstVerifyError(); err != nil {
			fmt.Printf("verifier failed after %s: %v\n", after, err)
		}
	}
	if *emitIR != "" {
		opt := p.Module()
		passes.Apply(opt, seq)
		if err := os.WriteFile(*emitIR, []byte(opt.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote optimized IR to", *emitIR)
	}
	if *rtl || *binding || *dot {
		opt := p.Module()
		passes.Apply(opt, seq)
		if *dot {
			if mf := opt.Func("main"); mf != nil {
				fmt.Print(ir.DotCFG(mf))
			}
		}
		sched := hls.Schedule(opt, hls.DefaultConfig)
		if *binding {
			fmt.Print(sched.Bind(opt).Report())
		}
		if *rtl {
			fmt.Println(sched.EmitRTL(opt))
		}
	}
}

func loadProgram(name string) (*ir.Module, error) { return loadModule(name, true) }

// loadModule resolves a program spec; verify=false skips the IR verifier so
// the lint subcommand can analyze (and diagnose) broken modules instead of
// dying on the first violation.
func loadModule(name string, verify bool) (*ir.Module, error) {
	if seedStr, ok := strings.CutPrefix(name, "rand:"); ok {
		seed, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", seedStr)
		}
		m, _ := progen.GenerateFiltered(seed, progen.DefaultGen)
		return m, nil
	}
	if path, ok := strings.CutPrefix(name, "file:"); ok {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		m, err := ir.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if verify {
			if err := m.Verify(); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		}
		return m, nil
	}
	m := progen.Benchmark(name)
	if m == nil {
		return nil, fmt.Errorf("unknown program %q (try -list)", name)
	}
	return m, nil
}

// lintDiag is the machine-readable rendering of one diagnostic for
// `autophase lint -json`: one JSON object per line, fields empty when the
// finding is module- or function-level.
type lintDiag struct {
	Severity string `json:"severity"`
	Check    string `json:"check"`
	Func     string `json:"func,omitempty"`
	Block    string `json:"block,omitempty"`
	Instr    string `json:"instr,omitempty"`
	Msg      string `json:"msg"`
}

// lintMain is the `autophase lint` subcommand: load a program, run the
// collect-all verifier, the dataflow analyses and the interprocedural
// checks, and print every diagnostic. It returns the process exit status:
// 1 when any Error-severity diagnostic fired, 0 otherwise (warnings alone
// never fail the lint), and 2 for usage or load failures — so callers like
// scripts/lint-baseline.sh can tell "findings" from "lint never ran".
func lintMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	prog := fs.String("program", "matmul", "benchmark name, rand:<seed>, or file:<path.ir>")
	passList := fs.String("passes", "", "apply this comma-separated pass list before analyzing")
	stats := fs.Bool("stats", false, "also print per-function analysis statistics")
	jsonOut := fs.Bool("json", false, "emit one JSON object per diagnostic line (exit 1 on errors, as in text mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	m, err := loadModule(*prog, false)
	if err != nil {
		fmt.Fprintln(stderr, "autophase:", err)
		return 2
	}
	if *passList != "" {
		seq, err := parsePasses(*passList)
		if err != nil {
			fmt.Fprintln(stderr, "autophase:", err)
			return 2
		}
		passes.Apply(m, seq)
	}
	diags := analysis.VerifyAll(m)
	diags = append(diags, analysis.VerifyAttrs(m)...)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		for _, d := range diags {
			enc.Encode(lintDiag{
				Severity: d.Sev.String(), Check: d.Check,
				Func: d.Func, Block: d.Block, Instr: d.Instr, Msg: d.Msg,
			})
		}
		if diags.HasErrors() {
			return 1
		}
		return 0
	}
	if len(diags) > 0 {
		fmt.Fprint(stdout, diags.String())
	}
	if *stats {
		for _, f := range m.Funcs {
			lv := analysis.ComputeLiveness(f)
			ae := analysis.ComputeAvailExpr(f)
			maxLive := 0
			for _, s := range lv.LiveOut {
				if len(s) > maxLive {
					maxLive = len(s)
				}
			}
			fmt.Fprintf(stdout, "@%s: %d blocks, %d instrs, max live-out %d, %d dead defs, %d redundant exprs\n",
				f.Name, len(f.Blocks), f.NumInstrs(), maxLive, len(lv.DeadDefs()), len(ae.Redundant()))
			sc := analysis.ComputeSCEV(f)
			for _, l := range sc.Loops() {
				tr := sc.TripsOf(l)
				if tr.Kind == analysis.TripFinite {
					fmt.Fprintf(stdout, "  loop %s (depth %d): %d trips, iv {%d,+,%d} i%d\n",
						l.Header.Name, l.Depth, tr.BodyTrips, tr.IV.Start, tr.IV.Step, tr.IV.Bits)
				} else {
					fmt.Fprintf(stdout, "  loop %s (depth %d): %s trip count\n", l.Header.Name, l.Depth, tr.Kind)
				}
			}
		}
	}
	if diags.HasErrors() {
		fmt.Fprintf(stdout, "lint: %d errors, %d warnings\n", len(diags.Errors()), len(diags.Warnings()))
		return 1
	}
	fmt.Fprintf(stdout, "lint: ok (%d warnings)\n", len(diags.Warnings()))
	return 0
}

// runCollect is the `autophase collect` subcommand: run high-exploration
// random episodes through the parallel tuple collector (§4's data-gathering
// phase) and print the per-pass win rates plus the evaluation-engine stats.
func runCollect(args []string) {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	prog := fs.String("program", "matmul", "benchmark name, rand:<seed>, or file:<path.ir>")
	episodes := fs.Int("episodes", 16, "random-exploration episodes")
	epLen := fs.Int("len", 14, "passes per episode")
	seed := fs.Int64("seed", 1, "exploration RNG seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel episode workers (tuples identical at any count)")
	cacheDir := fs.String("cache-dir", "", "persistent artifact cache directory")
	cacheBudget := fs.Int64("cache-budget", 0, "artifact cache size budget in bytes (0 = 512 MiB default)")
	fs.Parse(args)

	if err := cliutil.FirstErr(
		cliutil.MinInt("episodes", *episodes, 1),
		cliutil.MinInt("len", *epLen, 1),
		cliutil.MinInt("workers", *workers, 1),
		cliutil.MinInt64("cache-budget", *cacheBudget, 0),
	); err != nil {
		fmt.Fprintln(os.Stderr, "autophase collect:", err)
		os.Exit(2)
	}

	closeArtifacts, err := openArtifacts(*cacheDir, *cacheBudget)
	if err != nil {
		fatal(err)
	}
	defer closeArtifacts()

	m, err := loadProgram(*prog)
	if err != nil {
		fatal(err)
	}
	p, err := core.NewProgram(*prog, m)
	if err != nil {
		fatal(err)
	}
	tuples := core.CollectTuplesParallel([]*core.Program{p}, *episodes, *epLen,
		rand.New(rand.NewSource(*seed)), *workers)
	seen := make([]int, passes.NumActions)
	wins := make([]int, passes.NumActions)
	for _, t := range tuples {
		seen[t.Action]++
		if t.Improved {
			wins[t.Action]++
		}
	}
	fmt.Printf("collected %d tuples from %d episodes (len %d) on %s\n",
		len(tuples), *episodes, *epLen, *prog)
	fmt.Println("pass win rates (fraction of applications that reduced cycles):")
	for a := 0; a < passes.NumActions; a++ {
		if seen[a] == 0 {
			continue
		}
		fmt.Printf("  %-28s %3d/%3d  %.2f\n", passes.Table1Names[a], wins[a], seen[a],
			float64(wins[a])/float64(seen[a]))
	}
	fmt.Println("evaluator:", p.EvalStats())
}

func parsePasses(s string) ([]int, error) {
	var seq []int
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := -1
		for i, n := range passes.Table1Names {
			if n == name || n == "-"+name {
				found = i
				break
			}
		}
		if found < 0 {
			v, err := strconv.Atoi(name)
			if err != nil {
				return nil, fmt.Errorf("unknown pass %q", name)
			}
			if err := passes.CheckIndex(v); err != nil {
				return nil, fmt.Errorf("pass %q: %w", name, err)
			}
			found = v
		}
		seq = append(seq, found)
	}
	// Belt and braces: the engine rejects invalid sequences at its boundary
	// too, but a typed error here beats a FaultBadSeq downstream.
	if err := passes.CheckSeq(seq); err != nil {
		return nil, err
	}
	return seq, nil
}

func optimize(p *core.Program, ev *core.Evaluator, algo string, budget, seqLen int, objective string) []int {
	cfgEnv := core.DefaultEnv()
	cfgEnv.EpisodeLen = seqLen
	switch objective {
	case "area":
		cfgEnv.Objective = core.MinimizeArea
	case "areadelay":
		cfgEnv.Objective = core.MinimizeAreaDelay
	}
	obj := ev.Objective(seqLen)
	switch algo {
	case "ppo":
		cfgEnv.Obs = core.ObsHistogram
		var env core.Env = core.NewPhaseEnv(p, cfgEnv)
		cfg := rl.DefaultPPO()
		cfg.RolloutSteps = 128
		agent := rl.NewPPO(cfg, env.ObsSize(), env.ActionDims())
		agent.Train([]rl.Env{env}, budget, nil)
		return env.Sequence()
	case "ppo-multi":
		cfgEnv.Obs = core.ObsBoth
		var env core.Env = core.NewMultiPhaseEnv(p, cfgEnv, seqLen, seqLen)
		cfg := rl.DefaultPPO()
		cfg.RolloutSteps = 128
		agent := rl.NewPPO(cfg, env.ObsSize(), env.ActionDims())
		agent.Train([]rl.Env{env}, budget, nil)
		return env.Sequence()
	case "a3c":
		cfgEnv.Obs = core.ObsFeatures
		proto := core.NewPhaseEnv(p, cfgEnv)
		cfg := rl.DefaultA3C()
		cfg.Workers = ev.Workers()
		agent := rl.NewA3C(cfg, proto.ObsSize(), proto.ActionDims())
		agent.Train(func(int) rl.Env { return core.NewPhaseEnv(p, cfgEnv) }, budget, nil)
		return nil
	case "es":
		cfgEnv.Obs = core.ObsFeatures
		cfg := rl.DefaultES()
		cfg.Workers = ev.Workers()
		// One environment per worker: candidate i runs on env i%w, so the
		// perturbation order (and hence the result) is worker-invariant.
		first := core.NewPhaseEnv(p, cfgEnv)
		envs := []rl.Env{first}
		for i := 1; i < ev.Workers(); i++ {
			envs = append(envs, core.NewPhaseEnv(p, cfgEnv))
		}
		agent := rl.NewES(cfg, first.ObsSize(), first.ActionDims())
		agent.Train(envs, budget, nil)
		return first.Sequence()
	case "greedy":
		return search.Greedy(obj, budget).Seq
	case "genetic":
		return search.Genetic(obj, rngFor(p.Name), search.DefaultGA(), budget).Seq
	case "opentuner":
		return search.OpenTuner(obj, rngFor(p.Name), budget).Seq
	case "random":
		return search.Random(obj, rngFor(p.Name), budget).Seq
	default:
		fatal(fmt.Errorf("unknown algorithm %q", algo))
		return nil
	}
}

func report(p *core.Program, seq []int, cycles int64) {
	// The final validation run must be organic even when the search ran
	// under -faults injection.
	faults.Disable()
	var names []string
	for _, s := range seq {
		names = append(names, passes.Table1Names[s])
	}
	fmt.Printf("sequence (%d passes): %s\n", len(seq), strings.Join(names, " "))
	fmt.Printf("cycles: %d  (%+.1f%% vs -O3, %+.1f%% vs -O0)  samples used: %d\n",
		cycles, p.SpeedupOverO3(cycles)*100,
		(float64(p.O0Cycles)/float64(cycles)-1)*100, p.Samples())

	// Validate the optimized design still behaves identically (the paper's
	// final logic-simulation check, here via the interpreter).
	opt := p.Module()
	passes.Apply(opt, seq)
	ref, err1 := interp.Run(p.Module(), interp.DefaultLimits)
	got, err2 := interp.Run(opt, interp.DefaultLimits)
	if err1 != nil || err2 != nil || ref.Exit != got.Exit || len(ref.Trace) != len(got.Trace) {
		fmt.Println("VALIDATION FAILED: optimized design diverges from reference")
		os.Exit(1)
	}
	fmt.Println("validation: optimized design matches reference behaviour")
}

// genCfg is the inference/training environment configuration a saved agent
// uses: combined observation, §5.3 technique-2 normalization, log reward.
func genCfg(seqLen int) core.EnvConfig {
	return core.EnvConfig{
		Obs: core.ObsBoth, Norm: core.NormTotal,
		EpisodeLen: seqLen, RewardLog: true,
	}
}

// trainGeneralizer trains a PPO agent across N random programs (§6.2) and
// saves it for later zero-shot inference.
func trainGeneralizer(n, steps int, path string) {
	fmt.Printf("training on %d random programs for %d steps...\n", n, steps)
	train, err := experimentsRandomPrograms(n)
	if err != nil {
		fatal(err)
	}
	cfg := genCfg(45)
	envs := make([]rl.Env, len(train))
	for i, p := range train {
		envs[i] = core.NewPhaseEnv(p, cfg)
	}
	pcfg := rl.DefaultPPO()
	pcfg.Hidden = []int{128, 128}
	agent := rl.NewPPO(pcfg, envs[0].ObsSize(), envs[0].ActionDims())
	agent.Train(envs, steps, func(st rl.Stats) {
		fmt.Printf("  steps=%6d episodes=%4d reward-mean=%.1f\n",
			st.TotalSteps, st.TotalEpisodes, st.EpisodeRewardMean)
	})
	if err := agent.Snapshot().Save(path); err != nil {
		fatal(err)
	}
	fmt.Println("saved agent to", path)
}

func experimentsRandomPrograms(n int) ([]*core.Program, error) {
	var ps []*core.Program
	seed := int64(9000)
	for i := 0; i < n; i++ {
		m, used := progen.GenerateFiltered(seed, progen.DefaultGen)
		seed = used + 1
		p, err := core.NewProgram(fmt.Sprintf("rand%d", used), m)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// inferWithAgent runs one greedy rollout with a saved agent (one profiler
// sample, as in Figure 9).
func inferWithAgent(p *core.Program, path string) []int {
	snap, err := rl.LoadSnapshot(path)
	if err != nil {
		fatal(err)
	}
	agent, err := rl.RestorePPO(snap)
	if err != nil {
		fatal(err)
	}
	seq, _, _ := core.InferGreedy(p, genCfg(45), func(obs []float64) int {
		return agent.Act(obs, true)[0]
	})
	return seq
}

func rngFor(name string) *rand.Rand {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h = (h ^ int64(c)) * 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return rand.New(rand.NewSource(h))
}

// failCompile dies on a failed compile, printing the sanitizer's minimized
// repro first when one is available (the usual reason a sanitized compile
// fails).
func failCompile(p *core.Program) {
	if rep := p.SanitizerReport(); rep != nil {
		fmt.Print(rep.String())
		fatal(fmt.Errorf("sanitizer detected a miscompiling pass sequence"))
	}
	fatal(fmt.Errorf("compilation failed"))
}

// openArtifacts opens the persistent artifact cache when -cache-dir is set
// and installs it as the process default, so every Program built afterwards
// (baselines included) reads through and writes behind it. The returned
// closer drains pending writes and prints the store's counters; with no
// -cache-dir it is a no-op.
func openArtifacts(dir string, budget int64) (func(), error) {
	if dir == "" {
		return func() {}, nil
	}
	st, err := artifact.Open(dir, budget)
	if err != nil {
		return nil, err
	}
	core.SetDefaultArtifacts(st)
	return func() {
		core.SetDefaultArtifacts(nil)
		st.Close()
		s := st.Stats()
		fmt.Printf("store: hits=%d misses=%d writes=%d bytes=%d corrupt=%d evictions=%d segments=%d\n",
			s.Hits, s.Misses, s.Writes, s.Bytes, s.Corrupt, s.Evictions, s.Segments)
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autophase:", err)
	os.Exit(1)
}
