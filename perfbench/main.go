// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed time, checks that every output is correct,
// and prints one JSON result line as its last line of standard output:
// the end-to-end metrics, or with --trace 1 the per-layer metrics. Every
// layer is timed from outside, at the public functions the benchmark
// calls; nothing inside the program is instrumented. NOTES.md describes
// the workloads and metrics; run.sh builds and runs it from the root of a
// checkout.
//
//	perfbench --workload search-sweep --seed 1 --seconds 30 --trace 0
//
// A failed correctness check prints the result with "correct": false and
// exits 1; a run that cannot complete prints no result and exits 1.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config) (*result, error){
	"search-sweep":        runSearchSweep,
	"rl-ppo":              runRLPPO,
	"serve-warm-deadline": runServe,
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a few jobs, for the smoke test.
	tiny bool
	// workDir is scratch space for artifact stores; the caller removes it.
	workDir string
	// resultsDir receives a traced run's "where the time goes" table; ""
	// writes none.
	resultsDir string
	// historyDir holds the wall_s of earlier untraced runs in this
	// checkout, from which a traced run reports its tracing overhead; ""
	// keeps no history.
	historyDir string
}

// Every workload repeats its set-up setupMinReps times, and more while
// the repetitions have taken less than setupSeconds, up to setupMaxReps;
// setup_s reports the fastest. On a shared machine set-up times come in
// blocks of fast and slow repetitions (a neighbour on the same core makes
// a set-up of a few milliseconds up to twice as slow), so the median of
// each run moves with the machine, while the fastest repetition measures
// the set-up's own work.
const (
	setupMinReps = 5
	setupMaxReps = 200
	setupSeconds = 3.0
)

//go:embed pinned.json
var pinnedJSON []byte

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: search-sweep, rl-ppo or serve-warm-deadline")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload search-sweep|rl-ppo|serve-warm-deadline --seed N --seconds S --trace 0|1")
		return 2
	}
	state := filepath.Join(".bench_build", "perfbench")
	cfg := config{
		workload:   *name,
		seed:       *seed,
		seconds:    *seconds,
		trace:      *trace == 1,
		workDir:    filepath.Join(state, "work-"+strconv.Itoa(os.Getpid())),
		resultsDir: filepath.Join("perfbench", "results"),
		historyDir: filepath.Join(state, "history"),
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := drive(cfg)
	if rerr := os.RemoveAll(cfg.workDir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := res.checkPinned(); err != nil {
		res.fail("%v", err)
	}
	if err := res.finish(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", f)
	}
	line, err := json.Marshal(res.output(cfg.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(res.failures) > 0 {
		return 1
	}
	return 0
}

// checkPinned compares the run's speedup with the value committed in
// pinned.json for the same inputs. The speedup is a deterministic function
// of the inputs, so any difference means search results changed. Inputs
// with no committed value fail too, so that a correct run always means the
// check ran; the message gives the entry to add by hand.
func (r *result) checkPinned() error {
	pinned := map[string]float64{}
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return fmt.Errorf("pinned.json: %w", err)
	}
	want, ok := pinned[r.inputKey]
	switch {
	case !ok:
		return fmt.Errorf("%s: speedup_vs_o3_pct %v, none pinned; if it is right, add \"%s\": %v to pinned.json",
			r.inputKey, r.speedup, r.inputKey, r.speedup)
	case want != r.speedup:
		return fmt.Errorf("%s: speedup_vs_o3_pct %v, pinned %v; if the change is intended, set \"%s\": %v in pinned.json",
			r.inputKey, r.speedup, want, r.inputKey, r.speedup)
	}
	return nil
}
