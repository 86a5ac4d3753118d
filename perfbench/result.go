package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// result is what one workload run measured and checked.
type result struct {
	// inputKey names the generated inputs; the pinned speedup is keyed by it.
	inputKey string
	setups   []time.Duration // every set-up repetition
	rounds   []time.Duration // wall time of each measured round
	jobs     []time.Duration // latency of every finished job
	samples  int64           // logical profiler samples in the measured rounds
	evals    int64           // reward queries: objective evaluations or env steps
	// speedup is 100 × the geometric mean, over the workload's programs, of
	// -O3 cycles / best cycles found: 100 is on par with -O3.
	speedup    float64
	attempted  int      // jobs started
	failedJobs int      // jobs that did not finish correctly
	failures   []string // failed correctness checks
	use        usage    // process resource use over the measured rounds
	// Traced runs only: the per-layer metrics and the "where the time
	// goes" table with its notes.
	layers map[string]float64
	table  []row
	notes  []string
}

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// e2eUnits and layerUnits fix every metric's name and unit; BENCHMARK.json
// lists the same names.
var e2eUnits = map[string]string{
	"setup_s":                "s",
	"wall_s":                 "s",
	"samples_per_s":          "1/s",
	"evals_per_s":            "1/s",
	"speedup_vs_o3_pct":      "%",
	"allocs_per_sample":      "count",
	"alloc_bytes_per_sample": "B",
	"peak_rss_mb":            "MB",
	"job_latency_p50_ms":     "ms",
	"job_latency_p90_ms":     "ms",
}

var layerUnits = map[string]string{
	"client.self_s":         "s",
	"client.call_s":         "s",
	"client.calls_per_job":  "count",
	"job.system_ms":         "ms",
	"core.newprogram_us":    "us",
	"core.samples":          "count",
	"core.compiles":         "count",
	"core.cache_hits":       "count",
	"core.fp_hits":          "count",
	"core.noop_ir":          "count",
	"core.merges":           "count",
	"hls.static_hits":       "count",
	"hls.vm_hits":           "count",
	"hls.interp_hits":       "count",
	"passes.run_us":         "us",
	"ir.fingerprint_us":     "us",
	"features.extract_us":   "us",
	"hls.static_us":         "us",
	"hls.vm_us":             "us",
	"hls.interp_us":         "us",
	"vm.lower_us":           "us",
	"vm.run_us":             "us",
	"artifact.get_us":       "us",
	"artifact.put_us":       "us",
	"serve.disk_hit_ratio":  "ratio",
	"gc.cpu_frac":           "frac",
	"unattributed_cpu_frac": "frac",
}

func (r *result) endToEnd() map[string]float64 {
	measured := 0.0
	for _, d := range r.rounds {
		measured += d.Seconds()
	}
	return map[string]float64{
		"setup_s":                quantile(r.setups, 0).Seconds(),
		"wall_s":                 quantile(r.rounds, 0.5).Seconds(),
		"samples_per_s":          float64(r.samples) / measured,
		"evals_per_s":            float64(r.evals) / measured,
		"speedup_vs_o3_pct":      r.speedup,
		"allocs_per_sample":      float64(r.use.mallocs) / float64(r.samples),
		"alloc_bytes_per_sample": float64(r.use.bytes) / float64(r.samples),
		"peak_rss_mb":            peakRSSMB(),
		"job_latency_p50_ms":     ms(quantile(r.jobs, 0.5)),
		"job_latency_p90_ms":     ms(quantile(r.jobs, 0.9)),
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// output is the result line: the end-to-end metrics, or the per-layer ones
// for a traced run.
func (r *result) output(trace bool) output {
	vals, units := r.endToEnd(), e2eUnits
	if trace {
		vals, units = r.layers, layerUnits
	}
	out := output{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failedJobs,
		Metrics: make(map[string]metric, len(units))}
	for name, unit := range units {
		out.Metrics[name] = metric{Value: vals[name], Unit: unit}
	}
	return out
}

// finish checks that the run produced every metric it must report, then
// keeps the untraced wall_s for later overhead reports, or writes the
// traced run's table.
func (r *result) finish(cfg config) error {
	if len(r.rounds) == 0 || r.samples == 0 || len(r.jobs) == 0 {
		return fmt.Errorf("%s: nothing measured", cfg.workload)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: rounds %v, process CPU %.3f s, GC %.1f%%, %d set-ups: fastest %v, median %v\n",
		cfg.workload, cfg.seed, r.rounds, r.use.procCPU, 100*r.use.gcFrac(), len(r.setups), quantile(r.setups, 0), quantile(r.setups, 0.5))
	if !cfg.trace {
		return r.recordWall(cfg)
	}
	for name := range layerUnits {
		v, ok := r.layers[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: traced run measured no %s", cfg.workload, name)
		}
	}
	if cfg.resultsDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.resultsDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.resultsDir, cfg.workload+".md"), []byte(r.renderTable(cfg)), 0o644)
}

// recordWall appends the untraced run's wall_s to the workload's history.
func (r *result) recordWall(cfg config) error {
	if cfg.historyDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.historyDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(cfg.historyDir, cfg.workload+".txt"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, quantile(r.rounds, 0.5).Seconds()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// untracedWalls reads the wall_s of the untraced runs recorded so far.
func untracedWalls(cfg config) []time.Duration {
	data, err := os.ReadFile(filepath.Join(cfg.historyDir, cfg.workload+".txt"))
	if err != nil {
		return nil
	}
	var walls []time.Duration
	for _, line := range strings.Fields(string(data)) {
		if s, err := strconv.ParseFloat(line, 64); err == nil {
			walls = append(walls, time.Duration(s*float64(time.Second)))
		}
	}
	return walls
}

// measure runs round until the run's time is used: always once, then
// again while another round of the mean length so far would still end
// within the time.
func measure(cfg config, round func() error) ([]time.Duration, error) {
	var walls []time.Duration
	var total time.Duration
	for {
		t0 := time.Now()
		if err := round(); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		walls = append(walls, d)
		total += d
		next := total + total/time.Duration(len(walls))
		if cfg.tiny || next.Seconds() > cfg.seconds {
			return walls, nil
		}
	}
}

// setUp times repetitions of up: setupMinReps, then more while they have
// taken less than setupSeconds in all, up to setupMaxReps. down, when
// non-nil, undoes one between repetitions, untimed, and each repetition
// starts after a collection. The workload keeps the last repetition.
func setUp(up, down func() error) ([]time.Duration, error) {
	var ds []time.Duration
	var total time.Duration
	for i := 0; i < setupMaxReps && (i < setupMinReps || total.Seconds() < setupSeconds); i++ {
		if i > 0 && down != nil {
			if err := down(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := up(); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		ds = append(ds, d)
		total += d
	}
	return ds, nil
}

// usage is a snapshot of the process's cumulative resource use.
type usage struct {
	mallocs, bytes uint64
	// gcCPU and cpu are runtime/metrics estimates of GC CPU time and of
	// all non-idle CPU time; procCPU is user+system time from getrusage.
	gcCPU, cpu, procCPU float64
}

var cpuMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// snapshot reads the process's resource counters. It runs a GC first: the
// runtime updates its CPU estimates at the end of each cycle.
func snapshot() usage {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcCPU:   samples[0].Value.Float64(),
		cpu:     samples[1].Value.Float64() - samples[2].Value.Float64(),
		procCPU: timeval(ru.Utime) + timeval(ru.Stime),
	}
}

func (u usage) sub(v usage) usage {
	return usage{u.mallocs - v.mallocs, u.bytes - v.bytes, u.gcCPU - v.gcCPU, u.cpu - v.cpu, u.procCPU - v.procCPU}
}

// gcFrac is the share of the process's CPU the garbage collector used.
func (u usage) gcFrac() float64 { return u.gcCPU / u.cpu }

func timeval(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// quantile interpolates linearly between the closest ranks.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + time.Duration((pos-float64(i))*float64(s[i+1]-s[i]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// best is one program's best result over a round's jobs.
type best struct {
	cycles, o3 int64
	seq        []int
	set        bool
}

// update keeps the better of the current best and (cycles, seq); the
// earlier update wins ties.
func (b *best) update(cycles int64, seq []int, o3 int64) {
	if !b.set || cycles < b.cycles {
		*b = best{cycles: cycles, o3: o3, seq: seq, set: true}
	}
}

// speedupPct is 100 × the geometric mean of -O3 cycles / best cycles.
func speedupPct(bs []best) float64 {
	var logSum float64
	n := 0
	for _, b := range bs {
		if b.set {
			logSum += math.Log(float64(b.o3) / float64(b.cycles))
			n++
		}
	}
	return 100 * math.Exp(logSum/float64(n))
}

// sameBests reports whether two rounds found identical best results.
func sameBests(a, b []best) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].cycles != b[i].cycles || fmt.Sprint(a[i].seq) != fmt.Sprint(b[i].seq) {
			return false
		}
	}
	return true
}
