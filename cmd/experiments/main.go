// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp fig7 [-scale quick|full]
//	experiments -exp fig5 | fig6 | fig8 | fig9 | table3 | randomgen | all
//	experiments -exp fig5 -csv        # machine-readable heat map
//	experiments -exp fig7 -workers 8  # parallel candidate evaluation
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"

	"autophase/internal/artifact"
	"autophase/internal/cliutil"
	"autophase/internal/core"
	"autophase/internal/experiments"
	"autophase/internal/faults"
	"autophase/internal/profiling"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig5, fig6, fig7, fig8, fig9, table3, randomgen, all")
	scale := flag.String("scale", "quick", "budget scale: quick or full")
	csv := flag.Bool("csv", false, "emit heat maps as CSV instead of ASCII")
	workers := flag.Int("workers", 0, "evaluation parallelism (0 = the scale's default: quick pins 1, full uses all CPUs)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	faultSpec := flag.String("faults", "", `fault-injection spec, e.g. "pass-panic:0.01,interp-stall:0.005"`)
	faultSeed := flag.Int64("faults-seed", 1, "deterministic seed for the -faults injector")
	crashDir := flag.String("crashdir", "", "write crash-repro bundles here for contained panic/deadline faults")
	cacheDir := flag.String("cache-dir", "", "persistent artifact cache directory (profiles and features survive restarts)")
	cacheBudget := flag.Int64("cache-budget", 0, "artifact cache size budget in bytes (0 = 512 MiB default)")
	flag.Parse()

	// Reject meaningless knob values up front with a usage error (exit 2)
	// instead of silently clamping; -workers 0 stays legal as the "scale
	// decides" sentinel.
	if err := cliutil.FirstErr(
		cliutil.MinInt("workers", *workers, 0),
		cliutil.MinInt64("cache-budget", *cacheBudget, 0),
	); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	if *cacheDir != "" {
		st, err := artifact.Open(*cacheDir, *cacheBudget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		core.SetDefaultArtifacts(st)
		defer func() {
			core.SetDefaultArtifacts(nil)
			st.Close()
		}()
	}

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *crashDir != "" {
		core.SetCrashDir(*crashDir)
	}
	if *faultSpec != "" {
		spec, err := faults.ParseSpec(*faultSpec, *faultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		faults.Enable(spec)
		defer faults.Disable()
	}

	sc := experiments.Quick()
	if *scale == "full" {
		sc = experiments.Full()
	}
	if *workers > 0 {
		sc.Workers = *workers
	}
	runErr := run(*exp, sc, *csv)
	stopProf()
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", runErr)
		os.Exit(1)
	}
}

func run(exp string, sc experiments.Scale, csv bool) error {
	switch exp {
	case "table3":
		fmt.Print(experiments.RenderTable3())
		return nil
	case "fig7":
		return runFig7(sc)
	case "fig5", "fig6", "fig8", "fig9", "randomgen", "all":
		// These need the random-program training set and the forest
		// importance analysis.
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}

	train, err := experiments.RandomPrograms(sc.TrainPrograms, 9000)
	if err != nil {
		return err
	}
	imp := experiments.Importance(train, sc, 1)

	switch exp {
	case "fig5":
		renderHeat(csv, "Figure 5: importance of program features per pass", imp.FeatureByPass)
		if !csv {
			fmt.Print(experiments.RenderImportanceSummary(imp, sc.KeepFeatures, sc.KeepPasses))
		}
	case "fig6":
		renderHeat(csv, "Figure 6: importance of previously applied passes per pass", imp.PassByPass)
	case "fig8":
		fmt.Print(experiments.RenderCurves(experiments.Fig8(train, imp, sc)))
	case "fig9":
		return runFig9(train, imp, sc)
	case "randomgen":
		return runRandomGen(train, imp, sc)
	case "all":
		fmt.Print(experiments.RenderTable3())
		fmt.Println()
		if err := runFig7(sc); err != nil {
			return err
		}
		fmt.Println()
		renderHeat(false, "Figure 5: importance of program features per pass", imp.FeatureByPass)
		fmt.Println()
		renderHeat(false, "Figure 6: importance of previously applied passes per pass", imp.PassByPass)
		fmt.Println()
		fmt.Print(experiments.RenderImportanceSummary(imp, sc.KeepFeatures, sc.KeepPasses))
		fmt.Println()
		fmt.Print(experiments.RenderCurves(experiments.Fig8(train, imp, sc)))
		fmt.Println()
		if err := runFig9(train, imp, sc); err != nil {
			return err
		}
		fmt.Println()
		return runRandomGen(train, imp, sc)
	}
	return nil
}

func renderHeat(csv bool, title string, rows [][]float64) {
	if csv {
		fmt.Print(experiments.HeatMapCSV(rows))
		return
	}
	fmt.Print(experiments.RenderHeatMap(title, rows))
}

func runFig7(sc experiments.Scale) error {
	programs, err := experiments.BenchmarkPrograms()
	if err != nil {
		return err
	}
	rows := experiments.Fig7(programs, sc)
	fmt.Print(experiments.RenderAlgoResults(
		"Figure 7: circuit speedup over -O3 and samples per program ("+sc.Name+" scale)", rows))
	fmt.Println()
	fmt.Print(experiments.RenderPerProgram(rows))
	return nil
}

func runFig9(train []*core.Program, imp *core.Importance, sc experiments.Scale) error {
	test, err := experiments.BenchmarkPrograms()
	if err != nil {
		return err
	}
	rows := experiments.Fig9(train, test, imp, sc)
	fmt.Print(experiments.RenderAlgoResults(
		"Figure 9: zero-shot generalization to the nine benchmarks ("+sc.Name+" scale)", rows))
	fmt.Println()
	fmt.Print(experiments.RenderPerProgram(rows))
	return nil
}

func runRandomGen(train []*core.Program, imp *core.Importance, sc experiments.Scale) error {
	set := experiments.GenSettings(imp, sc)[2] // filtered-norm2, the paper's best
	agent, _ := experiments.TrainGeneralizer(train, set, sc, 42)
	mean, err := experiments.RandomGeneralization(agent, set.Cfg, sc.TestRandom, 777000)
	if err != nil {
		return err
	}
	fmt.Printf("§6.2 random-program generalization (filtered-norm2, %d unseen programs): %+.1f%% vs -O3\n",
		sc.TestRandom, mean*100)
	return nil
}
