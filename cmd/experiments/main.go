// Command experiments regenerates every table and figure of the MixNN
// paper's evaluation (§6). See DESIGN.md §4 for the experiment index and
// README.md for paper-vs-measured results. Tier throughput under a stated
// load model is the bench module's job (bench/README.md), not this
// command's.
//
// Usage:
//
//	experiments -fig all  -scale quick          # every figure, CI sizing
//	experiments -fig 5    -dataset cifar10      # one figure, one dataset
//	experiments -fig 7    -scale full           # paper-sized inference run
//	experiments -perf                           # §6.5 system performance
//	experiments -ablation                       # DESIGN.md §9 design-choice studies
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mixnn/internal/experiment"
	"mixnn/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate: 5, 6, 7, 8, 9 or all")
		perf    = fs.Bool("perf", false, "run the §6.5 system-performance experiment")
		ablate  = fs.Bool("ablation", false, "run the DESIGN.md §9 ablation studies instead of figures")
		dataset = fs.String("dataset", "all", "dataset: cifar10, motionsense, mobiact, lfw or all")
		scaleS  = fs.String("scale", "quick", "experiment scale: quick or full")
		seed    = fs.Int64("seed", 1, "base random seed")
		passive = fs.Bool("passive", false, "use the passive (honest-server) ∇Sim variant for figures 7/8")
		ratioS  = fs.String("ratios", "0.2,0.4,0.6,0.8,1.0", "background-knowledge ratios for figure 8")
		radius  = fs.Float64("radius", experiment.DefaultNeighbourRadius, "neighbour radius for figure 9 (on unit-normalised directions)")
		cdfAt   = fs.Int("cdf-round", 6, "round at which figure 6 snapshots per-participant accuracy")
		csvDir  = fs.String("csv", "", "directory to also write CSV result files into (created if missing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale := experiment.ScaleQuick
	if *scaleS == "full" {
		scale = experiment.ScaleFull
	} else if *scaleS != "quick" {
		return fmt.Errorf("unknown scale %q", *scaleS)
	}

	specs, err := selectDatasets(*dataset, scale, *seed)
	if err != nil {
		return err
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("create csv dir: %w", err)
		}
	}

	if *perf {
		return runPerf(scale, *seed, *csvDir)
	}
	if *ablate {
		return runAblations(specs, *seed)
	}

	wantFig := func(f string) bool { return *fig == "all" || *fig == f }
	ran := false
	if wantFig("5") {
		ran = true
		if err := runFig5(specs, *seed, *csvDir); err != nil {
			return err
		}
	}
	if wantFig("6") {
		ran = true
		if err := runFig6(specs, *seed, *cdfAt); err != nil {
			return err
		}
	}
	if wantFig("7") {
		ran = true
		if err := runFig7(specs, *seed, !*passive, *csvDir); err != nil {
			return err
		}
	}
	if wantFig("8") {
		ran = true
		ratios, err := parseRatios(*ratioS)
		if err != nil {
			return err
		}
		if err := runFig8(specs, *seed, !*passive, ratios, *csvDir); err != nil {
			return err
		}
	}
	if wantFig("9") {
		ran = true
		if err := runFig9(specs, *seed, *radius, *csvDir); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q (want 5, 6, 7, 8, 9 or all)", *fig)
	}
	return nil
}

func selectDatasets(key string, scale experiment.Scale, seed int64) ([]experiment.DatasetSpec, error) {
	if key == "all" {
		return experiment.Datasets(scale, seed), nil
	}
	spec, err := experiment.DatasetByKey(key, scale, seed)
	if err != nil {
		return nil, err
	}
	return []experiment.DatasetSpec{spec}, nil
}

func parseRatios(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad ratio %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runFig5 prints model accuracy per learning round for the three arms
// ("MixNN provides the same utility than a standard FL scheme, noisy
// gradient however decreases significantly the utility").
func runFig5(specs []experiment.DatasetSpec, seed int64, csvDir string) error {
	fmt.Println("=== Figure 5: model accuracy vs learning round ===")
	var all []experiment.UtilityResult
	for _, spec := range specs {
		var series []stats.Series
		for _, arm := range experiment.Arms() {
			res, err := experiment.RunUtility(spec, arm, seed)
			if err != nil {
				return err
			}
			x := make([]float64, len(res.Accuracy))
			for i := range x {
				x[i] = float64(i + 1)
			}
			series = append(series, stats.Series{Name: arm.Key, X: x, Y: res.Accuracy})
			all = append(all, res)
			fmt.Printf("  %-12s %-7s %s  final=%.3f\n", spec.Key, arm.Key, stats.Sparkline(res.Accuracy), res.FinalAccuracy())
		}
		fmt.Printf("\n(%s)\n%s\n", spec.Key, stats.FormatSeriesTable("round", series))
	}
	return writeCSV(csvDir, "fig5_utility.csv", func(w io.Writer) error {
		return experiment.WriteUtilityCSV(w, all)
	})
}

// runFig6 prints the CDF of per-participant accuracy at the snapshot round
// ("using noisy gradient decreases the utility for all participants").
func runFig6(specs []experiment.DatasetSpec, seed int64, round int) error {
	fmt.Printf("=== Figure 6: CDF of per-participant accuracy at round %d ===\n", round)
	for _, spec := range specs {
		fmt.Printf("\n(%s)\n", spec.Key)
		for _, arm := range experiment.Arms() {
			res, err := experiment.RunUtility(spec, arm, seed)
			if err != nil {
				return err
			}
			per := res.PerClientAt(round - 1)
			cdf := stats.CDF(per)
			fmt.Printf("  %-7s mean=%.3f p10=%.3f median=%.3f p90=%.3f  cdf=",
				arm.Key, stats.Mean(per), stats.Percentile(per, 10), stats.Percentile(per, 50), stats.Percentile(per, 90))
			for _, p := range cdf {
				fmt.Printf(" (%.2f,%.2f)", p.X, p.Y)
			}
			fmt.Println()
		}
	}
	return nil
}

// runFig7 prints ∇Sim inference accuracy per round for the three arms
// ("MixNN better prevents attribute leakage compared to using noisy
// gradient").
func runFig7(specs []experiment.DatasetSpec, seed int64, active bool, csvDir string) error {
	mode := "active"
	if !active {
		mode = "passive"
	}
	fmt.Printf("=== Figure 7: %s ∇Sim inference accuracy vs learning round ===\n", mode)
	var all []experiment.InferenceResult
	for _, spec := range specs {
		var series []stats.Series
		chance := 0.0
		for _, arm := range experiment.Arms() {
			res, err := experiment.RunInference(spec, arm, active, 1, seed)
			if err != nil {
				return err
			}
			chance = res.Chance
			all = append(all, res)
			x := make([]float64, len(res.InferenceAccuracy))
			for i := range x {
				x[i] = float64(i + 1)
			}
			series = append(series, stats.Series{Name: arm.Key, X: x, Y: res.InferenceAccuracy})
		}
		fmt.Printf("\n(%s, random guess = %.3f)\n%s\n", spec.Key, chance, stats.FormatSeriesTable("round", series))
	}
	return writeCSV(csvDir, "fig7_inference.csv", func(w io.Writer) error {
		return experiment.WriteInferenceCSV(w, all)
	})
}

// runFig8 prints final inference accuracy vs background-knowledge ratio
// ("this background knowledge has only a small impact on the protection
// of MixNN").
func runFig8(specs []experiment.DatasetSpec, seed int64, active bool, ratios []float64, csvDir string) error {
	fmt.Println("=== Figure 8: inference accuracy vs background knowledge ratio ===")
	var all []experiment.InferenceResult
	for _, spec := range specs {
		var series []stats.Series
		for _, arm := range experiment.Arms() {
			results, err := experiment.RunBackgroundSweep(spec, arm, active, ratios, seed)
			if err != nil {
				return err
			}
			all = append(all, results...)
			y := make([]float64, len(results))
			for i, r := range results {
				y[i] = r.FinalAccuracy()
			}
			series = append(series, stats.Series{Name: arm.Key, X: ratios, Y: y})
		}
		fmt.Printf("\n(%s)\n%s\n", spec.Key, stats.FormatSeriesTable("ratio", series))
	}
	return writeCSV(csvDir, "fig8_background.csv", func(w io.Writer) error {
		return experiment.WriteInferenceCSV(w, all)
	})
}

// runFig9 prints the CDF of close-neighbour counts ("many participants
// have very close model updates making it difficult ... to retrieve and
// distinguish all pieces of the gradient coming from the same
// participant").
func runFig9(specs []experiment.DatasetSpec, seed int64, radius float64, csvDir string) error {
	fmt.Printf("=== Figure 9: CDF of #neighbours within radius %.2f (unit-normalised directions) ===\n", radius)
	var all []experiment.NeighbourResult
	for _, spec := range specs {
		res, err := experiment.RunNeighbours(spec, radius, seed)
		if err != nil {
			return err
		}
		all = append(all, res)
		fmt.Printf("\n(%s) neighbour counts per participant: %v\n  cdf:", spec.Key, res.Neighbours)
		for _, p := range res.CDF {
			fmt.Printf(" (%.0f,%.2f)", p.X, p.Y)
		}
		fmt.Println()
	}
	return writeCSV(csvDir, "fig9_neighbours.csv", func(w io.Writer) error {
		return experiment.WriteNeighboursCSV(w, all)
	})
}

// runPerf prints the §6.5 system-performance table for the two model
// variants.
func runPerf(scale experiment.Scale, seed int64, csvDir string) error {
	var all []experiment.PerfResult
	fmt.Println("=== §6.5 system performance (real HTTP proxy, simulated enclave) ===")
	fmt.Printf("%-12s %12s %12s %10s %10s %10s %12s %14s\n",
		"model", "update(KB)", "decrypt(ms)", "store(ms)", "mix(ms)", "proc(ms)", "e2e(ms)", "peak-mem(KB)")
	participants, k := 8, 4
	if scale == experiment.ScaleFull {
		participants, k = 20, 10
	}
	for _, m := range experiment.PerfModels(scale) {
		res, err := experiment.RunSystemPerf(m.Name, m.Arch, participants, k, seed)
		if err != nil {
			return err
		}
		all = append(all, res)
		fmt.Printf("%-12s %12.1f %12.3f %10.3f %10.3f %10.3f %12.3f %14.1f\n",
			res.Model, float64(res.UpdateBytes)/1024, res.DecryptMillis, res.StoreMillis,
			res.MixMillis, res.ProcessMillis, res.EndToEndMillis, float64(res.EnclavePeakBytes)/1024)
	}
	return writeCSV(csvDir, "sysperf.csv", func(w io.Writer) error {
		return experiment.WritePerfCSV(w, all)
	})
}

// runAblations prints the DESIGN.md §9 design-choice studies.
func runAblations(specs []experiment.DatasetSpec, seed int64) error {
	fmt.Println("=== Ablations (DESIGN.md §9): utility and active-∇Sim leakage per design choice ===")
	for _, spec := range specs {
		rows, err := experiment.RunAblations(spec, seed)
		if err != nil {
			return err
		}
		fmt.Printf("\n(%s)\n%-14s %-14s %10s %10s %10s\n", spec.Key, "study", "config", "utility", "leakage", "chance")
		for _, r := range rows {
			fmt.Printf("%-14s %-14s %10.3f %10.3f %10.3f\n", r.Study, r.Config, r.Utility, r.Leakage, r.Chance)
		}
	}
	return nil
}

// writeCSV writes one result file into dir (no-op when dir is empty).
func writeCSV(dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("create %s: %w", name, err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		return fmt.Errorf("write %s: %w", name, err)
	}
	return f.Close()
}
