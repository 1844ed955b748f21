package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compareMain is `bench compare A.jsonl B.jsonl`: A is the base set of
// runs, B the set under test. For every (end-to-end metric, workload)
// pair it applies the bound BENCHMARK.json fixes and prints one row:
// better / within bound / worse / unresolved. It exits 1 when any row is
// worse or unresolved.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var sets [2]runSet
	for i, path := range args {
		if sets[i], err = readRuns(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return compareSets(spec, sets[0], sets[1])
}

// runSet is workload -> metric -> one value per untraced run.
type runSet map[string]map[string][]float64

func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s: run of %s with seed %d was incorrect: %v", path, rec.Workload, rec.Seed, rec.Problems)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], v.Value)
		}
	}
	return set, sc.Err()
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the driver's method).
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; it
// needs at least two values.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

func compareSets(spec benchmarkSpec, a, b runSet) int {
	fmt.Printf("%-22s %-20s %12s %12s %8s %8s %8s %6s  %s\n",
		"metric", "workload", "base median", "median", "ratio", "spreadA", "spreadB", "bound", "verdict")
	bad := 0
	for _, m := range spec.EndToEnd {
		for _, w := range spec.Workloads {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-22s %-20s missing from one set\n", m.Name, w.Name)
				bad++
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			// worse is how much B's median is worse than A's, as a
			// share of A's.
			worse := mb/ma - 1
			if m.Better == "higher" {
				worse = 1 - mb/ma
			}
			verdict := "within bound"
			switch {
			// setup_s is set-up repeated and its median taken; like the
			// driver, its run-to-run spread is not held to the bound.
			case m.Name != "setup_s" && max(sa, sb) > m.Bound:
				verdict = "unresolved (spread wider than bound)"
				bad++
			case worse > m.Bound:
				verdict = "WORSE"
				bad++
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-22s %-20s %12.4f %12.4f %8.4f %8.4f %8.4f %6.2f  %s  (n=%d,%d %s)\n",
				m.Name, w.Name, ma, mb, mb/ma, sa, sb, m.Bound, verdict, len(va), len(vb), m.Unit)
		}
	}
	if bad > 0 {
		fmt.Printf("%d (metric, workload) pairs worse, unresolved or missing\n", bad)
		return 1
	}
	fmt.Println("every (metric, workload) pair agrees within its bound")
	return 0
}
