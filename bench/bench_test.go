package main

import (
	"regexp"
	"testing"
)

// TestSmoke runs every workload once untraced and once traced at a
// hundredth of the benchmark's length (and with small enclave keys and
// short reference readings, so neither dominates the test) and checks that each metric
// BENCHMARK.json names is emitted exactly once per workload with its
// unit, that the books close, and that the file and the code agree.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	sameMetrics := func(list string, defs []metricDef, in []specMetric) {
		if len(defs) != len(in) {
			t.Fatalf("%s: the code defines %d metrics, BENCHMARK.json %d", list, len(defs), len(in))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			if in[i].Name != d.Name || in[i].Unit != d.Unit {
				t.Errorf("%s[%d]: the code says %s (%s), BENCHMARK.json %s (%s)", list, i, d.Name, d.Unit, in[i].Name, in[i].Unit)
			}
			if !name.MatchString(d.Name) {
				t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", list, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s: metric %s is defined twice", list, d.Name)
			}
			seen[d.Name] = true
		}
	}
	sameMetrics("end_to_end", endToEnd, spec.EndToEnd)
	sameMetrics("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("the code defines %d workloads, BENCHMARK.json %d", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: the code and BENCHMARK.json disagree on %s", i, w.Name)
		}
	}

	rsaBits, refReadNs = 1024, 2e6
	defer func() { rsaBits, refReadNs = 0, 90e6 }()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			rec := runAndReport(root, env{}, w, 3, 0.2, 1, traced, "")
			for _, p := range rec.Problems {
				t.Errorf("%s traced=%v: %s", w.Name, traced, p)
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d defined", w.Name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				if got, ok := rec.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or with unit %q, want %q", w.Name, traced, d.Name, got.Unit, d.Unit)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
