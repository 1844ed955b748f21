package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mixnn/internal/stats"
)

// metricDef names one metric and its unit. BENCHMARK.json repeats the
// two lists below (adding direction and regression bound); the smoke
// test fails when the file and these lists disagree.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a participant, an FL coordinator or the operator
// paying for the proxy host sees. Measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"updates_per_s", "1/s"},
	{"cpu_us_per_update", "us"},
	{"allocs_per_update", "count"},
	{"alloc_kb_per_update", "KB"},
	{"send_p50_us", "us"},
	{"absorb_lag_p50_ms", "ms"},
	{"absorb_lag_p95_ms", "ms"},
}

// perLayer is `<module>.<metric>`: the traced run, the counters read at
// the same boundaries, and the single-goroutine stage ledger.
var perLayer = []metricDef{
	{"gate.fail_share", "ratio"},

	{"client.prep_us_p50", "us"},
	{"client.retry_gap_us_mean", "us"},
	{"client.attempts_per_ack", "ratio"},
	{"client.send_us_p95", "us"},
	{"client.send_us_p99", "us"},

	{"transport.front_wait_us_p50", "us"},
	{"transport.front_wait_us_p95", "us"},
	{"transport.hop_wait_us_p50", "us"},
	{"transport.busy_per_ack", "ratio"},
	{"transport.queue_peak", "count"},

	{"proxy.front_handle_us_p50", "us"},
	{"proxy.front_handle_us_p99", "us"},
	{"proxy.hop_handle_us_per_update", "us"},
	{"proxy.decrypt_us_mean", "us"},
	{"proxy.store_us_mean", "us"},
	{"proxy.mix_us_mean", "us"},
	{"proxy.process_us_mean", "us"},
	{"proxy.enclave_peak_kb", "KB"},
	{"proxy.enclave_page_events", "count"},
	{"proxy.session_miss_share", "ratio"},

	{"outbox.dwell_ms_p50", "ms"},
	{"outbox.deliver_us_p50", "us"},
	{"outbox.deliver_attempts_per_batch", "ratio"},
	{"outbox.lane_peak", "count"},

	{"agg.absorb_us_per_update", "us"},
	{"health.refused_per_ack", "ratio"},

	{"gen.late_us_p95", "us"},
	{"gen.offered_per_s", "1/s"},
	{"host.speed_wall", "ratio"},
	{"host.speed_cpu", "ratio"},
	{"proc.peak_heap_mb", "MB"},
	{"proc.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.spans", "count"},

	{"nn.encode_us", "us"},
	{"nn.encode_allocs", "count"},
	{"enclave.wrap_us", "us"},
	{"enclave.wrap_allocs", "count"},
	{"enclave.decrypt_us", "us"},
	{"enclave.decrypt_allocs", "count"},
	{"enclave.establish_us", "us"},
	{"enclave.keygen_us", "us"},
	{"core.addwire_us", "us"},
	{"core.addwire_allocs", "count"},
	{"core.drain_encode_us", "us"},
	{"core.drain_encode_allocs", "count"},
	{"route.route_us", "us"},
	{"wire.batch_encode_us", "us"},
	{"wire.batch_decode_us", "us"},
	{"outbox.envelope_us", "us"},
	{"outbox.put_ack_us", "us"},
	{"agg.absorb_us", "us"},
	{"agg.absorb_allocs", "count"},
	{"transport.loopback_rtt_us", "us"},
	{"transport.loopback_rtt_allocs", "count"},
	{"transport.http_rtt_us", "us"},
	{"transport.http_rtt_allocs", "count"},
	{"ledger.sum_us", "us"},
	{"ledger.sum_allocs", "count"},
	{"ledger.unattributed_share", "ratio"},
	{"ledger.unattributed_allocs_share", "ratio"},
}

// metricValue is one reported number in the result line's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits pairs measured values with the units the definitions fix.
// A defined metric nobody measured is a bug in the benchmark, not a 0.
func withUnits(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d values measured for %d defined metrics", len(vals), len(defs))
	}
	return out, nil
}

// printTable prints every metric by name with its unit, in definition
// order.
func printTable(title string, defs []metricDef, vals map[string]metricValue) {
	fmt.Printf("--- %s ---\n", title)
	for _, d := range defs {
		fmt.Printf("  %-36s %14.4f %s\n", d.Name, vals[d.Name].Value, d.Unit)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself
// reads: names, units, directions and regression bounds.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findRoot returns the checkout root: the directory holding
// BENCHMARK.json, looked for in the working directory and its parent
// (`go run -C bench .` and `go test` run from bench/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..; run from the repository root")
}

func loadSpec(root string) (benchmarkSpec, error) {
	var s benchmarkSpec
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
