package main

import (
	"fmt"
	"time"

	"mixnn/internal/experiment"
	"mixnn/internal/nn"
)

// loadKind is how the generator offers load.
type loadKind int

const (
	// closedLoop: GOMAXPROCS senders, each sending its next update as
	// soon as the previous one is acked. A slower tier receives less.
	closedLoop loadKind = iota
	// openLoop: seeded Poisson arrivals at a fixed rate, whatever the
	// tier does. Latency counts from the intended send time. The number
	// of arrivals in a phase is fixed at rate x duration (a Poisson
	// process given its count), so the offered load is the same on every
	// seed and only the spacing varies.
	openLoop
	// burstLoop: BurstSize simultaneous sends, the next burst BurstGap
	// after the previous one is fully acked. Latency counts from the
	// burst's release.
	burstLoop
)

// workload is one traffic mix and the tier shape it runs against. Every
// number here is fixed: the same on every commit and every host.
type workload struct {
	Name string
	// Why is the reason the workload exists (BENCHMARK.json repeats it).
	Why string
	// Model is "conv" (the paper's CIFAR shape, ~42KB/update) or "mlp"
	// (cmd/loadgen's model, ~0.5KB/update).
	Model string
	// HTTP serves every tier over net/http on 127.0.0.1 (the host
	// loopback interface, no real link) instead of the in-process
	// transport.Loopback.
	HTTP bool
	// QueueDepth and Workers size each Loopback peer's ingress queue
	// (0 = transport defaults: depth 1024, workers max(GOMAXPROCS,4)).
	QueueDepth, Workers int
	// Fronts is how many front proxies participants may address.
	Fronts int
	// Cascade selects cmd/loadgen's topology: each front routes
	// hash-quota over one local shard and two relay proxies, and every
	// chunk is re-mixed by a cascade hop before the aggregator.
	// Otherwise each front mixes in LocalShards local shards and
	// delivers straight to the aggregator.
	Cascade     bool
	LocalShards int
	// Round is each front's round size C; K the per-shard mixer list
	// capacity.
	Round, K int
	// Sessions is the number of established SDK sessions.
	Sessions int
	Load     loadKind
	// RatePerSec is the open loop's arrival rate.
	RatePerSec float64
	// BurstSize and BurstGap shape the burst loop.
	BurstSize int
	BurstGap  time.Duration
}

// aggRound is the aggregator's round size: a front round without the
// cascade, one hash-quota chunk (a third of it) with it.
func (w *workload) aggRound() int {
	if w.Cascade {
		return w.Round / 3
	}
	return w.Round
}

var workloads = []workload{
	{
		Name:  "conv_closed",
		Why:   "42KB updates, one front, closed loop at saturation: per-byte layers (nn codec, enclave GCM, core slab, agg absorb) do the work; the stage ledger must explain this run's CPU per update",
		Model: "conv", Fronts: 1, LocalShards: 2, Round: 64, K: 8, Sessions: 64, Load: closedLoop,
	},
	{
		Name:  "mlp_cascade_closed",
		Why:   "0.5KB updates through loadgen's two-front relay+cascade topology, closed loop: per-message layers (hand-off, route, outbox, wire framing, hop re-wrap, locks) do the work, per-byte layers none",
		Model: "mlp", Fronts: 2, Cascade: true, Round: 48, K: 4, Sessions: 96, Load: closedLoop,
	},
	{
		Name:  "conv_http_paced",
		Why:   "42KB updates over real net/http on 127.0.0.1, open loop at a fixed Poisson rate well below capacity: the ack latency and delivery lag participants and the FL coordinator feel, no coordinated omission",
		Model: "conv", HTTP: true, Fronts: 1, LocalShards: 2, Round: 64, K: 8, Sessions: 64, Load: openLoop, RatePerSec: 1500,
	},
	{
		Name:  "burst_overload",
		Why:   "bursts of 64 simultaneous 42KB sends into two fronts with ingress queues of 8 and one worker: overload by construction, so the SDK's reject, failover, backoff and re-wrap path carries the load",
		Model: "conv", QueueDepth: 8, Workers: 1, Fronts: 2, LocalShards: 1, Round: 64, K: 8, Sessions: 128, Load: burstLoop,
		BurstSize: 64, BurstGap: 5 * time.Millisecond,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// modelArch returns the architecture behind a workload's Model name.
func modelArch(model string) nn.Arch {
	if model == "mlp" {
		return nn.NewMLP("bench-mlp", 4, []int{6}, 2)
	}
	return experiment.PerfModels(experiment.ScaleQuick)[0].Arch
}
