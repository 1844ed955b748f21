// Command loadgen hosts a whole MixNN deployment — two sharded front
// proxies, two relay shards, a cascade hop and the aggregation server —
// over the in-process bounded-queue Loopback transport, and drives tens
// of thousands of concurrent participant SDK sessions through a
// scripted churn sequence: calm waves, a sync_peers directive, a dead
// relay peer, stragglers and session replacement, a cascade reshard
// under load, and a mid-wave front failover storm. The run fails unless
// every acked update is accounted for at the aggregation server with
// layer-wise means agreeing at 1e-9 (zero loss, zero duplication).
//
// Usage:
//
//	loadgen                                  # full scale: 10k participants
//	loadgen -participants 120 -round 24 -waves 3   # CI smoke scale
//	loadgen -out loadgen.json                # write this run's metrics snapshot
//	loadgen -cpuprofile cpu.pb.gz -memprofile mem.pb.gz   # profile the run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mixnn/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		participants = fs.Int("participants", 10080, "concurrent participant sessions (multiple of -round)")
		round        = fs.Int("round", 504, "front tier round size C (divisible by 3)")
		k            = fs.Int("k", 4, "per-shard stream-mixer list capacity")
		waves        = fs.Int("waves", 5, "send waves (>= 3: calm, churn, failover)")
		queueDepth   = fs.Int("queue-depth", 1024, "bounded ingress queue depth per Loopback peer (0 = default)")
		workers      = fs.Int("workers", 0, "ingress workers per Loopback peer (0 = GOMAXPROCS)")
		straggler    = fs.Float64("straggler", 0.05, "fraction of participants per churn wave that delay their send")
		disconnect   = fs.Float64("disconnect", 0.02, "fraction of sessions per churn wave replaced mid-run")
		seed         = fs.Int64("seed", 1, "base random seed")
		timeout      = fs.Duration("timeout", 10*time.Minute, "whole-run deadline")
		out          = fs.String("out", "", "write the LoadgenResult JSON here (e.g. loadgen.json)")
		metricsOut   = fs.String("metrics-out", "", "write the tier's Prometheus text exposition here after the run (validated before writing)")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of the run here (go tool pprof)")
		memProfile   = fs.String("memprofile", "", "write an allocation profile here when the run ends (go tool pprof -sample_index=alloc_space)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: cpuprofile:", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeAllocProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: memprofile:", err)
			}
		}()
	}

	res, err := experiment.RunLoadgen(experiment.LoadgenConfig{
		Participants: *participants, FrontRound: *round, K: *k, Waves: *waves,
		QueueDepth: *queueDepth, Workers: *workers,
		StragglerFrac: *straggler, DisconnectFrac: *disconnect,
		Seed: *seed, Timeout: *timeout,
		MetricsOut: *metricsOut,
	})
	if err != nil {
		return err
	}

	fmt.Printf("loadgen: %d participants x %d waves = %d updates (%d fillers) in %d agg rounds of %d, %.1fms\n",
		res.Participants, res.Waves, res.TotalUpdates, res.Fillers, res.AggRounds, res.Quota, res.DurationMillis)
	fmt.Printf("  backpressure peak queue %d, %d busy rejections, %d send retries\n", res.PeakIngressQueue, res.BusyRejections, res.SendRetries)
	fmt.Printf("  churn        %d sessions replaced, %d stragglers, peak outbox lane %d\n", res.Replaced, res.Stragglers, res.PeakLaneDepth)
	fmt.Printf("  admission    %d overload sends, %d rate-limited 429s, %d shed\n", res.OverloadSends, res.RateLimited429, res.AdmissionShed)
	fmt.Printf("  conservation %v (every acked update accounted for at 1e-9)\n", res.ConservationOK)

	if *metricsOut != "" {
		fmt.Printf("loadgen: wrote %s\n", *metricsOut)
	}
	if *out != "" {
		enc, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("loadgen: wrote %s\n", *out)
	}
	return nil
}

// writeAllocProfile dumps the allocation profile since process start
// (every sample, not only what is still live) to path.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // fold the last cycle's allocations into the profile
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
