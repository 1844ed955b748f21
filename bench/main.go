// Command bench is the repository's benchmark: four workloads driven
// through the real SDK, transports, proxies and aggregator in one
// process, every layer measured from outside. See README.md.
//
//	bench -workload conv_closed -seed 7 -seconds 20 -trace 0   one run, result as the last line
//	bench                                                     every workload, untraced then traced
//	bench -ledger                                             the stage ledger alone
//	bench compare A.jsonl B.jsonl                             two sets of runs against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"mixnn/internal/stats"
	"mixnn/internal/wire"
)

// An untraced run measures tiers tier instances one after the other,
// each for slices timed slices, and reports the median over all slices.
// Set-up is part of each instance.
const (
	tiers  = 5
	slices = 4
)

// env is the environment and provenance block recorded with every
// result: a number without it cannot be compared with anything.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

func readEnv(root string) env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: "unknown",
	}
	// The driver's checkout is not a git repository; there the commit
	// stays unknown.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		st, _ := exec.Command("git", "-C", root, "status", "--porcelain").Output()
		e.Dirty = len(st) > 0
	}
	return e
}

// record is one run as written to the -out file; compare reads these.
type record struct {
	Env        env                    `json:"env"`
	Host       hostSpeed              `json:"host"` // the run's median reference-kernel reading
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	ModelBytes int                    `json:"model_bytes"`
	Updates    int64                  `json:"updates"` // acked in the timed phase(s)
	Samples    map[string]int         `json:"samples"`
	Problems   []string               `json:"problems,omitempty"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "run this one workload and print the result as the last line (default: all workloads, untraced then traced)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs; check a claim on a seed not used while developing it")
		seconds = flag.Float64("seconds", 20, "how long one run measures")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics and stage ledger; 0: untraced run, end-to-end metrics")
		ledger  = flag.Bool("ledger", false, "run the stage ledger alone, for both models")
		out     = flag.String("out", "", "append one JSON record per run to this file")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	e := readEnv(root)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s %s commit=%s dirty=%v seed=%d seconds=%g\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.OSArch, e.Commit, e.Dirty, *seed, *seconds)

	switch {
	case *ledger:
		for _, wl := range []string{"conv_closed", "mlp_cascade_closed"} {
			w, _ := findWorkload(wl)
			vals, err := runLedger(w, genInputs(w, *seed, 0), time.Duration(*seconds*float64(time.Second)), 0, 0)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("--- stage ledger, %s model ---\n", w.Model)
			for _, k := range sortedKeys(vals) {
				fmt.Printf("  %-36s %14.4f\n", k, vals[k])
			}
		}
	case *name != "":
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		rec := runAndReport(root, e, w, *seed, *seconds, tiers, *trace == 1, *out)
		line, err := json.Marshal(resultLine{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !rec.Correct {
			os.Exit(1)
		}
	default:
		if *out == "" {
			*out = filepath.Join(root, "bench", "out", "results.jsonl")
		}
		ok := true
		for i := range workloads {
			for _, traced := range []bool{false, true} {
				rec := runAndReport(root, e, &workloads[i], *seed, *seconds, tiers, traced, *out)
				ok = ok && rec.Correct
			}
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runAndReport runs one workload once, prints its table and appends its
// record to out. A run whose books do not close is reported, not hidden.
func runAndReport(root string, e env, w *workload, seed int64, seconds float64, reps int, traced bool, out string) record {
	rec := record{Env: e, Workload: w.Name, Seed: seed, Seconds: seconds, Trace: traced, Samples: map[string]int{}}
	in := genInputs(w, seed, seconds)
	rec.ModelBytes = in.updateBytes
	defs, title := endToEnd, "end to end, tracing off"
	var vals map[string]float64
	var err error
	if traced {
		defs, title = perLayer, "per layer, traced run and stage ledger"
		vals, err = tracedRun(root, w, in, seed, seconds, &rec)
	} else {
		vals, err = untracedRun(w, in, seed, seconds, reps, &rec)
	}
	if err != nil {
		rec.Problems = append(rec.Problems, err.Error())
	}
	if vals != nil {
		if rec.Metrics, err = withUnits(defs, vals); err != nil {
			rec.Problems = append(rec.Problems, err.Error())
		}
	}
	if rec.Attempted == 0 {
		rec.Attempted = 1 // the run itself was attempted and failed
		rec.Failed = 1
	}
	rec.Correct = len(rec.Problems) == 0
	fmt.Printf("=== %s (%s model, %d bytes/update): %s ===\n", w.Name, w.Model, rec.ModelBytes, w.Why)
	if rec.Metrics != nil {
		printTable(title, defs, rec.Metrics)
	}
	fmt.Printf("  updates=%d attempted=%d failed=%d samples=%v\n", rec.Updates, rec.Attempted, rec.Failed, rec.Samples)
	for _, p := range rec.Problems {
		fmt.Printf("  INCORRECT: %s\n", p)
	}
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench: write record:", err)
		}
	}
	return rec
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setUp deploys the workload's tier and warms it up, returning how long
// both took without the RSA key generation inside enclave.New. Drawing a
// 2048-bit key takes 30 to 300ms from one draw to the next, several
// times everything else in set-up: left in, it is all set-up time would
// show, and work a change moves into set-up would not.
func setUp(ctx context.Context, w *workload, in *inputs, seed int64, tr *tracer) (*books, float64, error) {
	t0 := time.Now()
	t, err := deploy(ctx, w, seed, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("deploy: %w", err)
	}
	b := openBooks(t, in)
	if err := b.warmUp(ctx); err != nil {
		t.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return b, (time.Since(t0) - t.keygen).Seconds(), nil
}

// tearDown closes the tier and reports goroutines it left running.
func tearDown(b *books, base int, rec *record) {
	b.t.close()
	if left := goroutinesSettle(base); left > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d goroutines still running after Close", left))
	}
}

// closeBooks runs the correctness gate on one tier and adds its sends
// to the record.
func closeBooks(ctx context.Context, b *books, rec *record) {
	rec.Problems = append(rec.Problems, gate(ctx, b)...)
	rec.Attempted += b.attempted.Load()
	rec.Failed += b.failed.Load()
	if lost := b.acked.Load() - b.t.obs.slots.Load(); lost > 0 {
		rec.Failed += lost // acked but never absorbed
	}
}

// untracedRun is the run the end-to-end metrics come from: no
// decorators anywhere. The run is cut into tier instances, each a
// complete life of a freshly deployed tier — set up, warmed up, loaded
// for its slices, books closed, torn down. A tier instance is faster or
// slower than the next by several percent for as long as it lives (where
// its buffers landed, which goroutines share a core), so a run measures
// several.
//
// Every slice, and every set-up, sits between two readings of the
// reference kernel taken while the tier is idle, and is stated at the
// reference box's quiet speed (reference.go): what the host's neighbours
// do to a run is measured and taken out slice by slice. A rate is
// multiplied by the wall-clock reading (it follows how many cores the
// host really gives), a time divided by the CPU-clock reading (it
// follows how fast a core runs). Every metric is the median over all
// slices of all instances.
func untracedRun(w *workload, in *inputs, seed int64, seconds float64, reps int, rec *record) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+2*time.Minute)
	defer cancel()
	base := runtime.NumGoroutine()
	d := time.Duration(seconds * float64(time.Second) / float64(reps*slices))
	per := map[string][]float64{}
	var lagMs []float64
	condition(seconds)
	ref, err := newReference(runtime.GOMAXPROCS(0), in.updateBytes)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	last := ref.read()
	for i := 0; i < reps; i++ {
		b, setup, err := setUp(ctx, w, in, seed+int64(i), nil)
		if err != nil {
			return nil, err
		}
		ready := ref.read()
		per["setup_s"] = append(per["setup_s"], setup/speedBetween(last, ready).CPU)
		last = ready
		for j := 0; j < slices && err == nil; j++ {
			var ph phase
			var c costs
			if ph, c, err = timedPhase(ctx, b, d); err != nil {
				break
			}
			idle := ref.read()
			host := speedBetween(last, idle)
			last = idle
			// The part of a slice the generator paced by its own clock is
			// the same on any host; the rest is the tier working on every
			// core.
			working := float64(ph.end - ph.start - ph.paced)
			rate := float64(len(ph.sends)) / ((working/host.Wall + float64(ph.paced)) / 1e9)
			for name, v := range map[string]float64{
				"updates_per_s": rate, "cpu_us_per_update": c.cpuUs / host.CPU,
				"allocs_per_update": c.allocs, "alloc_kb_per_update": c.allocKB,
				"send_p50_us": sendPercentile(ph, 50) / host.CPU,
				"host_wall":   host.Wall, "host_cpu": host.CPU,
			} {
				per[name] = append(per[name], v)
			}
			// A slice of the paced workload closes too few aggregator
			// rounds for a percentile of its own; the lags are pooled.
			for _, l := range absorbLags(b, ph) {
				lagMs = append(lagMs, l/host.CPU)
			}
			rec.Updates += int64(len(ph.sends))
			rec.Samples["sends"] += len(ph.sends)
		}
		closeBooks(ctx, b, rec)
		tearDown(b, base, rec)
		if err != nil {
			return nil, err
		}
	}
	vals := map[string]float64{
		"absorb_lag_p50_ms": stats.Percentile(lagMs, 50),
		"absorb_lag_p95_ms": stats.Percentile(lagMs, 95),
	}
	for _, name := range sortedKeys(per) {
		fmt.Printf("  %s, each sample: %.5g\n", name, per[name])
		if !strings.HasPrefix(name, "host_") {
			vals[name] = median(per[name])
		}
	}
	rec.Host = hostSpeed{median(per["host_wall"]), median(per["host_cpu"])}
	rec.Samples["agg_rounds"] = len(lagMs)
	rec.Samples["tiers"] = reps
	rec.Samples["slices"] = len(per["host_wall"])
	return vals, nil
}

// condition keeps every core busy before a run's first tier is deployed,
// for 15% of the run's length (3s of a 20s run). On the reference box (a
// KVM guest) how fast an idle core wakes depends on how busy the guest
// was over the last tens of seconds: the same burst_overload run reads
// send_p95_us 6ms after a busy run and 11ms after an idle minute. Three
// busy seconds put every run at the same starting point whatever ran
// before it.
func condition(seconds float64) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(0.15 * seconds * float64(time.Second)))
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
			for time.Now().Before(deadline) {
				copy(dst, src)
			}
		}()
	}
	wg.Wait()
}

// laneWatch polls the fronts' outbox lanes while a traced phase runs
// and keeps the deepest backlog it saw.
func laneWatch(t *tier, stop <-chan struct{}, peak *int) {
	for {
		select {
		case <-stop:
			return
		case <-time.After(10 * time.Millisecond):
		}
		for _, f := range t.fronts {
			for _, l := range f.Status().OutboxLanes {
				*peak = max(*peak, l.Pending)
			}
		}
	}
}

// counters are the tier's own counters, read where the spans are.
type counters struct {
	front0          wire.ShardedProxyStatus
	refused         uint64
	busy            uint64
	queuePeak       int
	acked, absorbed int64
}

func readCounters(b *books) counters {
	t := b.t
	c := counters{front0: t.fronts[0].Status(), acked: b.acked.Load(), absorbed: t.obs.slots.Load()}
	for _, f := range t.fronts {
		st := f.Status()
		c.refused += st.AdmissionRateLimited + st.AdmissionShed
	}
	if t.lb != nil {
		for _, s := range t.lb.Stats() {
			c.busy += s.Busy
			c.queuePeak = max(c.queuePeak, s.Peak)
		}
	}
	return c
}

// meanOver recovers the mean of a Status() running mean over the
// interval between two readings, given the sample counts behind each.
func meanOver(m0 float64, n0 int, m1 float64, n1 int) float64 {
	if n1 <= n0 {
		return 0
	}
	return (m1*float64(n1) - m0*float64(n0)) / float64(n1-n0)
}

// tracedRun is the run the per-layer metrics come from: one decorated
// deployment, 40% of the time with recording off (the base the tracing
// overhead is set against), 40% with it on, and the stage ledger in the
// remaining 20%.
func tracedRun(root string, w *workload, in *inputs, seed int64, seconds float64, rec *record) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+2*time.Minute)
	defer cancel()
	base := runtime.NumGoroutine()
	tr := &tracer{}
	condition(seconds)
	ref, err := newReference(runtime.GOMAXPROCS(0), in.updateBytes)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	b, _, err := setUp(ctx, w, in, seed, tr)
	if err != nil {
		return nil, err
	}
	d := time.Duration(0.4 * seconds * float64(time.Second))

	// The two phases are set against each other, so each is read at the
	// host speed it ran at, as the untraced run's slices are.
	r0 := ref.read()
	_, plain, err := timedPhase(ctx, b, d)
	if err != nil {
		tearDown(b, base, rec)
		return nil, err
	}
	r1 := ref.read()

	c0 := readCounters(b)
	lanePeak, stop, watched := 0, make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		laneWatch(b.t, stop, &lanePeak)
	}()
	tr.on.Store(true)
	b.root = tr.root
	ph, traced, err := timedPhase(ctx, b, d)
	b.root = nil
	tr.on.Store(false)
	close(stop)
	<-watched
	c1 := readCounters(b)
	r2 := ref.read()
	rec.Updates = c1.acked - c0.acked
	closeBooks(ctx, b, rec)
	tearDown(b, base, rec)
	if err != nil {
		return nil, err
	}

	acked := float64(max(c1.acked-c0.acked, 1))
	vals := tr.analyze(c1.acked-c0.acked, c1.absorbed-c0.absorbed)
	s0, s1 := c0.front0, c1.front0
	vals["gate.fail_share"] = float64(rec.Failed) / float64(max(rec.Attempted, 1))
	vals["transport.busy_per_ack"] = float64(c1.busy-c0.busy) / acked
	vals["transport.queue_peak"] = float64(c1.queuePeak)
	vals["proxy.decrypt_us_mean"] = meanOver(s0.DecryptMicros, s0.Received, s1.DecryptMicros, s1.Received)
	vals["proxy.store_us_mean"] = 1e3 * meanOver(s0.StoreMillis, s0.Received, s1.StoreMillis, s1.Received)
	vals["proxy.mix_us_mean"] = 1e3 * meanOver(s0.MixMillis, s0.Received, s1.MixMillis, s1.Received)
	vals["proxy.process_us_mean"] = 1e3 * meanOver(s0.ProcessMillis, s0.Received, s1.ProcessMillis, s1.Received)
	vals["proxy.enclave_peak_kb"] = float64(s1.EnclavePeak) / 1024
	vals["proxy.enclave_page_events"] = float64(s1.EnclavePaging)
	vals["proxy.session_miss_share"] = 0
	if looked := float64(s1.SessionHits-s0.SessionHits) + float64(s1.SessionMisses-s0.SessionMisses); looked > 0 {
		vals["proxy.session_miss_share"] = float64(s1.SessionMisses-s0.SessionMisses) / looked
	}
	vals["outbox.lane_peak"] = float64(lanePeak)
	vals["health.refused_per_ack"] = float64(c1.refused-c0.refused) / acked
	vals["gen.late_us_p95"], vals["gen.offered_per_s"] = 0, 0
	if w.Load == openLoop {
		late := make(dist, len(ph.late))
		for i, ns := range ph.late {
			late[i] = us(ns)
		}
		vals["gen.late_us_p95"] = late.p(95)
		vals["gen.offered_per_s"] = float64(ph.offered) / d.Seconds()
	}
	vals["proc.peak_heap_mb"] = max(plain.heapMB, traced.heapMB)
	vals["proc.gc_cpu_share"] = plain.gcShare
	hostPlain, hostTraced := speedBetween(r0, r1), speedBetween(r1, r2)
	rec.Host = hostSpeed{(hostPlain.Wall + hostTraced.Wall) / 2, (hostPlain.CPU + hostTraced.CPU) / 2}
	vals["host.speed_wall"], vals["host.speed_cpu"] = rec.Host.Wall, rec.Host.CPU
	vals["trace.overhead_share"] = 0
	if plain.cpuUs > 0 {
		vals["trace.overhead_share"] = (traced.cpuUs/hostTraced.CPU)/(plain.cpuUs/hostPlain.CPU) - 1
	}
	rec.Samples["roots"] = len(ph.sends)

	led, err := runLedger(w, in, time.Duration(0.2*seconds*float64(time.Second)), plain.cpuUs, plain.allocs)
	if err != nil {
		return nil, err
	}
	for k, v := range led {
		vals[k] = v
	}
	if left := goroutinesSettle(base); left > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d goroutines still running after the ledger", left))
	}

	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.dump(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}
	return vals, nil
}
