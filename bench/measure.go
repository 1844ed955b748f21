package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/stats"
)

var clockBase = time.Now()

// nowNs is the benchmark's monotonic clock.
func nowNs() int64 { return int64(time.Since(clockBase)) }

// observer is the aggregator's side of the conservation books: every
// slot the aggregator absorbs is summed (cmd/loadgen's approach), and
// every round close is timestamped for the delivery-lag metrics.
type observer struct {
	slots atomic.Int64

	mu     sync.Mutex
	closed *sync.Cond // signalled at every round close; guards nothing but the wait
	sum    nn.ParamSet
	closes []int64 // closes[k-1] is when the aggregator closed its k-th round
}

func newObserver() *observer {
	o := &observer{}
	o.closed = sync.NewCond(&o.mu)
	return o
}

func (o *observer) ObserveRound(rec fl.RoundRecord) {
	at := nowNs()
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, u := range rec.Updates {
		if o.sum.NumLayers() == 0 {
			o.sum = u.Clone()
		} else {
			o.sum.Add(u)
		}
	}
	o.closes = append(o.closes, at)
	o.slots.Add(int64(len(rec.Updates)))
	o.closed.Broadcast()
}

// snapshot is the process-wide counters at one end of a timed phase.
type snapshot struct {
	acked      int64
	cpuNs      int64
	gcCPUSec   float64
	mallocs    uint64
	allocBytes uint64
	heapInuse  uint64
}

func takeSnapshot(b *books) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	s := snapshot{
		acked: b.acked.Load(), cpuNs: processCPU(),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, heapInuse: ms.HeapInuse,
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPUSec = gc[0].Value.Float64()
	}
	return s
}

// processCPU is user+system CPU time of this process, in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)
}

// timedPhase runs the load for d, waits until the tier has settled, and
// returns what the phase produced and what it cost between two snapshots
// of the process counters: all the work the phase's updates caused, and
// an idle tier after it.
func timedPhase(ctx context.Context, b *books, d time.Duration) (phase, costs, error) {
	runtime.GC()
	a := takeSnapshot(b)
	ph, err := b.run(ctx, d)
	if err == nil {
		err = b.t.settle(ctx, b.acked.Load())
	}
	z := takeSnapshot(b)
	return ph, phaseCosts(a, z), err
}

// costs are the per-update resource metrics of one phase: each counter's
// delta divided by the updates acked in it.
type costs struct {
	cpuUs, allocs, allocKB float64
	gcShare                float64
	heapMB                 float64
}

func phaseCosts(a, z snapshot) costs {
	c := costs{heapMB: float64(max(a.heapInuse, z.heapInuse)) / (1 << 20)}
	if n := float64(z.acked - a.acked); n > 0 {
		c.cpuUs = float64(z.cpuNs-a.cpuNs) / 1e3 / n
		c.allocs = float64(z.mallocs-a.mallocs) / n
		c.allocKB = float64(z.allocBytes-a.allocBytes) / 1024 / n
	}
	if d := float64(z.cpuNs - a.cpuNs); d > 0 {
		c.gcShare = (z.gcCPUSec - a.gcCPUSec) * 1e9 / d
	}
	return c
}

// absorbLags is, for every aggregator round whose count the acks
// completed inside the phase, how far its close lagged that ack, in ms.
// The tier has settled, so every such round has closed.
func absorbLags(b *books, ph phase) []float64 {
	o := b.t.obs
	o.mu.Lock()
	closes := append([]int64(nil), o.closes...)
	o.mu.Unlock()
	var lagMs []float64
	for k, at := range closes {
		// closes[k] is the (k+1)-th round: it waited for ack number
		// (k+1)*aggRound.
		if k+1 >= len(b.ackAt) {
			break
		}
		if acked := b.ackAt[k+1].Load(); acked >= ph.start && acked <= ph.end {
			lagMs = append(lagMs, float64(at-acked)/1e6)
		}
	}
	return lagMs
}

// sendPercentile is the p-th percentile of a phase's send latencies, µs.
func sendPercentile(ph phase, p float64) float64 {
	xs := make([]float64, len(ph.sends))
	for i, s := range ph.sends {
		xs[i] = float64(s.dur) / 1e3
	}
	return stats.Percentile(xs, p)
}

// gate is the correctness check every run ends with: the books must
// close. It returns the reasons they do not.
func gate(ctx context.Context, b *books) []string {
	var bad []string
	t := b.t
	if err := b.topOff(ctx); err != nil {
		bad = append(bad, err.Error())
	}
	acked := b.acked.Load()
	if err := t.settle(ctx, acked); err != nil {
		bad = append(bad, err.Error())
	}
	if f := b.failed.Load(); f != 0 {
		bad = append(bad, b.err().Error())
	}
	want, n := b.expectedSum()
	t.obs.mu.Lock()
	got, slots := t.obs.sum, t.obs.slots.Load()
	t.obs.mu.Unlock()
	switch {
	case n != acked:
		bad = append(bad, fmt.Sprintf("generator books disagree: %d acked, %d in the pool counts", acked, n))
	case slots != acked:
		bad = append(bad, fmt.Sprintf("aggregator absorbed %d slots, %d updates were acked", slots, acked))
	case slots == 0:
		bad = append(bad, "nothing was absorbed")
	case !want.Scale(1/float64(n)).ApproxEqual(got.Clone().Scale(1/float64(slots)), 1e-9):
		bad = append(bad, fmt.Sprintf("layer-wise mean of %d absorbed slots differs from the mean of the acked updates", slots))
	}
	for i, p := range t.proxies() {
		if q := p.Status().OutboxQuarantined; q != 0 {
			bad = append(bad, fmt.Sprintf("proxy %d quarantined %d outbox entries", i, q))
		}
	}
	return bad
}

// goroutinesSettle waits for the goroutine count to return to base
// after a tier was closed and reports how many stayed behind.
func goroutinesSettle(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		extra := runtime.NumGoroutine() - base
		if extra <= 0 || time.Now().After(deadline) {
			return max(extra, 0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
