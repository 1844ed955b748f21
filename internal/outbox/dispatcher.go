package outbox

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"
)

// DeliverFunc attempts delivery of one opened entry. Returning nil
// acknowledges (consumes) the entry. A PermanentError quarantines it —
// the downstream rejected the entry and retrying cannot help. Any other
// error is transient: the entry stays at its lane's head, Memo and all,
// and is retried with backoff.
type DeliverFunc func(ctx context.Context, e *Entry) error

// PermanentError marks a delivery failure retrying cannot fix (e.g. the
// downstream returned 4xx). The dispatcher quarantines the entry instead
// of retrying it forever.
type PermanentError struct{ Err error }

func (e *PermanentError) Error() string { return fmt.Sprintf("outbox: permanent: %v", e.Err) }
func (e *PermanentError) Unwrap() error { return e.Err }

// Permanent wraps err as a PermanentError.
func Permanent(err error) error { return &PermanentError{Err: err} }

// Default bounds for the dispatcher's knobs when the caller does not
// override them.
const (
	DefaultRetryBase = 50 * time.Millisecond
	DefaultRetryMax  = 5 * time.Second
	DefaultWorkers   = 4
	// DefaultAttemptTimeout bounds one delivery attempt. A RetryMax above
	// it raises the bound to RetryMax: an attempt ceiling shorter than the
	// backoff ceiling would cancel slow-but-succeeding sends only to wait
	// even longer before retrying them.
	DefaultAttemptTimeout = 60 * time.Second
)

// Options configures a Dispatcher. Zero values take the defaults above.
type Options struct {
	// RetryBase is a lane's first retry delay after a transient failure;
	// RetryMax is its backoff ceiling (doubling in between, jittered).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Workers bounds how many lanes deliver concurrently. One lane is
	// only ever drained by one worker at a time, so per-lane ordering
	// holds for any worker count.
	Workers int
}

// LaneStat is a point-in-time snapshot of one lane, for status surfaces.
type LaneStat struct {
	// Lane is the envelope destination ("" = the tier's downstream).
	Lane      string
	Pending   int           // entries awaiting delivery
	InFlight  bool          // a worker is draining the lane right now
	Backoff   time.Duration // current retry delay (0 when healthy)
	NextRetry time.Duration // time until the next gated attempt (0 = none)
	Delivered uint64        // entries acknowledged since the queue opened
	Failures  uint64        // transient failures since the queue opened
}

// Dispatcher drains a Queue through a DeliverFunc using a pool of
// workers, one independent delivery lane per envelope destination. It is
// the background half of the delivery pipeline: ingress commits rounds to
// the queue and returns immediately; the dispatcher owns every retry.
// Each lane keeps its own jittered exponential backoff, so a dead peer's
// lane parks itself between retries while every other lane keeps
// delivering — a partial failure degrades one destination, not the tier.
//
// The dispatcher keeps no book of its own: each lane's busy flag, backoff
// and counters live in the queue's lane table, under the queue's mutex.
type Dispatcher struct {
	q              *Queue
	deliver        DeliverFunc
	base           time.Duration // first retry delay
	max            time.Duration // backoff ceiling
	workers        int
	attemptTimeout time.Duration

	// ctx is the dispatcher's lifetime: every delivery attempt derives
	// its per-attempt timeout from it, so Close can abort an attempt
	// still hung after closeGrace instead of waiting out the full
	// attempt timeout against a dead peer.
	ctx    context.Context
	cancel context.CancelFunc

	wake    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	jobs    chan string
	results chan laneResult
	wg      sync.WaitGroup

	started, closed sync.Once
}

// laneResult is a worker's report after releasing a lane. Deliveries
// are not carried here: each ack counts itself on the lane as it
// happens, so status snapshots stay live mid-drain.
type laneResult struct {
	lane   string
	failed bool // pass ended on a transient failure (back the lane off)
}

// NewDispatcher builds a dispatcher over q. Call Start to begin draining.
func NewDispatcher(q *Queue, deliver DeliverFunc, opts Options) *Dispatcher {
	base, ceiling := opts.RetryBase, opts.RetryMax
	if base <= 0 {
		base = DefaultRetryBase
	}
	if ceiling <= 0 {
		ceiling = DefaultRetryMax
	}
	if ceiling < base {
		ceiling = base
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Dispatcher{
		q: q, deliver: deliver, base: base, max: ceiling,
		workers: workers, attemptTimeout: max(DefaultAttemptTimeout, ceiling),
		ctx: ctx, cancel: cancel,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		jobs:    make(chan string, workers),
		results: make(chan laneResult, workers),
	}
}

// Start launches the coordinator and the worker pool.
func (d *Dispatcher) Start() {
	d.started.Do(func() {
		for i := 0; i < d.workers; i++ {
			d.wg.Add(1)
			go d.worker()
		}
		go d.loop()
	})
}

// Wake nudges the dispatcher after a Put (or after new routing state,
// e.g. a remote key registration, may have unblocked a stalled lane):
// every lane's backoff gate is lifted so the fresh state is tried
// immediately instead of at the next backoff tick.
func (d *Dispatcher) Wake() {
	d.q.mu.Lock()
	for _, l := range d.q.lanes {
		l.notBefore = time.Time{}
	}
	d.q.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// closeGrace is how long Close lets an in-flight delivery attempt run
// before cancelling it. The two failure modes it balances: an attempt
// that already reached its peer but has not yet recorded progress must
// be allowed to finish — cancelling it loses the ack and the entry
// redelivers (double-counting at receivers without dedup) after a
// restart; an attempt hung on a dead peer must NOT hold shutdown for
// the full attempt timeout. A real in-flight response completes in
// milliseconds; only a blackholed connection is still going after a
// second, and aborting that one is safe (nothing was acked).
const closeGrace = time.Second

// Close stops the coordinator and workers and waits for them to
// return. In-flight delivery attempts get closeGrace to complete
// cleanly; attempts still running after that are cancelled via the
// dispatcher-lifetime context every attempt derives from. Queued
// entries stay queued (on disk for a durable queue) for the next
// process; a cancelled attempt's entry was never acked, so it
// redelivers.
func (d *Dispatcher) Close() {
	d.closed.Do(func() {
		// A never-started dispatcher has no coordinator to close done,
		// and must not start one later.
		d.started.Do(func() { close(d.done) })
		close(d.stop)
	})
	<-d.done
	d.joinWorkers()
}

// joinWorkers waits for the worker pool: a grace period first, so an
// attempt that is mid-response can finish and record its progress,
// then the lifetime context is cancelled to abort attempts that are
// actually hung.
func (d *Dispatcher) joinWorkers() {
	defer d.cancel() // release the lifetime context either way
	workersDone := make(chan struct{})
	go func() { d.wg.Wait(); close(workersDone) }()
	select {
	case <-workersDone:
		return
	case <-time.After(closeGrace):
	}
	d.cancel()
	<-workersDone
}

// Flush blocks until the queue is empty and no delivery is in flight, or
// ctx expires. It is the test/shutdown helper for "everything the tier
// drained has reached the downstream".
func (d *Dispatcher) Flush(ctx context.Context) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		d.q.mu.Lock()
		idle := d.q.inFlight == 0 && len(d.q.bySeq) == 0
		d.q.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("outbox: flush: %d entries still pending: %w", d.q.Len(), ctx.Err())
		case <-tick.C:
		}
	}
}

// Backlog reports the delivery backlog as two cheap scalars: total
// pending entries across all lanes and the deepest single lane. It is
// the admission gate's signal accessor — called on the ingress hot path
// at snapshot cadence, so it skips LaneStats' per-lane time math and
// assembly.
func (d *Dispatcher) Backlog() (pending, maxLane int) {
	d.q.mu.Lock()
	defer d.q.mu.Unlock()
	for _, name := range d.q.active {
		maxLane = max(maxLane, len(d.q.lanes[name].seqs))
	}
	return len(d.q.bySeq), maxLane
}

// LaneStats snapshots every lane in the queue's table, sorted — lanes
// with pending entries and lanes that delivered or failed before — in
// one critical section, the one an ack counts and removes its entry in:
// the depths sum to the queue's total at that instant, and an entry is
// Pending or Delivered, never both and never neither.
func (d *Dispatcher) LaneStats() []LaneStat {
	now := time.Now()
	d.q.mu.Lock()
	out := make([]LaneStat, 0, len(d.q.lanes))
	for _, l := range d.q.lanes {
		stat := LaneStat{
			Lane: l.name, Pending: len(l.seqs), InFlight: l.busy,
			Backoff: l.backoff, Delivered: l.delivered, Failures: l.failures,
		}
		if wait := l.notBefore.Sub(now); wait > 0 {
			stat.NextRetry = wait
		}
		out = append(out, stat)
	}
	d.q.mu.Unlock()
	slices.SortFunc(out, func(a, b LaneStat) int { return strings.Compare(a.Lane, b.Lane) })
	return out
}

// loop is the coordinator: it hands eligible lanes to workers, applies
// each worker's verdict to the lane's backoff state, and sleeps until the
// earliest gated retry (or a wake) when nothing is runnable.
func (d *Dispatcher) loop() {
	defer close(d.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var ready []string // lanes handed out in one pass
	for {
		now := time.Now()
		var nextGate time.Time
		ready = ready[:0]
		d.q.mu.Lock()
		for _, name := range d.q.active {
			if d.q.inFlight >= d.workers {
				break
			}
			l := d.q.lanes[name]
			if l.busy {
				continue
			}
			if now.Before(l.notBefore) {
				if nextGate.IsZero() || l.notBefore.Before(nextGate) {
					nextGate = l.notBefore
				}
				continue
			}
			l.busy = true
			d.q.inFlight++
			ready = append(ready, name)
		}
		d.q.mu.Unlock()
		// Sent after the unlock, so a worker woken by its job does not
		// find the queue mutex still held. Never blocks: jobs is buffered
		// to the worker count and inFlight ≤ workers guarantees a slot.
		for _, name := range ready {
			d.jobs <- name
		}

		var timerC <-chan time.Time
		if !nextGate.IsZero() {
			timer.Reset(time.Until(nextGate))
			timerC = timer.C
		}
		select {
		case <-d.stop:
			return
		case <-d.wake:
		case res := <-d.results:
			d.settle(res)
		case <-timerC:
			timerC = nil
		}
		if timerC != nil && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// settle applies a worker's report to the lane's retry state.
func (d *Dispatcher) settle(res laneResult) {
	d.q.mu.Lock()
	defer d.q.mu.Unlock()
	l := d.q.lanes[res.lane]
	l.busy = false
	d.q.inFlight--
	if !res.failed {
		l.backoff = 0
		l.notBefore = time.Time{}
		return
	}
	l.failures++
	if l.backoff <= 0 {
		l.backoff = d.base
	} else {
		l.backoff = min(2*l.backoff, d.max)
	}
	l.notBefore = time.Now().Add(jitter(l.backoff))
}

// jitter spreads a retry delay over [backoff/2, backoff]. The doubling
// schedule itself stays deterministic; the jitter decorrelates the
// proxies of a tier so a recovered downstream is not hit by every proxy's
// retry in lockstep (each proxy failed at the same moment the downstream
// went away, so un-jittered deterministic backoff synchronises the herd).
func jitter(backoff time.Duration) time.Duration {
	half := backoff / 2
	if half <= 0 {
		return backoff
	}
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// worker takes lane assignments from the coordinator, drains each as far
// as it will go, and reports the outcome.
func (d *Dispatcher) worker() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stop:
			return
		case lane := <-d.jobs:
			res := d.drainLane(lane)
			select {
			case d.results <- res:
			case <-d.stop:
				return
			}
		}
	}
}

// drainLane delivers a lane's entries head-first until the lane is empty,
// a transient failure parks it, or the dispatcher stops. Permanent
// rejections quarantine the entry and the drain continues — one poisoned
// round must not park the lane behind it.
func (d *Dispatcher) drainLane(lane string) laneResult {
	res := laneResult{lane: lane}
	for {
		select {
		case <-d.stop:
			return res
		default:
		}
		e := d.q.head(lane)
		if e == nil {
			return res
		}
		// Derive the attempt from the dispatcher's lifetime, not
		// context.Background(): Close cancels d.ctx, so shutdown aborts a
		// hung attempt instead of waiting out attemptTimeout.
		ctx, cancel := context.WithTimeout(d.ctx, d.attemptTimeout)
		err := d.deliver(ctx, e)
		cancel()
		var perm *PermanentError
		switch {
		case err == nil:
			if err := d.q.Ack(e.Seq); err != nil {
				// The entry left the lane but not the store. A directory
				// entry that could not be removed is redelivered after a
				// restart, the receiver refuses it as a stale duplicate,
				// and it ends up a .bad file Open warns about: this line
				// is the explanation.
				log.Printf("outbox: lane %q entry %d delivered but not consumed: %v", lane, e.Seq, err)
			}
		case errors.As(err, &perm):
			// Quarantining loses the entry from the delivery path; that
			// must never be silent.
			log.Printf("outbox: entry %d quarantined: %v", e.Seq, err)
			d.q.Quarantine(e.Seq, err)
		default:
			res.failed = true
			return res
		}
	}
}
