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
	// Workers bounds how many lanes deliver at once: a lane holds one of
	// Workers slots for each drain pass. A lane is only ever drained by
	// its own goroutine, so per-lane ordering holds for any count.
	Workers int
}

// LaneStat is a point-in-time snapshot of one lane, for status surfaces.
type LaneStat struct {
	// Lane is the envelope destination ("" = the tier's downstream).
	Lane      string
	Pending   int           // entries awaiting delivery
	InFlight  bool          // the lane holds a delivery slot right now
	Backoff   time.Duration // current retry delay (0 when healthy)
	NextRetry time.Duration // time until the next gated attempt (0 = none)
	Delivered uint64        // entries acknowledged since the queue opened
	Failures  uint64        // transient failures since the queue opened
}

// Dispatcher drains a Queue through a DeliverFunc, one goroutine per
// delivery lane (envelope destination), at most Workers of them
// delivering at once. It is the background half of the delivery
// pipeline: ingress commits rounds to the queue and returns immediately;
// the dispatcher owns every retry. Each lane keeps its own jittered
// exponential backoff, so a dead peer's lane parks itself between retries
// while every other lane keeps delivering — a partial failure degrades
// one destination, not the tier.
//
// The dispatcher keeps no book of its own: each lane's goroutine flag,
// wake signal, slot, backoff and counters live in the queue's lane
// table, under the queue's mutex.
type Dispatcher struct {
	q              *Queue
	deliver        DeliverFunc
	base           time.Duration // first retry delay
	max            time.Duration // backoff ceiling
	attemptTimeout time.Duration

	// ctx is the dispatcher's lifetime: every delivery attempt derives
	// its per-attempt timeout from it, so Close can abort an attempt
	// still hung after closeGrace instead of waiting out the full
	// attempt timeout against a dead peer.
	ctx    context.Context
	cancel context.CancelFunc

	// slots holds a token per lane in a drain pass: Workers of them.
	slots chan struct{}
	stop  chan struct{} // closed by Close: every lane goroutine returns
	wg    sync.WaitGroup

	// started and stopped are guarded by q.mu: lane goroutines start
	// only in between, so none is added once Close waits for them.
	started, stopped bool
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
		q: q, deliver: deliver, base: base, max: ceiling, ctx: ctx, cancel: cancel,
		attemptTimeout: max(DefaultAttemptTimeout, ceiling),
		slots:          make(chan struct{}, workers),
		stop:           make(chan struct{}),
	}
}

// Start begins draining: every lane holding entries gets its goroutine.
func (d *Dispatcher) Start() {
	d.q.mu.Lock()
	defer d.q.mu.Unlock()
	d.started = true
	for _, name := range d.q.active {
		d.spawn(d.q.lanes[name])
	}
}

// Wake nudges the dispatcher after a Put (or after new routing state,
// e.g. a remote key registration, may have unblocked a stalled lane):
// every lane's backoff gate is lifted so the fresh state is tried
// immediately instead of at the next backoff tick, and every lane
// holding entries is signalled — or gets its goroutine, the first time.
func (d *Dispatcher) Wake() {
	d.q.mu.Lock()
	defer d.q.mu.Unlock()
	for _, l := range d.q.lanes {
		l.notBefore = time.Time{}
		switch {
		case len(l.seqs) == 0: // nothing to deliver
		case !l.running:
			d.spawn(l)
		default:
			select {
			case l.wake <- struct{}{}:
			default:
			}
		}
	}
}

// spawn starts l's goroutine unless it has one, or the dispatcher is not
// started or is closing. Called under q.mu.
func (d *Dispatcher) spawn(l *lane) {
	if l.running || !d.started || d.stopped {
		return
	}
	l.running = true
	d.wg.Add(1)
	go d.run(l)
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

// Close stops every lane goroutine and waits for them to return.
// In-flight delivery attempts get closeGrace to complete cleanly;
// attempts still running after that are cancelled via the
// dispatcher-lifetime context every attempt derives from. Queued
// entries stay queued (on disk for a durable queue) for the next
// process; a cancelled attempt's entry was never acked, so it
// redelivers.
func (d *Dispatcher) Close() {
	d.q.mu.Lock()
	first := !d.stopped
	d.stopped = true
	d.q.mu.Unlock()
	if first {
		close(d.stop)
	}
	defer d.cancel() // release the lifetime context either way
	lanesDone := make(chan struct{})
	go func() { d.wg.Wait(); close(lanesDone) }()
	select {
	case <-lanesDone:
		return
	case <-time.After(closeGrace):
	}
	d.cancel()
	<-lanesDone
}

// Flush blocks until the queue is empty, or ctx expires: an entry stays
// pending until its attempt acks or quarantines it. It is the
// test/shutdown helper for "everything the tier drained has reached the
// downstream".
func (d *Dispatcher) Flush(ctx context.Context) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for d.q.Len() != 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("outbox: flush: %d entries still pending: %w", d.q.Len(), ctx.Err())
		case <-tick.C:
		}
	}
	return nil
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

// run is lane l's goroutine, from the first time the lane holds entries
// until Close. It parks on the lane's wake signal while the lane is
// empty, and on that or its backoff timer while the lane is gated;
// otherwise it takes a slot for a drain pass.
func (d *Dispatcher) run(l *lane) {
	defer d.wg.Done()
	// One timer for the lane's life. go.mod's language version keeps the
	// pre-1.23 timer channel, which can hold a stale tick after a Stop
	// that lost the race: drained below, or it would cut a backoff short.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		d.q.mu.Lock()
		idle, wait := len(l.seqs) == 0, time.Until(l.notBefore)
		d.q.mu.Unlock()
		if !idle && wait <= 0 {
			select {
			case d.slots <- struct{}{}:
				d.pass(l)
			case <-d.stop:
				return
			}
			continue
		}
		var gate <-chan time.Time
		if !idle {
			timer.Reset(wait)
			gate = timer.C
		}
		select {
		case <-d.stop:
			return
		case <-l.wake:
		case <-gate:
			gate = nil
		}
		if gate != nil && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// pass drains l on a slot it holds, then frees the slot and settles the
// lane's retry state. A Wake that landed during the pass is consumed
// here, under the lock that schedules the retry, so a failed pass still
// waits out the backoff it scheduled.
func (d *Dispatcher) pass(l *lane) {
	d.q.mu.Lock()
	l.busy = true
	d.q.mu.Unlock()
	failed := d.drainLane(l.name)
	d.q.mu.Lock()
	defer d.q.mu.Unlock()
	l.busy = false
	<-d.slots
	select {
	case <-l.wake:
	default:
	}
	if !failed {
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

// drainLane delivers a lane's entries head-first until the lane is empty,
// a transient failure parks it (reported true), or the dispatcher stops.
// Permanent rejections quarantine the entry and the drain continues — one
// poisoned round must not park the lane behind it.
func (d *Dispatcher) drainLane(lane string) (failed bool) {
	for {
		select {
		case <-d.stop:
			return false
		default:
		}
		e := d.q.head(lane)
		if e == nil {
			return false
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
			return true
		}
	}
}
