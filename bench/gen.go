package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/nn"
)

// poolSize is how many distinct updates the generator cycles through.
// 32 conv updates are 1.3MB: larger than the per-core caches the tier's
// copies run out of, small enough to generate before every run.
const poolSize = 32

// schedLen is the length of the (session, update) schedule the senders
// cycle through.
const schedLen = 8192

// maxInFlight bounds the open loop's parked sender goroutines. A tier
// that falls this far behind has failed the run; further arrivals are
// counted as failed sends instead of piling up without limit.
const maxInFlight = 4096

// inputs is everything the tier receives, generated from the seed
// before any timing starts.
type inputs struct {
	pool  []nn.ParamSet
	sched []plan
	gaps  []float64 // open loop: unit-mean exponential gaps between arrivals
	// updateBytes is the size of one update on the wire.
	updateBytes int
}

type plan struct{ session, update int }

func genInputs(w *workload, seed int64, seconds float64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	arch := modelArch(w.Model)
	in := &inputs{pool: make([]nn.ParamSet, poolSize), sched: make([]plan, schedLen)}
	for i := range in.pool {
		in.pool[i] = arch.New(rng.Int63()).SnapshotParams()
	}
	if raw, err := nn.EncodeParamSet(in.pool[0]); err == nil {
		in.updateBytes = len(raw)
	}
	for i := range in.sched {
		in.sched[i] = plan{session: i % w.Sessions, update: rng.Intn(poolSize)}
	}
	if w.Load == openLoop {
		in.gaps = make([]float64, int(w.RatePerSec*seconds)+2)
		for i := range in.gaps {
			in.gaps[i] = rng.ExpFloat64()
		}
	}
	return in
}

// books is the generator's side of the conservation books, kept
// across every phase of one tier's life: what was attempted, what was
// acked (per pool entry, so the expected sum costs nothing while the
// clock runs) and when the ack count crossed each aggregator round.
type books struct {
	t  *tier
	in *inputs

	attempted atomic.Int64
	failed    atomic.Int64
	acked     atomic.Int64
	poolAcks  [poolSize]atomic.Int64
	// ackAt[k] is when the ack count reached k aggregator rounds.
	ackAt []atomic.Int64

	errMu    sync.Mutex
	firstErr error

	// root, when set, opens a root span around each scheduled send.
	root func(context.Context) (context.Context, func(ok bool))
}

func openBooks(t *tier, in *inputs) *books {
	return &books{t: t, in: in, ackAt: make([]atomic.Int64, 1<<19)}
}

// send is one participant update, SDK call to ack, retries and failover
// included.
func (b *books) send(ctx context.Context, part *client.Participant, update int) error {
	b.attempted.Add(1)
	if err := part.SendUpdate(ctx, b.in.pool[update]); err != nil {
		b.fail(err)
		return err
	}
	b.poolAcks[update].Add(1)
	n := b.acked.Add(1)
	if r := int64(b.t.w.aggRound()); n%r == 0 && n/r < int64(len(b.ackAt)) {
		b.ackAt[n/r].Store(nowNs())
	}
	return nil
}

func (b *books) fail(err error) {
	b.failed.Add(1)
	b.errMu.Lock()
	if b.firstErr == nil {
		b.firstErr = err
	}
	b.errMu.Unlock()
}

// warmUp establishes every session against every front it can fail over
// to, builds the mixers' slab layouts and runs each front's first two
// rounds, then waits until the aggregator has absorbed all of it.
func (b *books) warmUp(ctx context.Context) error {
	t, w := b.t, b.t.w
	each := func(per int) error {
		_, err := b.closed(ctx, func(i int) bool { return i < per*w.Sessions })
		return err
	}
	if w.Load == burstLoop {
		// One pass per front with the others unreachable, so the walk
		// lands on (and establishes a session with) each in turn: the
		// measured bursts then pay no RSA on failover.
		for f := range t.frontEPs {
			for g, ep := range t.frontEPs {
				if g != f {
					t.lb.Unregister(ep)
				}
			}
			err := each(2 * w.Round / w.Sessions)
			for g, ep := range t.frontEPs {
				if g != f {
					t.lb.Register(ep, t.frontSrvs[g])
				}
			}
			if err != nil {
				return err
			}
		}
	} else if err := each(2 * w.Round * w.Fronts / w.Sessions); err != nil {
		return err
	}
	if err := b.topOff(ctx); err != nil {
		return err
	}
	return t.settle(ctx, b.acked.Load())
}

// sample is one timed operation: when it completed and how long it
// took from its intended start, both in ns.
type sample struct{ at, dur int64 }

// sendPlan is one scheduled send; with tracing on it runs under its own
// root span. It returns the ack time and whether the send was acked.
func (b *books) sendPlan(ctx context.Context, p plan) (int64, bool) {
	end := func(bool) {}
	if b.root != nil {
		ctx, end = b.root(ctx)
	}
	err := b.send(ctx, b.t.parts[p.session], p.update)
	at := nowNs()
	end(err == nil)
	return at, err == nil
}

// roundsInFlight is the closed loop's second closure: a sender does not
// start a send while more than this many front rounds per front are
// acked but not yet aggregated — participants of round r+4 wait for
// round r's global model. Without it the loop is closed on the ack
// alone, and the tier acks faster than it delivers: the in-memory
// outbox grows for as long as the run lasts (measured on conv_closed:
// 9.8k acks/s against 7.6k absorbed/s, 1.9GB of backlog in 20s), so no
// run length would give a steady state.
const roundsInFlight = 4

// waitCredit parks the calling sender until the tier's acked-but-not-
// aggregated backlog is inside the window.
func (b *books) waitCredit(ctx context.Context) {
	o, w := b.t.obs, b.t.w
	window := int64(roundsInFlight * w.Round * w.Fronts)
	if b.acked.Load()-o.slots.Load() <= window {
		return
	}
	o.mu.Lock()
	for b.acked.Load()-o.slots.Load() > window && ctx.Err() == nil {
		o.closed.Wait()
	}
	o.mu.Unlock()
}

// closed runs GOMAXPROCS senders back to back over the schedule while
// more(i) holds for schedule position i. Sender j takes positions
// j, j+S, ...; with the session count a multiple of S no session has
// two sends in flight.
func (b *books) closed(ctx context.Context, more func(i int) bool) ([]sample, error) {
	// A cancelled run must not leave senders parked on the credit window.
	stop := context.AfterFunc(ctx, func() {
		b.t.obs.mu.Lock()
		b.t.obs.closed.Broadcast()
		b.t.obs.mu.Unlock()
	})
	defer stop()
	senders := runtime.GOMAXPROCS(0)
	lat := make([][]sample, senders)
	var wg sync.WaitGroup
	for j := 0; j < senders; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for i := j; more(i) && ctx.Err() == nil; i += senders {
				b.waitCredit(ctx)
				t0 := nowNs()
				if at, ok := b.sendPlan(ctx, b.in.sched[i%schedLen]); ok {
					lat[j] = append(lat[j], sample{at: at, dur: at - t0})
				}
			}
		}(j)
	}
	wg.Wait()
	var all []sample
	for _, l := range lat {
		all = append(all, l...)
	}
	return all, b.err()
}

func (b *books) err() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if b.firstErr != nil {
		return fmt.Errorf("%d of %d sends failed, first: %w", b.failed.Load(), b.attempted.Load(), b.firstErr)
	}
	return nil
}

// phase is what one timed stretch of load produced.
type phase struct {
	start, end int64    // ns: first send released, last released send acked
	paced      int64    // ns of it the generator waited on its own clock, not on the tier: the open loop, the bursts' gaps
	sends      []sample // SendUpdate latency to ack, from the intended send time
	late       []int64  // open loop: how late each send was released, ns
	offered    int      // sends released
}

// run offers the workload's load for d and returns once every released
// send is acked.
func (b *books) run(ctx context.Context, d time.Duration) (phase, error) {
	ph := phase{start: nowNs()}
	deadline := ph.start + int64(d)
	var err error
	switch b.t.w.Load {
	case closedLoop:
		ph.sends, err = b.closed(ctx, func(int) bool { return nowNs() < deadline })
		ph.offered = len(ph.sends)
	case openLoop:
		err = b.open(ctx, &ph, d)
	case burstLoop:
		err = b.bursts(ctx, &ph, deadline)
	}
	ph.end = nowNs()
	if b.t.w.Load == openLoop {
		ph.paced = ph.end - ph.start
	}
	return ph, err
}

// open releases one parked sender goroutine per arrival. The phase's
// rate x d arrivals are the precomputed gaps scaled to fill d: a Poisson
// process conditioned on its count.
func (b *books) open(ctx context.Context, ph *phase, d time.Duration) error {
	n := min(int(b.t.w.RatePerSec*d.Seconds()+0.5), len(b.in.gaps)-1)
	arrivals := make([]int64, n)
	sum := 0.0
	for i := 0; i <= n; i++ {
		sum += b.in.gaps[i]
	}
	at := 0.0
	for i := range arrivals {
		at += b.in.gaps[i]
		arrivals[i] = int64(at / sum * float64(d))
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		inFlight atomic.Int64
	)
	ph.start = nowNs()
	for i, at := range arrivals {
		if ctx.Err() != nil {
			break
		}
		due := ph.start + at
		if wait := due - nowNs(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		ph.late = append(ph.late, nowNs()-due)
		ph.offered++
		if inFlight.Load() >= maxInFlight {
			b.attempted.Add(1)
			b.fail(fmt.Errorf("open loop: %d sends already in flight", maxInFlight))
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(p plan) {
			defer wg.Done()
			defer inFlight.Add(-1)
			if at, ok := b.sendPlan(ctx, p); ok {
				mu.Lock()
				ph.sends = append(ph.sends, sample{at: at, dur: at - due})
				mu.Unlock()
			}
		}(b.in.sched[i%schedLen])
	}
	wg.Wait()
	return b.err()
}

// bursts releases BurstSize simultaneous sends, waits for all acks,
// sleeps BurstGap and repeats until the deadline.
func (b *books) bursts(ctx context.Context, ph *phase, deadline int64) error {
	w := b.t.w
	lat := make([]sample, w.BurstSize)
	for n := 0; nowNs() < deadline && ctx.Err() == nil; n++ {
		var wg sync.WaitGroup
		release := nowNs()
		for i := 0; i < w.BurstSize; i++ {
			wg.Add(1)
			go func(i int, p plan) {
				defer wg.Done()
				at, ok := b.sendPlan(ctx, p)
				lat[i] = sample{at: at, dur: at - release}
				if !ok {
					lat[i].dur = -1
				}
			}(i, b.in.sched[(n*w.BurstSize+i)%schedLen])
		}
		wg.Wait()
		for _, s := range lat {
			if s.dur >= 0 {
				ph.sends = append(ph.sends, s)
			}
		}
		ph.offered += w.BurstSize
		if err := b.err(); err != nil {
			return err
		}
		gap := nowNs()
		time.Sleep(w.BurstGap)
		ph.paced += nowNs() - gap
	}
	return b.err()
}

// topOff closes each front's partial round with fillers pinned to that
// front, as cmd/loadgen does. Fillers are ordinary acked updates: they
// count for conservation, not for latency.
func (b *books) topOff(ctx context.Context) error {
	t := b.t
	for f, front := range t.fronts {
		in := front.Status().InRound
		if in == 0 {
			continue
		}
		filler, err := t.newSession(fmt.Sprintf("filler-%d", f), []string{t.frontEPs[f]})
		if err != nil {
			return err
		}
		for j := in; j < t.w.Round; j++ {
			// Each front draws its fillers from its own part of the pool.
			// Relay chunks are raw participant updates, and the tier
			// derives a batch's idempotency id from its bytes alone: two
			// fronts topping off the same epoch with the same sequence
			// sent a relay two byte-identical chunks, and it dropped the
			// second as a redelivery (16 updates acked, never absorbed).
			// Real updates are never byte-identical; fillers must not be.
			if err := b.send(ctx, filler, (j+f*poolSize/len(t.fronts))%poolSize); err != nil {
				return fmt.Errorf("filler for front-%d: %w", f, err)
			}
		}
	}
	return nil
}

// expectedSum is the layer-wise sum of every acked update.
func (b *books) expectedSum() (nn.ParamSet, int64) {
	var sum nn.ParamSet
	var n int64
	for i := range b.poolAcks {
		c := b.poolAcks[i].Load()
		if c == 0 {
			continue
		}
		term := b.in.pool[i].Clone().Scale(float64(c))
		if n == 0 {
			sum = term
		} else {
			sum.Add(term)
		}
		n += c
	}
	return sum, n
}
