package transport

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mixnn/internal/wire"
)

// Loopback is the in-process Transport: endpoints are names in a
// registry, and every operation reaches the registered Server without
// HTTP framing, header encoding or a socket copy. Request bodies are
// handed to the receiver without copying, so callers must not mutate a
// Body while its send is in flight; once the send returned the handler
// is done with it (see Transport), and the SDK and the outbox reuse it.
//
// A whole multi-tier deployment — participants, a sharded front proxy,
// relay shard proxies, cascade hops and the aggregation server — runs
// in one process over a single Loopback, which is what makes the full
// pipeline benchmarkable at hardware speed instead of loopback-HTTP
// speed, and lets the typed-protocol test batteries drive every leg
// without a port.
//
// Data-plane operations (SendUpdate, Hop, SendBatch) go through a
// BOUNDED PER-PEER INGRESS QUEUE drained by a per-peer worker pool,
// mirroring a real listener's accept queue: a slow receiver makes its
// own queue fill instead of borrowing the caller's goroutine for the
// whole handler, so one stalled peer cannot backpressure every sender
// in the process. A send that finds the queue full fails fast with
// ErrBusy — a transient, provably-not-ingested rejection (Unreached
// reports true) that the SDK fails over on and the outbox dispatcher
// retries with backoff. Control-plane operations (Attest, Model,
// Topology, Status) stay direct calls: polling a tier's status or
// attesting an enclave must not queue behind ten thousand updates.
type Loopback struct {
	opts LoopbackOptions

	mu    sync.RWMutex
	peers map[string]*loopbackPeer
}

// LoopbackOptions sizes the per-peer ingress machinery. Zero values
// take the defaults.
type LoopbackOptions struct {
	// QueueDepth bounds each peer's data-plane ingress queue (default
	// DefaultLoopbackQueueDepth). A send that finds the queue full
	// fails with ErrBusy instead of blocking.
	QueueDepth int
	// Workers is each peer's handler pool size (default GOMAXPROCS,
	// floor 4): how many data-plane requests one peer processes
	// concurrently.
	Workers int
}

// DefaultLoopbackQueueDepth is the per-peer ingress queue bound when
// LoopbackOptions does not override it — deep enough that the test
// batteries' modest concurrency never trips it, bounded so a load
// harness can observe real backpressure by tightening it.
const DefaultLoopbackQueueDepth = 1024

// loopbackPeer is one registered endpoint: its Server plus the bounded
// ingress queue and the worker pool draining it. quit is closed when
// the peer is unregistered, replaced, or the Loopback closes; workers
// exit and queued-but-unclaimed senders fail over as unreachable.
type loopbackPeer struct {
	srv  Server
	jobs chan *loopbackJob
	quit chan struct{}

	handled atomic.Uint64 // data-plane requests executed
	busy    atomic.Uint64 // sends rejected queue-full
	peak    atomic.Int64  // ingress queue high watermark
}

// loopbackJob is one queued data-plane request. Exactly one party —
// the draining worker, a cancelling sender, or an unregistering peer's
// waiter — claims it: the worker runs claimed jobs and discards jobs a
// canceller claimed first, so a request either executes exactly once
// or provably never executes.
type loopbackJob struct {
	ctx     context.Context
	run     func(ctx context.Context, s Server)
	claimed atomic.Bool
	done    chan struct{}
}

// NewLoopback builds an empty registry with default queue sizing.
func NewLoopback() *Loopback {
	return NewLoopbackWith(LoopbackOptions{})
}

// NewLoopbackWith builds an empty registry with explicit queue sizing.
func NewLoopbackWith(opts LoopbackOptions) *Loopback {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultLoopbackQueueDepth
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
		if opts.Workers < 4 {
			opts.Workers = 4
		}
	}
	return &Loopback{opts: opts, peers: make(map[string]*loopbackPeer)}
}

// Register binds a name to a Server; sends addressed to ep reach it. A
// later Register for the same name replaces the peer (a "restart"):
// the old instance's workers stop and its queued-but-unstarted
// requests fail over as unreachable, exactly like requests caught in a
// real listener's accept queue when the process dies.
func (l *Loopback) Register(ep string, s Server) {
	p := &loopbackPeer{
		srv:  s,
		jobs: make(chan *loopbackJob, l.opts.QueueDepth),
		quit: make(chan struct{}),
	}
	l.mu.Lock()
	old := l.peers[ep]
	l.peers[ep] = p
	l.mu.Unlock()
	if old != nil {
		close(old.quit)
	}
	for i := 0; i < l.opts.Workers; i++ {
		go p.drain()
	}
}

// Unregister removes a peer; subsequent sends to ep fail as
// unreachable (a transient error, like a downed HTTP listener), its
// workers stop, and senders whose requests were queued but not yet
// started fail over as unreachable too — they provably were not
// ingested. A request a worker already started runs to completion and
// its sender gets the real result, like an in-flight request on a
// connection that outlives the listener.
func (l *Loopback) Unregister(ep string) {
	l.mu.Lock()
	p := l.peers[ep]
	delete(l.peers, ep)
	l.mu.Unlock()
	if p != nil {
		close(p.quit)
	}
}

// Close unregisters every peer, stopping all worker pools. Senders
// with queued requests fail over as unreachable.
func (l *Loopback) Close() {
	l.mu.Lock()
	peers := l.peers
	l.peers = make(map[string]*loopbackPeer)
	l.mu.Unlock()
	for _, p := range peers {
		close(p.quit)
	}
}

// LoopbackPeerStats is one peer's ingress-queue counters, for load
// harnesses watching backpressure.
type LoopbackPeerStats struct {
	Endpoint string
	Queued   int    // data-plane requests waiting now
	Peak     int    // ingress queue high watermark since Register
	Handled  uint64 // data-plane requests executed
	Busy     uint64 // sends rejected queue-full (ErrBusy)
}

// Stats snapshots every registered peer's ingress-queue counters,
// sorted by endpoint.
func (l *Loopback) Stats() []LoopbackPeerStats {
	l.mu.RLock()
	out := make([]LoopbackPeerStats, 0, len(l.peers))
	for ep, p := range l.peers {
		out = append(out, LoopbackPeerStats{
			Endpoint: ep,
			Queued:   len(p.jobs),
			Peak:     int(p.peak.Load()),
			Handled:  p.handled.Load(),
			Busy:     p.busy.Load(),
		})
	}
	l.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// drain is one worker of a peer's pool: it claims queued jobs and runs
// them until the peer goes away. Jobs a canceller claimed first are
// discarded (their sender already returned "not ingested").
func (p *loopbackPeer) drain() {
	for {
		// Check quit first so a retired peer's workers exit even while
		// jobs remain queued (their senders fail over via quit).
		select {
		case <-p.quit:
			return
		default:
		}
		select {
		case <-p.quit:
			return
		case job := <-p.jobs:
			if job.claimed.CompareAndSwap(false, true) {
				job.run(job.ctx, p.srv)
				p.handled.Add(1)
			}
			close(job.done)
		}
	}
}

// submit queues one data-plane request for ep and waits for its
// outcome. The error taxonomy is exact because the queue is in
// process: an unknown or retired peer, and a queued request nobody
// started, are UNREACHED (safe to fail over / retry elsewhere); a full
// queue is ErrBusy (also unreached — rejected at the door); and once a
// worker claims the request, submit waits for the handler's real
// result, however the caller's ctx fares (the handler sees ctx and
// honours it, like an in-flight HTTP request).
func (l *Loopback) submit(ctx context.Context, ep string, run func(ctx context.Context, s Server)) error {
	l.mu.RLock()
	p, ok := l.peers[ep]
	l.mu.RUnlock()
	if !ok {
		return fmt.Errorf("transport: loopback peer %q: %w", ep, ErrUnreachable)
	}
	job := &loopbackJob{ctx: ctx, run: run, done: make(chan struct{})}
	select {
	case p.jobs <- job:
	default:
		p.busy.Add(1)
		return fmt.Errorf("transport: loopback peer %q: %w", ep, ErrBusy)
	}
	if d := int64(len(p.jobs)); d > p.peak.Load() {
		// Benign race on the watermark: Stats tolerance, not accounting.
		p.peak.Store(d)
	}
	select {
	case <-job.done:
		return nil
	case <-ctx.Done():
		if job.claimed.CompareAndSwap(false, true) {
			// Claimed before any worker: the request never started, so
			// this cancellation is provably-not-ingested, not ambiguous.
			return fmt.Errorf("transport: loopback peer %q: request cancelled while queued: %w (%w)", ep, ctx.Err(), ErrUnreachable)
		}
		<-job.done
		return nil
	case <-p.quit:
		if job.claimed.CompareAndSwap(false, true) {
			return fmt.Errorf("transport: loopback peer %q went away with the request still queued: %w", ep, ErrUnreachable)
		}
		<-job.done
		return nil
	}
}

// SendUpdate implements Transport.
func (l *Loopback) SendUpdate(ctx context.Context, ep string, req UpdateRequest) (Receipt, error) {
	rec, herr := Receipt{Shard: -1}, error(nil)
	if err := l.submit(ctx, ep, func(ctx context.Context, s Server) {
		rec, herr = s.HandleUpdate(ctx, req)
	}); err != nil {
		return Receipt{Shard: -1}, err
	}
	return rec, herr
}

// Hop implements Transport.
func (l *Loopback) Hop(ctx context.Context, ep string, req HopRequest) (Receipt, error) {
	rec, herr := Receipt{Shard: -1}, error(nil)
	if err := l.submit(ctx, ep, func(ctx context.Context, s Server) {
		rec, herr = s.HandleHop(ctx, req)
	}); err != nil {
		return Receipt{Shard: -1}, err
	}
	return rec, herr
}

// SendBatch implements Transport.
func (l *Loopback) SendBatch(ctx context.Context, ep string, req BatchRequest) (Receipt, error) {
	rec, herr := Receipt{Shard: -1}, error(nil)
	if err := l.submit(ctx, ep, func(ctx context.Context, s Server) {
		rec, herr = s.HandleBatch(ctx, req)
	}); err != nil {
		return Receipt{Shard: -1}, err
	}
	return rec, herr
}

func (l *Loopback) peer(ep string) (Server, error) {
	l.mu.RLock()
	p, ok := l.peers[ep]
	l.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: loopback peer %q: %w", ep, ErrUnreachable)
	}
	return p.srv, nil
}

// Attest implements Transport.
func (l *Loopback) Attest(ctx context.Context, ep string, nonce []byte) (wire.AttestationResponse, error) {
	s, err := l.peer(ep)
	if err != nil {
		return wire.AttestationResponse{}, err
	}
	return s.HandleAttest(ctx, nonce)
}

// Model implements Transport.
func (l *Loopback) Model(ctx context.Context, ep string) (ModelResponse, error) {
	s, err := l.peer(ep)
	if err != nil {
		return ModelResponse{}, err
	}
	return s.HandleModel(ctx)
}

// Topology implements Transport.
func (l *Loopback) Topology(ctx context.Context, ep string, req TopologyRequest) (wire.TopologyStatus, error) {
	s, err := l.peer(ep)
	if err != nil {
		return wire.TopologyStatus{}, err
	}
	return s.HandleTopology(ctx, req)
}

// Status implements Transport.
func (l *Loopback) Status(ctx context.Context, ep string) (StatusResponse, error) {
	s, err := l.peer(ep)
	if err != nil {
		return StatusResponse{}, err
	}
	return s.HandleStatus(ctx)
}

// Discover implements Transport. Like the other control-plane verbs it
// is a direct call: a health probe must not queue behind data-plane
// ingress — that would make every overloaded peer look unreachable
// exactly when the SDK needs its health score.
func (l *Loopback) Discover(ctx context.Context, ep string) (wire.DiscoverResponse, error) {
	s, err := l.peer(ep)
	if err != nil {
		return wire.DiscoverResponse{}, err
	}
	return s.HandleDiscover(ctx)
}

// QueueDepth reports one peer's current data-plane ingress queue length
// (-1 for an unknown peer): the live signal a server's admission gate
// reads without snapshotting every peer via Stats.
func (l *Loopback) QueueDepth(ep string) int {
	l.mu.RLock()
	p, ok := l.peers[ep]
	l.mu.RUnlock()
	if !ok {
		return -1
	}
	return len(p.jobs)
}
