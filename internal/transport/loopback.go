package transport

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

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
// Data-plane operations (SendUpdate, Hop, SendBatch) pass a BOUNDED
// PER-PEER DOOR and then run the peer's handler on the sender's own
// goroutine: at most Workers requests run in one peer at once, up to
// QueueDepth more wait for a slot in arrival order, mirroring a real
// listener's accept queue, and a slow receiver stalls only its own
// senders, never a send to another peer. A send
// that finds the queue full fails fast with ErrBusy — a transient,
// provably-not-ingested rejection (Unreached reports true) that the SDK
// fails over on and the outbox dispatcher retries with backoff.
// Control-plane operations (Attest, Model, Topology, Status, Discover)
// are plain direct calls: polling a tier's status or attesting an
// enclave must not queue behind ten thousand updates.
type Loopback struct {
	opts LoopbackOptions

	mu    sync.RWMutex
	peers map[string]*loopbackPeer
}

// LoopbackOptions sizes each peer's data-plane door. Zero values take
// the defaults.
type LoopbackOptions struct {
	// QueueDepth bounds how many senders wait for one peer's slot
	// (default DefaultLoopbackQueueDepth). A send that finds that many
	// waiting fails with ErrBusy instead of blocking.
	QueueDepth int
	// Workers is how many data-plane requests one peer runs at once,
	// each on its sender's goroutine (default GOMAXPROCS, floor 4).
	Workers int
}

// DefaultLoopbackQueueDepth is the per-peer ingress queue bound when
// LoopbackOptions does not override it — deep enough that the test
// batteries' modest concurrency never trips it, bounded so a load
// harness can observe real backpressure by tightening it.
const DefaultLoopbackQueueDepth = 1024

// loopbackPeer is one registered endpoint: its Server and the door in
// front of its data plane. quit is closed when the peer is
// unregistered, replaced, or the Loopback closes: the door admits
// nothing more, and senders still waiting fail over as unreachable.
type loopbackPeer struct {
	srv  Server
	quit chan struct{}

	mu      sync.Mutex
	running int               // data-plane requests holding a slot
	waiting []*loopbackWaiter // senders waiting for a slot, oldest first
	peak    int               // len(waiting) high watermark
	handled uint64            // data-plane requests executed
	busy    uint64            // sends rejected queue-full
}

// loopbackWaiter is a sender parked at a peer's door. leave hands it a
// slot by taking it off the queue and sending on ready; a sender that
// gives up first takes itself off, so a waiter either runs exactly once
// or provably never runs.
type loopbackWaiter struct{ ready chan struct{} }

var loopbackWaiters = sync.Pool{New: func() any { return &loopbackWaiter{ready: make(chan struct{}, 1)} }}

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
// the old instance admits nothing more and its waiting senders fail
// over as unreachable, exactly like requests caught in a real
// listener's accept queue when the process dies.
func (l *Loopback) Register(ep string, s Server) {
	p := &loopbackPeer{srv: s, quit: make(chan struct{})}
	l.mu.Lock()
	old := l.peers[ep]
	l.peers[ep] = p
	l.mu.Unlock()
	if old != nil {
		close(old.quit)
	}
}

// Unregister removes a peer; subsequent sends to ep fail as
// unreachable (a transient error, like a downed HTTP listener), and
// senders still waiting at its door fail over as unreachable too —
// they provably were not ingested. A request already running completes
// and its sender gets the real result, like an in-flight request on a
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

// Close unregisters every peer. Senders waiting at a door fail over as
// unreachable.
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
		p.mu.Lock()
		out = append(out, LoopbackPeerStats{
			Endpoint: ep,
			Queued:   len(p.waiting),
			Peak:     p.peak,
			Handled:  p.handled,
			Busy:     p.busy,
		})
		p.mu.Unlock()
	}
	l.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// enter takes one of ep's slots for a data-plane request, waiting its
// turn if all are taken; the caller runs the handler and then leave.
// The error taxonomy is exact because the door is in process: an
// unknown or retired peer, and a waiting sender that gave up before a
// slot was handed to it, are UNREACHED (safe to fail over / retry
// elsewhere); a full queue is ErrBusy (also unreached — rejected at the
// door); and a sender handed a slot runs the handler and gets its real
// result, however its ctx fares (the handler sees ctx and honours it,
// like an in-flight HTTP request).
func (l *Loopback) enter(ctx context.Context, ep string) (*loopbackPeer, error) {
	p, err := l.peer(ep)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	select {
	case <-p.quit:
		p.mu.Unlock()
		return nil, fmt.Errorf("transport: loopback peer %q: %w", ep, ErrUnreachable)
	default:
	}
	if p.running < l.opts.Workers {
		p.running++
		p.mu.Unlock()
		return p, nil
	}
	if len(p.waiting) >= l.opts.QueueDepth {
		p.busy++
		p.mu.Unlock()
		return nil, fmt.Errorf("transport: loopback peer %q: %w", ep, ErrBusy)
	}
	w := loopbackWaiters.Get().(*loopbackWaiter)
	p.waiting = append(p.waiting, w)
	p.peak = max(p.peak, len(p.waiting))
	p.mu.Unlock()
	select {
	case <-w.ready:
		loopbackWaiters.Put(w)
		return p, nil
	case <-ctx.Done():
		err = fmt.Errorf("transport: loopback peer %q: request cancelled while queued: %w (%w)", ep, ctx.Err(), ErrUnreachable)
	case <-p.quit:
		err = fmt.Errorf("transport: loopback peer %q went away with the request still queued: %w", ep, ErrUnreachable)
	}
	p.mu.Lock()
	if i := slices.Index(p.waiting, w); i >= 0 {
		p.waiting = slices.Delete(p.waiting, i, i+1)
		p.mu.Unlock()
		loopbackWaiters.Put(w)
		return nil, err
	}
	p.mu.Unlock()
	// leave handed this sender a slot before it gave up: the request
	// runs, and the sender gets the handler's result.
	<-w.ready
	loopbackWaiters.Put(w)
	return p, nil
}

// leave gives a slot back: straight to the oldest waiting sender, or
// free once nobody waits or the peer is retired.
func (p *loopbackPeer) leave() {
	p.mu.Lock()
	p.handled++
	select {
	case <-p.quit:
	default:
		if len(p.waiting) > 0 {
			w := p.waiting[0]
			p.waiting = slices.Delete(p.waiting, 0, 1)
			p.mu.Unlock()
			w.ready <- struct{}{}
			return
		}
	}
	p.running--
	p.mu.Unlock()
}

// SendUpdate implements Transport.
func (l *Loopback) SendUpdate(ctx context.Context, ep string, req UpdateRequest) (Receipt, error) {
	p, err := l.enter(ctx, ep)
	if err != nil {
		return Receipt{Shard: -1}, err
	}
	defer p.leave()
	return p.srv.HandleUpdate(ctx, req)
}

// Hop implements Transport.
func (l *Loopback) Hop(ctx context.Context, ep string, req HopRequest) (Receipt, error) {
	p, err := l.enter(ctx, ep)
	if err != nil {
		return Receipt{Shard: -1}, err
	}
	defer p.leave()
	return p.srv.HandleHop(ctx, req)
}

// SendBatch implements Transport.
func (l *Loopback) SendBatch(ctx context.Context, ep string, req BatchRequest) (Receipt, error) {
	p, err := l.enter(ctx, ep)
	if err != nil {
		return Receipt{Shard: -1}, err
	}
	defer p.leave()
	return p.srv.HandleBatch(ctx, req)
}

func (l *Loopback) peer(ep string) (*loopbackPeer, error) {
	l.mu.RLock()
	p, ok := l.peers[ep]
	l.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: loopback peer %q: %w", ep, ErrUnreachable)
	}
	return p, nil
}

// Attest implements Transport.
func (l *Loopback) Attest(ctx context.Context, ep string, nonce []byte) (wire.AttestationResponse, error) {
	p, err := l.peer(ep)
	if err != nil {
		return wire.AttestationResponse{}, err
	}
	return p.srv.HandleAttest(ctx, nonce)
}

// Model implements Transport.
func (l *Loopback) Model(ctx context.Context, ep string) (ModelResponse, error) {
	p, err := l.peer(ep)
	if err != nil {
		return ModelResponse{}, err
	}
	return p.srv.HandleModel(ctx)
}

// Topology implements Transport.
func (l *Loopback) Topology(ctx context.Context, ep string, req TopologyRequest) (wire.TopologyStatus, error) {
	p, err := l.peer(ep)
	if err != nil {
		return wire.TopologyStatus{}, err
	}
	return p.srv.HandleTopology(ctx, req)
}

// Status implements Transport.
func (l *Loopback) Status(ctx context.Context, ep string) (StatusResponse, error) {
	p, err := l.peer(ep)
	if err != nil {
		return StatusResponse{}, err
	}
	return p.srv.HandleStatus(ctx)
}

// Discover implements Transport. Like the other control-plane verbs it
// is a direct call: a health probe must not queue behind data-plane
// ingress — that would make every overloaded peer look unreachable
// exactly when the SDK needs its health score.
func (l *Loopback) Discover(ctx context.Context, ep string) (wire.DiscoverResponse, error) {
	p, err := l.peer(ep)
	if err != nil {
		return wire.DiscoverResponse{}, err
	}
	return p.srv.HandleDiscover(ctx)
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
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.waiting)
}
