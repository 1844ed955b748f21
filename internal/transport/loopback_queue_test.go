package transport

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// gateServer blocks HandleUpdate until released, so tests can hold a
// peer's slots busy and fill its ingress queue deterministically.
type gateServer struct {
	fakeServer
	mu      sync.Mutex
	entered chan struct{} // one token per handler entry
	release chan struct{}
	served  int
}

func newGateServer() *gateServer {
	return &gateServer{
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (g *gateServer) HandleUpdate(ctx context.Context, req UpdateRequest) (Receipt, error) {
	g.entered <- struct{}{}
	<-g.release
	g.mu.Lock()
	g.served++
	g.mu.Unlock()
	return Receipt{Shard: 0}, nil
}

func (g *gateServer) Served() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.served
}

// TestLoopbackQueueFullBusy: with the one slot held inside a handler
// and the depth-1 queue occupied, the next send is rejected at the door
// with ErrBusy — typed, transient, and provably not ingested.
func TestLoopbackQueueFullBusy(t *testing.T) {
	lb := NewLoopbackWith(LoopbackOptions{QueueDepth: 1, Workers: 1})
	g := newGateServer()
	lb.Register("loop://px", g)
	defer lb.Close()

	errc := make(chan error, 2)
	send := func() {
		_, err := lb.SendUpdate(context.Background(), "loop://px", UpdateRequest{Body: []byte("u")})
		errc <- err
	}
	go send()
	<-g.entered // send #1 holds the slot
	go send()   // send #2 sits in the depth-1 queue
	waitQueued(t, lb, "loop://px", 1)

	_, err := lb.SendUpdate(context.Background(), "loop://px", UpdateRequest{Body: []byte("u3")})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("queue-full send returned %v, want ErrBusy", err)
	}
	if !Unreached(err) {
		t.Fatal("ErrBusy must report Unreached: the request was turned away before any handler saw it")
	}

	close(g.release)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("accepted send %d failed: %v", i, err)
		}
	}
	if g.Served() != 2 {
		t.Fatalf("handler served %d updates, want exactly the 2 accepted", g.Served())
	}
	st := lb.Stats()
	if len(st) != 1 || st[0].Busy != 1 || st[0].Handled != 2 {
		t.Fatalf("stats = %+v, want 1 busy rejection and 2 handled", st)
	}
}

func waitQueued(t *testing.T, lb *Loopback, ep string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range lb.Stats() {
			if s.Endpoint == ep && s.Queued >= n {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("peer %s never queued %d requests", ep, n)
}

// TestLoopbackSlowPeerIsolation: a peer wedged inside its handler must
// not delay sends to a different peer — each peer has its own door, so
// a wedged handler holds only its own peer's slots and senders.
func TestLoopbackSlowPeerIsolation(t *testing.T) {
	lb := NewLoopbackWith(LoopbackOptions{QueueDepth: 4, Workers: 1})
	slow := newGateServer()
	fast := &fakeServer{receipt: Receipt{Shard: 1}}
	lb.Register("loop://slow", slow)
	lb.Register("loop://fast", fast)
	defer lb.Close()

	go lb.SendUpdate(context.Background(), "loop://slow", UpdateRequest{Body: []byte("u")})
	<-slow.entered

	done := make(chan error, 1)
	go func() {
		_, err := lb.SendUpdate(context.Background(), "loop://fast", UpdateRequest{Body: []byte("u")})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("send to the healthy peer failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send to the healthy peer stalled behind the wedged peer")
	}
	close(slow.release)
}

// TestLoopbackUnregisterFailsQueuedAsUnreached: killing a peer fails its
// QUEUED-but-unstarted requests as unreachable (safe to fail over — they
// provably were not ingested), while a request that already holds a slot
// runs to completion and its sender gets the real result.
func TestLoopbackUnregisterFailsQueuedAsUnreached(t *testing.T) {
	lb := NewLoopbackWith(LoopbackOptions{QueueDepth: 2, Workers: 1})
	g := newGateServer()
	lb.Register("loop://px", g)

	inflight := make(chan error, 1)
	go func() {
		_, err := lb.SendUpdate(context.Background(), "loop://px", UpdateRequest{Body: []byte("started")})
		inflight <- err
	}()
	<-g.entered // request #1 holds the slot

	queued := make(chan error, 1)
	go func() {
		_, err := lb.SendUpdate(context.Background(), "loop://px", UpdateRequest{Body: []byte("queued")})
		queued <- err
	}()
	waitQueued(t, lb, "loop://px", 1)

	lb.Unregister("loop://px")

	if err := <-queued; !Unreached(err) {
		t.Fatalf("queued request got %v, want an Unreached error after the peer died", err)
	}
	close(g.release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request must finish with the real result, got %v", err)
	}
	if g.Served() != 1 {
		t.Fatalf("handler served %d, want exactly the 1 started request", g.Served())
	}
}

// TestLoopbackCancelWhileQueued: a sender cancelling while its request
// is still queued gets its ctx error marked Unreached — in process, the
// transport KNOWS the handler never ran, so the cancellation is not
// ambiguous the way an HTTP timeout is.
func TestLoopbackCancelWhileQueued(t *testing.T) {
	lb := NewLoopbackWith(LoopbackOptions{QueueDepth: 2, Workers: 1})
	g := newGateServer()
	lb.Register("loop://px", g)
	defer lb.Close()

	inflight := make(chan error, 1)
	go func() {
		_, err := lb.SendUpdate(context.Background(), "loop://px", UpdateRequest{Body: []byte("started")})
		inflight <- err
	}()
	<-g.entered

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := lb.SendUpdate(ctx, "loop://px", UpdateRequest{Body: []byte("queued")})
		queued <- err
	}()
	waitQueued(t, lb, "loop://px", 1)
	cancel()

	err := <-queued
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued send got %v, want a context.Canceled error", err)
	}
	if !Unreached(err) {
		t.Fatal("a request cancelled while queued provably never ran; it must report Unreached")
	}
	close(g.release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request failed: %v", err)
	}
	if got := g.Served(); got != 1 {
		t.Fatalf("handler served %d, want 1 — the cancelled request must never execute", got)
	}
}

// TestLoopbackRegisterReplacesPeer: re-registering a name is a restart —
// the old instance admits nothing more, and new sends reach the new Server.
func TestLoopbackRegisterReplacesPeer(t *testing.T) {
	lb := NewLoopback()
	defer lb.Close()
	old := &fakeServer{receipt: Receipt{Shard: 1}}
	lb.Register("loop://px", old)
	if rec, err := lb.SendUpdate(context.Background(), "loop://px", UpdateRequest{Body: []byte("u")}); err != nil || rec.Shard != 1 {
		t.Fatalf("send to first instance: rec=%+v err=%v", rec, err)
	}
	fresh := &fakeServer{receipt: Receipt{Shard: 2}}
	lb.Register("loop://px", fresh)
	if rec, err := lb.SendUpdate(context.Background(), "loop://px", UpdateRequest{Body: []byte("u")}); err != nil || rec.Shard != 2 {
		t.Fatalf("send after restart: rec=%+v err=%v, want shard 2 from the new instance", rec, err)
	}
}

// TestLoopbackHandlerErrorsPassThrough: handler results (including
// typed StatusError rejections) cross the door unchanged, so the
// bounded queue is invisible to the protocol semantics.
func TestLoopbackHandlerErrorsPassThrough(t *testing.T) {
	lb := NewLoopback()
	defer lb.Close()
	f := &fakeServer{receipt: Receipt{Shard: -1}, err: Errorf(409, "round conflict")}
	lb.Register("loop://px", f)
	_, err := lb.SendBatch(context.Background(), "loop://px", BatchRequest{Body: []byte("b"), ID: "id-1"})
	se := AsStatus(err)
	if se == nil || se.Code != 409 {
		t.Fatalf("handler's typed rejection arrived as %v, want StatusError 409", err)
	}
	if Unreached(err) {
		t.Fatal("a handler rejection reached the peer; it must NOT report Unreached")
	}
}

// orderServer records the body of every HandleUpdate in the order the
// handlers were entered, and blocks the ones whose body has a gate
// until that gate closes.
type orderServer struct {
	fakeServer
	mu      sync.Mutex
	entered []string
	gates   map[string]chan struct{}
}

func (o *orderServer) HandleUpdate(ctx context.Context, req UpdateRequest) (Receipt, error) {
	o.mu.Lock()
	o.entered = append(o.entered, string(req.Body))
	gate := o.gates[string(req.Body)]
	o.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return Receipt{Shard: 0}, nil
}

func (o *orderServer) Entered() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return slices.Clone(o.entered)
}

func (o *orderServer) waitEntered(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(o.Entered()) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("handlers entered %v, want %d", o.Entered(), n)
		}
	}
}

// TestLoopbackQueuedServedOldestFirst: with the one slot held, three
// sends queue one after another; once the slot frees they run in the
// order they arrived.
func TestLoopbackQueuedServedOldestFirst(t *testing.T) {
	lb := NewLoopbackWith(LoopbackOptions{QueueDepth: 4, Workers: 1})
	defer lb.Close()
	hold := make(chan struct{})
	o := &orderServer{gates: map[string]chan struct{}{"hold": hold}}
	lb.Register("loop://px", o)

	errc := make(chan error, 4)
	send := func(body string) {
		_, err := lb.SendUpdate(context.Background(), "loop://px", UpdateRequest{Body: []byte(body)})
		errc <- err
	}
	go send("hold")
	o.waitEntered(t, 1)
	for i, body := range []string{"first", "second", "third"} {
		go send(body)
		waitQueued(t, lb, "loop://px", i+1)
	}
	close(hold)
	for i := 0; i < 4; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("send failed: %v", err)
		}
	}
	if got, want := o.Entered(), []string{"hold", "first", "second", "third"}; !slices.Equal(got, want) {
		t.Fatalf("handlers ran %v, want %v (queued sends oldest first)", got, want)
	}
}

// TestLoopbackFreedSlotGoesToQueued: the slot a finishing request frees
// goes straight to the sender already waiting, never to a newcomer that
// arrives the moment it frees. The newcomer's ctx is already cancelled,
// so if it has to wait it gives up at once: it must come back Unreached,
// and its handler must never run.
func TestLoopbackFreedSlotGoesToQueued(t *testing.T) {
	lb := NewLoopbackWith(LoopbackOptions{QueueDepth: 4, Workers: 1})
	defer lb.Close()
	hold, queued := make(chan struct{}), make(chan struct{})
	o := &orderServer{gates: map[string]chan struct{}{"hold": hold, "queued": queued}}
	lb.Register("loop://px", o)

	qerr := make(chan error, 1)
	go func() { // polls without t: only the test goroutine may fail the test
		for len(o.Entered()) < 1 {
			time.Sleep(time.Millisecond)
		}
		go func() {
			_, err := lb.SendUpdate(context.Background(), "loop://px", UpdateRequest{Body: []byte("queued")})
			qerr <- err
		}()
		for lb.QueueDepth("loop://px") < 1 {
			time.Sleep(time.Millisecond)
		}
		close(hold)
	}()
	if _, err := lb.SendUpdate(context.Background(), "loop://px", UpdateRequest{Body: []byte("hold")}); err != nil {
		t.Fatalf("holding send failed: %v", err)
	}
	// The slot is freed; the newcomer arrives at once, on this goroutine.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := lb.SendUpdate(ctx, "loop://px", UpdateRequest{Body: []byte("newcomer")})
	if !Unreached(err) || !errors.Is(err, context.Canceled) {
		t.Fatalf("newcomer got %v, want an Unreached cancellation: the freed slot belonged to the queued sender", err)
	}
	close(queued)
	if err := <-qerr; err != nil {
		t.Fatalf("queued send failed: %v", err)
	}
	if got, want := o.Entered(), []string{"hold", "queued"}; !slices.Equal(got, want) {
		t.Fatalf("handlers ran %v, want %v", got, want)
	}
}

// noopServer answers every data-plane request without touching it.
type noopServer struct{ fakeServer }

func (*noopServer) HandleUpdate(context.Context, UpdateRequest) (Receipt, error) {
	return Receipt{Shard: 0}, nil
}
func (*noopServer) HandleHop(context.Context, HopRequest) (Receipt, error) {
	return Receipt{Shard: 0}, nil
}
func (*noopServer) HandleBatch(context.Context, BatchRequest) (Receipt, error) {
	return Receipt{Shard: 0}, nil
}

// TestLoopbackIdleSendAllocatesNothing: a data-plane send to an idle
// peer takes a slot, runs the handler on the sender's goroutine and
// gives the slot back, allocating nothing on the way.
func TestLoopbackIdleSendAllocatesNothing(t *testing.T) {
	lb := NewLoopback()
	defer lb.Close()
	lb.Register("loop://noop", &noopServer{})
	ctx, body := context.Background(), make([]byte, 64)
	for _, send := range []struct {
		name string
		do   func() error
	}{
		{"SendUpdate", func() error {
			_, err := lb.SendUpdate(ctx, "loop://noop", UpdateRequest{Body: body, ClientID: "c"})
			return err
		}},
		{"Hop", func() error {
			_, err := lb.Hop(ctx, "loop://noop", HopRequest{Body: body, Hop: 1})
			return err
		}},
		{"SendBatch", func() error {
			_, err := lb.SendBatch(ctx, "loop://noop", BatchRequest{Body: body, Hop: 1, ID: "b"})
			return err
		}},
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			if e := send.do(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", send.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s to an idle peer allocates %.1f times per send, want 0", send.name, allocs)
		}
	}
}

// TestLoopbackRegisterStartsNoGoroutine: registering and unregistering
// peers starts and leaves behind no goroutine; a send runs on its
// sender's.
func TestLoopbackRegisterStartsNoGoroutine(t *testing.T) {
	lb := NewLoopbackWith(LoopbackOptions{Workers: 4})
	defer lb.Close()
	eps := make([]string, 16)
	for i := range eps {
		eps[i] = "loop://px-" + string(rune('a'+i))
	}
	before := runtime.NumGoroutine()
	for _, ep := range eps {
		lb.Register(ep, &noopServer{})
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("registering %d peers took the process from %d to %d goroutines", len(eps), before, n)
	}
	for _, ep := range eps {
		lb.Unregister(ep)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("after unregistering every peer the process runs %d goroutines, %d before", n, before)
	}
}
