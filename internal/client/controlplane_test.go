package client_test

import (
	"context"
	"encoding/hex"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// ctrlServer is the typed server fixture for control-plane SDK tests:
// real attestation (a shared platform, one enclave per endpoint) so a
// single Participant can pin keys for several endpoints through the
// normal handshake, a scripted discovery advertisement, and an update
// handler that refuses the first N sends with a scripted rejection
// before accepting.
type ctrlServer struct {
	platform *enclave.Platform
	encl     *enclave.Enclave

	mu        sync.Mutex
	updates   int
	attempts  int
	failFirst int
	failErr   error
	discover  wire.DiscoverResponse
	discErr   error
}

func (s *ctrlServer) HandleUpdate(ctx context.Context, req transport.UpdateRequest) (transport.Receipt, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts++
	if s.failFirst > 0 {
		s.failFirst--
		return transport.Receipt{Shard: -1}, s.failErr
	}
	s.updates++
	return transport.Receipt{Shard: 0}, nil
}
func (s *ctrlServer) HandleAttest(ctx context.Context, nonce []byte) (wire.AttestationResponse, error) {
	rep, err := s.platform.Attest(s.encl, nonce)
	if err != nil {
		return wire.AttestationResponse{}, err
	}
	return wire.AttestationResponse{
		MeasurementHex: hex.EncodeToString(rep.Measurement[:]),
		NonceHex:       hex.EncodeToString(rep.Nonce),
		PubKeyDER:      rep.PubKeyDER,
		Signature:      rep.Signature,
	}, nil
}
func (s *ctrlServer) HandleDiscover(ctx context.Context) (wire.DiscoverResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.discover, s.discErr
}

// setHealth rescripts the endpoint's advertisement, as a live proxy
// would when its load changes.
func (s *ctrlServer) setHealth(h float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.discover.Health = h
}

func (s *ctrlServer) counts() (updates, attempts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.updates, s.attempts
}

func (s *ctrlServer) HandleHop(ctx context.Context, req transport.HopRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, transport.ErrNotSupported
}
func (s *ctrlServer) HandleBatch(ctx context.Context, req transport.BatchRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, transport.ErrNotSupported
}
func (s *ctrlServer) HandleModel(ctx context.Context) (transport.ModelResponse, error) {
	return transport.ModelResponse{}, transport.ErrNotSupported
}
func (s *ctrlServer) HandleTopology(ctx context.Context, req transport.TopologyRequest) (wire.TopologyStatus, error) {
	return wire.TopologyStatus{}, transport.ErrNotSupported
}
func (s *ctrlServer) HandleStatus(ctx context.Context) (transport.StatusResponse, error) {
	return transport.StatusResponse{}, transport.ErrNotSupported
}

// ctrlTier builds n ctrlServers on one platform (same measurement, so
// one trust bundle attests them all) registered as loop://front-0..n-1.
func ctrlTier(t *testing.T, lb *transport.Loopback, n int) (*enclave.Platform, []*ctrlServer) {
	t.Helper()
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*ctrlServer, n)
	for i := range servers {
		encl, err := enclave.New(enclave.Config{}, platform)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = &ctrlServer{platform: platform, encl: encl}
		lb.Register(frontEP(i), servers[i])
	}
	return platform, servers
}

func frontEP(i int) string {
	return "loop://front-" + string(rune('0'+i))
}

func tooMany(retryAfter time.Duration) *transport.StatusError {
	return &transport.StatusError{
		Code:       http.StatusTooManyRequests,
		RetryAfter: retryAfter,
		Msg:        "over rate budget",
	}
}

// TestSendUpdate429FailsOver pins the admission contract on the walk:
// a 429 from the primary is endpoint-specific (that proxy's gate
// refused before ingesting anything), NOT material — the send must
// fail over to the next proxy and succeed there, never surface the
// 429 as a permanent rejection.
func TestSendUpdate429FailsOver(t *testing.T) {
	lb := transport.NewLoopback()
	platform, servers := ctrlTier(t, lb, 2)
	servers[0].failFirst = 1 << 30 // primary sheds forever
	servers[0].failErr = tooMany(time.Second)
	p, err := client.New(client.Config{
		Proxies:   []string{frontEP(0), frontEP(1)},
		Transport: lb,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p.Attest(ctx, platform.AttestationPublicKey(), servers[0].encl.Measurement()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.SendUpdate(ctx, testUpdate()); err != nil {
		t.Fatalf("429 at the primary must fail over, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("failover took %v; the walk must not sleep on the primary's Retry-After when a fallback accepted", elapsed)
	}
	if u, _ := servers[0].counts(); u != 0 {
		t.Fatalf("shedding primary ingested %d updates, want 0", u)
	}
	if u, _ := servers[1].counts(); u != 1 {
		t.Fatalf("fallback saw %d updates, want 1", u)
	}
}

// TestSendUpdate429RetryAfterThenRecovers: when EVERY proxy answers
// 429, the walk provably ingested nothing, so the SDK must honour the
// Retry-After hint — wait at least that long — and retry until the
// tier admits the update, rather than returning the transient
// rejection to the caller.
func TestSendUpdate429RetryAfterThenRecovers(t *testing.T) {
	const hint = 20 * time.Millisecond
	lb := transport.NewLoopback()
	platform, servers := ctrlTier(t, lb, 1)
	servers[0].failFirst = 2
	servers[0].failErr = tooMany(hint)
	p, err := client.New(client.Config{Proxies: []string{frontEP(0)}, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p.Attest(ctx, platform.AttestationPublicKey(), servers[0].encl.Measurement()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.SendUpdate(ctx, testUpdate()); err != nil {
		t.Fatalf("an all-429 walk must retry after the hint, got: %v", err)
	}
	elapsed := time.Since(start)
	if u, a := servers[0].counts(); u != 1 || a != 3 {
		t.Fatalf("got %d updates over %d attempts, want exactly 1 over 3 (two 429s, one acceptance)", u, a)
	}
	// Two refused walks → two waits of at least one hint each. An SDK
	// ignoring Retry-After would come back after its own ~1-3ms backoff
	// and finish far under this bound.
	if elapsed < 2*hint {
		t.Fatalf("recovered in %v, want >= %v: the Retry-After hint was not honoured", elapsed, 2*hint)
	}
}

// TestSendUpdate429RespectsContext: the 429 retry loop is bounded by
// ctx like the busy loop — a caller's deadline must cut the waiting.
func TestSendUpdate429RespectsContext(t *testing.T) {
	lb := transport.NewLoopback()
	platform, servers := ctrlTier(t, lb, 1)
	servers[0].failFirst = 1 << 30
	servers[0].failErr = tooMany(time.Hour)
	p, err := client.New(client.Config{Proxies: []string{frontEP(0)}, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Attest(context.Background(), platform.AttestationPublicKey(), servers[0].encl.Measurement()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.SendUpdate(ctx, testUpdate()); err == nil {
		t.Fatal("a permanently rate-limited tier must surface an error once ctx expires")
	}
	if u, _ := servers[0].counts(); u != 0 {
		t.Fatalf("rate-limited proxy ingested %d updates, want 0", u)
	}
}

// TestDiscoverBootstrapsFromSeed: a participant configured with ONE
// seed endpoint learns the full front list from the seed's
// advertisement (transitively) and ranks it healthiest-first; after
// one front degrades, the next sweep demotes it. This is the
// self-healing loop of the control plane: operators hand out one
// endpoint, the tier advertises the rest.
func TestDiscoverBootstrapsFromSeed(t *testing.T) {
	lb := transport.NewLoopback()
	_, servers := ctrlTier(t, lb, 3)
	peers := []string{frontEP(0), frontEP(1), frontEP(2)}
	for i, s := range servers {
		s.discover = wire.DiscoverResponse{
			Endpoint: frontEP(i),
			Peers:    peers,
		}
	}
	servers[0].setHealth(0.5)
	servers[1].setHealth(0.9)
	servers[2].setHealth(0.7)

	p, err := client.New(client.Config{Proxies: []string{frontEP(0)}, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	want := []string{frontEP(1), frontEP(2), frontEP(0)}
	if got := p.Proxies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("bootstrap from one seed: got %v, want %v (ranked by health)", got, want)
	}

	// front-1 starts shedding: its advertised health collapses below
	// every non-shedding front's, and the next sweep demotes it to the
	// tail of the failover list.
	servers[1].setHealth(0.08)
	if err := p.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	want = []string{frontEP(2), frontEP(0), frontEP(1)}
	if got := p.Proxies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after front-1 degraded: got %v, want %v", got, want)
	}
}

// TestDiscoverKeepsListWhenTierUnreachable: a sweep that reaches no
// endpoint must not clobber the configured list — an empty sweep means
// the network is broken, not that the fronts vanished.
func TestDiscoverKeepsListWhenTierUnreachable(t *testing.T) {
	lb := transport.NewLoopback() // nothing registered
	p, err := client.New(client.Config{Proxies: []string{"loop://a", "loop://b"}, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Discover(context.Background()); err == nil {
		t.Fatal("an all-unreachable sweep must return an error")
	}
	if got, want := p.Proxies(), []string{"loop://a", "loop://b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("failed sweep rewrote the list: got %v, want %v", got, want)
	}
}

// TestDiscoverNeutralOnPreDiscoveryProxy: an endpoint without a
// discovery surface (404/ErrNotSupported — an older proxy) scores
// neutral and keeps its configured position; discovery must not
// penalise a deployment that simply predates it.
func TestDiscoverNeutralOnPreDiscoveryProxy(t *testing.T) {
	lb := transport.NewLoopback()
	lb.Register("loop://old-a", &recordingServer{}) // HandleDiscover → ErrNotSupported
	lb.Register("loop://old-b", &recordingServer{})
	p, err := client.New(client.Config{Proxies: []string{"loop://old-a", "loop://old-b"}, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Discover(context.Background()); err != nil {
		t.Fatalf("a reachable pre-discovery tier must not fail the sweep: %v", err)
	}
	if got, want := p.Proxies(), []string{"loop://old-a", "loop://old-b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-discovery tier reordered: got %v, want %v (configured order)", got, want)
	}
}

// TestDiscoveryConcurrentWithSends drives StartDiscovery's refresh
// loop while sends walk the list — the snapshot discipline must hold
// under the race detector.
func TestDiscoveryConcurrentWithSends(t *testing.T) {
	lb := transport.NewLoopback()
	platform, servers := ctrlTier(t, lb, 2)
	peers := []string{frontEP(0), frontEP(1)}
	for i, s := range servers {
		s.discover = wire.DiscoverResponse{Endpoint: frontEP(i), Peers: peers, Health: 0.5}
	}
	p, err := client.New(client.Config{Proxies: []string{frontEP(0)}, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Attest(ctx, platform.AttestationPublicKey(), servers[0].encl.Measurement()); err != nil {
		t.Fatal(err)
	}
	p.StartDiscovery(ctx, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := p.SendUpdate(ctx, testUpdate()); err != nil {
					t.Errorf("sender %d: %v", g, err)
					return
				}
				servers[g%2].setHealth(float64(i) / 10)
			}
		}(g)
	}
	wg.Wait()
	ua, _ := servers[0].counts()
	ub, _ := servers[1].counts()
	if ua+ub != 20 {
		t.Fatalf("tier ingested %d updates, want 20 (none lost or duplicated across re-ranks)", ua+ub)
	}
}

// walkRecorder records, per send, the endpoints its failover walk
// tried, keyed by the walkID the send's ctx carries.
type walkRecorder struct {
	transport.Transport
	mu    sync.Mutex
	walks map[int][]string
}

type walkID struct{}

func (w *walkRecorder) SendUpdate(ctx context.Context, ep string, req transport.UpdateRequest) (transport.Receipt, error) {
	w.mu.Lock()
	id := ctx.Value(walkID{}).(int)
	w.walks[id] = append(w.walks[id], ep)
	w.mu.Unlock()
	return w.Transport.SendUpdate(ctx, ep, req)
}

// TestDiscoverReRankNeverBendsAWalk: Discover re-ranks the failover
// list over and over while sends walk it. Every proxy answers 503, so
// each send walks the whole list; a walk reads the list once and a
// published list is never written, so every walk must try each
// endpoint exactly once, whatever order the re-ranks leave.
func TestDiscoverReRankNeverBendsAWalk(t *testing.T) {
	const fronts, senders, sends = 4, 4, 25
	lb := transport.NewLoopback()
	platform, servers := ctrlTier(t, lb, fronts)
	peers := make([]string, fronts)
	for i := range peers {
		peers[i] = frontEP(i)
	}
	for i, s := range servers {
		s.discover = wire.DiscoverResponse{Endpoint: frontEP(i), Peers: peers}
		s.failFirst, s.failErr = 1<<30, transport.Errorf(http.StatusServiceUnavailable, "draining")
	}
	rec := &walkRecorder{Transport: lb, walks: make(map[int][]string)}
	p, err := client.New(client.Config{Proxies: peers, Transport: rec})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Attest(ctx, platform.AttestationPublicKey(), servers[0].encl.Measurement()); err != nil {
		t.Fatal(err)
	}

	var rerank sync.WaitGroup
	for g := 0; g < 2; g++ {
		rerank.Add(1)
		go func(g int) {
			defer rerank.Done()
			for i := 0; ctx.Err() == nil; i++ {
				servers[(i+g)%fronts].setHealth(float64((i*7+g)%10) / 10)
				_ = p.Discover(ctx)
			}
		}(g)
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < sends; i++ {
				sctx := context.WithValue(ctx, walkID{}, g*sends+i)
				if err := p.SendUpdate(sctx, testUpdate()); err == nil {
					t.Errorf("sender %d: a send succeeded with every proxy answering 503", g)
				}
			}
		}(g)
	}
	wg.Wait()
	cancel()
	rerank.Wait()

	if len(rec.walks) != senders*sends {
		t.Fatalf("recorded %d walks, want %d", len(rec.walks), senders*sends)
	}
	for id, walk := range rec.walks {
		got := slices.Clone(walk)
		slices.Sort(got)
		if !slices.Equal(got, peers) {
			t.Fatalf("walk %d tried %v, want each of %v exactly once", id, walk, peers)
		}
	}
}
