package client_test

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/nn"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// recordingServer is a minimal typed server for SDK unit tests: it
// records ingress and answers with a scripted result.
type recordingServer struct {
	updates int
	err     error
}

func (r *recordingServer) HandleUpdate(ctx context.Context, req transport.UpdateRequest) (transport.Receipt, error) {
	if r.err != nil {
		return transport.Receipt{Shard: -1}, r.err
	}
	r.updates++
	return transport.Receipt{Shard: 0}, nil
}
func (r *recordingServer) HandleHop(ctx context.Context, req transport.HopRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, transport.ErrNotSupported
}
func (r *recordingServer) HandleBatch(ctx context.Context, req transport.BatchRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, transport.ErrNotSupported
}
func (r *recordingServer) HandleAttest(ctx context.Context, nonce []byte) (wire.AttestationResponse, error) {
	return wire.AttestationResponse{}, transport.ErrNotSupported
}
func (r *recordingServer) HandleModel(ctx context.Context) (transport.ModelResponse, error) {
	return transport.ModelResponse{}, transport.ErrNotSupported
}
func (r *recordingServer) HandleTopology(ctx context.Context, req transport.TopologyRequest) (wire.TopologyStatus, error) {
	return wire.TopologyStatus{}, transport.ErrNotSupported
}
func (r *recordingServer) HandleStatus(ctx context.Context) (transport.StatusResponse, error) {
	return transport.StatusResponse{}, transport.ErrNotSupported
}
func (r *recordingServer) HandleDiscover(ctx context.Context) (wire.DiscoverResponse, error) {
	return wire.DiscoverResponse{}, transport.ErrNotSupported
}

func testUpdate() nn.ParamSet {
	return nn.NewMLP("net", 4, []int{6}, 2).New(1).SnapshotParams()
}

func testKey(t *testing.T) *ecdh.PublicKey {
	t.Helper()
	key, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return key.PublicKey()
}

func TestNewRequiresProxies(t *testing.T) {
	if _, err := client.New(client.Config{Server: "loop://agg"}); err == nil {
		t.Fatal("New must refuse a config without proxies")
	}
}

func TestSendUpdateRequiresTrust(t *testing.T) {
	lb := transport.NewLoopback()
	p, err := client.New(client.Config{Proxies: []string{"loop://px"}, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SendUpdate(context.Background(), testUpdate()); err == nil {
		t.Fatal("SendUpdate without trust or a pinned key must fail")
	}
}

func TestSendUpdatePinnedKey(t *testing.T) {
	lb := transport.NewLoopback()
	srv := &recordingServer{}
	lb.Register("loop://px", srv)
	p, err := client.New(client.Config{Proxies: []string{"loop://px"}, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	p.SetEnclaveKey(testKey(t))
	if err := p.SendUpdate(context.Background(), testUpdate()); err != nil {
		t.Fatal(err)
	}
	if srv.updates != 1 {
		t.Fatalf("server saw %d updates, want 1", srv.updates)
	}
}

// TestSendUpdateNoFailoverOnRejection: a definitive 4xx from the first
// proxy is returned immediately — every proxy would reject the same
// material, and the primary provably did not ingest it, so trying the
// next proxy could only duplicate a future accepted send.
func TestSendUpdateNoFailoverOnRejection(t *testing.T) {
	lb := transport.NewLoopback()
	a := &recordingServer{err: &transport.StatusError{Code: http.StatusBadRequest, Msg: "decode"}}
	b := &recordingServer{}
	lb.Register("loop://a", a)
	lb.Register("loop://b", b)
	p, err := client.New(client.Config{Proxies: []string{"loop://a", "loop://b"}, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t)
	p.SetEnclaveKey(key) // pins loop://a (the primary)
	if err := p.SendUpdate(context.Background(), testUpdate()); err == nil {
		t.Fatal("definitive rejection must surface as an error")
	}
	if b.updates != 0 {
		t.Fatal("a definitive 4xx must NOT fail over to the next proxy")
	}
}

// TestSendUpdateNoFailoverOnGatewayAmbiguity: 502/504 conventionally
// come from an intermediary whose backend may have ingested the update
// before the gateway gave up — the SDK must stop rather than risk
// double-counting the participant on another proxy.
func TestSendUpdateNoFailoverOnGatewayAmbiguity(t *testing.T) {
	for _, code := range []int{http.StatusBadGateway, http.StatusGatewayTimeout} {
		lb := transport.NewLoopback()
		a := &recordingServer{err: &transport.StatusError{Code: code, Msg: http.StatusText(code)}}
		b := &recordingServer{}
		lb.Register("loop://a", a)
		lb.Register("loop://b", b)
		p, err := client.New(client.Config{Proxies: []string{"loop://a", "loop://b"}, Transport: lb})
		if err != nil {
			t.Fatal(err)
		}
		p.SetEnclaveKey(testKey(t))
		if err := p.SendUpdate(context.Background(), testUpdate()); err == nil {
			t.Fatalf("%d must surface as an error", code)
		}
		if b.updates != 0 {
			t.Fatalf("a %d must NOT fail over (backend may have ingested)", code)
		}
	}
}

// TestSendUpdateFailsOverOnTransportError: an unreachable primary is
// skipped. The second proxy has no pinned key and no trust material is
// configured, so the walk records both failures and reports them.
func TestSendUpdateFailoverWalk(t *testing.T) {
	lb := transport.NewLoopback()
	b := &recordingServer{}
	lb.Register("loop://b", b) // loop://a intentionally unregistered
	p, err := client.New(client.Config{Proxies: []string{"loop://a", "loop://b"}, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	p.SetEnclaveKey(testKey(t)) // pins loop://a only
	err = p.SendUpdate(context.Background(), testUpdate())
	if err == nil {
		t.Fatal("send must fail when no reachable proxy has a key")
	}
	// Now pin b's key out of band too (a deployment distributing keys
	// alongside trust bundles): the same walk succeeds on the fallback.
	p2, err := client.New(client.Config{Proxies: []string{"loop://b"}, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	p2.SetEnclaveKey(testKey(t))
	if err := p2.SendUpdate(context.Background(), testUpdate()); err != nil {
		t.Fatal(err)
	}
	if b.updates != 1 {
		t.Fatalf("fallback proxy saw %d updates, want 1", b.updates)
	}
}

// pollServer serves the model endpoint of an aggregation server that is
// `behind` polls short of round 1. While behind it serves round 0 with a
// body that does not decode: a stale model is never used, so whether
// the SDK decoded it shows as a decode error.
type pollServer struct {
	recordingServer
	mu     sync.Mutex
	behind int
	polls  int
	model  []byte
}

func (p *pollServer) HandleModel(ctx context.Context) (transport.ModelResponse, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.polls++
	if p.polls <= p.behind {
		return transport.ModelResponse{Round: 0, Body: []byte("stale model, not worth a decode")}, nil
	}
	return transport.ModelResponse{Round: 1, Body: p.model}, nil
}

// TestWaitForRoundDecodesOnlyTheAwaitedModel: WaitForRound downloads the
// model on every poll (that is the protocol's round probe) but decodes
// only the one it returns.
func TestWaitForRoundDecodesOnlyTheAwaitedModel(t *testing.T) {
	model, err := nn.EncodeParamSet(testUpdate())
	if err != nil {
		t.Fatal(err)
	}
	lb := transport.NewLoopback()
	defer lb.Close()
	srv := &pollServer{behind: 3, model: model}
	lb.Register("loop://agg", srv)
	p, err := client.New(client.Config{Proxies: []string{"loop://px"}, Server: "loop://agg", Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	round, ps, err := p.WaitForRound(context.Background(), 1, time.Millisecond)
	if err != nil {
		t.Fatalf("stale polls must be skipped undecoded: %v", err)
	}
	if round != 1 || !ps.ApproxEqual(testUpdate(), 0) || srv.polls != 4 {
		t.Fatalf("round %d after %d polls, model equal=%v", round, srv.polls, ps.ApproxEqual(testUpdate(), 0))
	}
	// A server that never advances: the wait ends on the deadline, not on
	// a decode error from a model nobody asked for.
	srv.polls, srv.behind = 0, 1<<30
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := p.WaitForRound(ctx, 1, time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiting on a stalled server: %v, want the deadline", err)
	}
	// FetchModel still decodes whatever round is current.
	if _, _, err := p.FetchModel(context.Background()); err == nil {
		t.Fatal("FetchModel returned an undecodable model as decoded")
	}
}
