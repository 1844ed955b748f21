package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"mixnn/internal/wire"
)

// fakeServer records the typed requests it receives and answers with
// scripted results, so the HTTP client ↔ HTTP adapter pair can be
// checked for lossless round-tripping.
type fakeServer struct {
	lastUpdate *UpdateRequest
	lastHop    *HopRequest
	lastBatch  *BatchRequest
	lastNonce  []byte
	lastTopo   *TopologyRequest

	receipt Receipt
	err     error
}

// The recorded requests outlive the call, so their bodies are copies
// (the Server contract: a body is valid only until the method returns) —
// never nil, so that recorded requests compare with reflect.DeepEqual.
func (f *fakeServer) HandleUpdate(ctx context.Context, req UpdateRequest) (Receipt, error) {
	req.Body = append([]byte{}, req.Body...)
	f.lastUpdate = &req
	return f.receipt, f.err
}
func (f *fakeServer) HandleHop(ctx context.Context, req HopRequest) (Receipt, error) {
	req.Body = append([]byte{}, req.Body...)
	f.lastHop = &req
	return f.receipt, f.err
}
func (f *fakeServer) HandleBatch(ctx context.Context, req BatchRequest) (Receipt, error) {
	req.Body = append([]byte{}, req.Body...)
	f.lastBatch = &req
	return f.receipt, f.err
}
func (f *fakeServer) HandleAttest(ctx context.Context, nonce []byte) (wire.AttestationResponse, error) {
	f.lastNonce = nonce
	return wire.AttestationResponse{MeasurementHex: "aa", NonceHex: "bb"}, f.err
}
func (f *fakeServer) HandleModel(ctx context.Context) (ModelResponse, error) {
	return ModelResponse{Round: 7, Body: []byte("model-bytes")}, f.err
}
func (f *fakeServer) HandleTopology(ctx context.Context, req TopologyRequest) (wire.TopologyStatus, error) {
	f.lastTopo = &req
	return wire.TopologyStatus{Version: 3, Mode: "sticky", RoundSize: 8}, f.err
}
func (f *fakeServer) HandleStatus(ctx context.Context) (StatusResponse, error) {
	return StatusResponse{Proxy: &wire.ShardedProxyStatus{RoundSize: 8, Shards: []wire.ShardStatus{{}}}}, f.err
}
func (f *fakeServer) HandleDiscover(ctx context.Context) (wire.DiscoverResponse, error) {
	return wire.DiscoverResponse{Endpoint: "fake", Peers: []string{"peer-a", "peer-b"}, Health: 0.75}, f.err
}

func pair(t *testing.T) (*fakeServer, *HTTP, string) {
	t.Helper()
	f := &fakeServer{receipt: Receipt{Shard: -1}}
	srv := httptest.NewServer(NewHandler(f))
	t.Cleanup(srv.Close)
	return f, NewHTTP(srv.Client()), srv.URL
}

func TestHTTPRoundTripUpdate(t *testing.T) {
	f, tr, url := pair(t)
	if _, err := tr.SendUpdate(context.Background(), url, UpdateRequest{Body: []byte("ct"), ClientID: "alice"}); err != nil {
		t.Fatal(err)
	}
	if f.lastUpdate == nil || string(f.lastUpdate.Body) != "ct" || f.lastUpdate.ClientID != "alice" {
		t.Fatalf("server saw %+v", f.lastUpdate)
	}
}

func TestHTTPRoundTripHop(t *testing.T) {
	f, tr, url := pair(t)
	if _, err := tr.Hop(context.Background(), url, HopRequest{Body: []byte("h"), Hop: 3, Secret: "s3cr3t"}); err != nil {
		t.Fatal(err)
	}
	if f.lastHop == nil || f.lastHop.Hop != 3 || f.lastHop.Secret != "s3cr3t" || string(f.lastHop.Body) != "h" {
		t.Fatalf("server saw %+v", f.lastHop)
	}
}

func TestHTTPRoundTripBatch(t *testing.T) {
	f, tr, url := pair(t)
	req := BatchRequest{Body: []byte("env"), Hop: 2, Secret: "x", ID: "id-1", Sender: "box-a", Seq: 41, HasSeq: true}
	if _, err := tr.SendBatch(context.Background(), url, req); err != nil {
		t.Fatal(err)
	}
	got := f.lastBatch
	if got == nil || got.Hop != 2 || got.Secret != "x" || got.ID != "id-1" ||
		got.Sender != "box-a" || got.Seq != 41 || !got.HasSeq || string(got.Body) != "env" {
		t.Fatalf("server saw %+v", got)
	}
	// The plaintext server leg carries no hop depth or secret on the
	// wire (bit-compatibility with the pre-transport sender).
	f.lastBatch = nil
	if _, err := tr.SendBatch(context.Background(), url, BatchRequest{Body: []byte("env"), Hop: 0, Secret: "ignored"}); err != nil {
		t.Fatal(err)
	}
	if f.lastBatch.Hop != 0 || f.lastBatch.Secret != "" {
		t.Fatalf("server-leg batch leaked hop metadata: %+v", f.lastBatch)
	}
}

func TestHTTPRoundTripDuplicateBatch(t *testing.T) {
	f, tr, url := pair(t)
	f.receipt = Receipt{Shard: -1, Duplicate: true}
	rcpt, err := tr.SendBatch(context.Background(), url, BatchRequest{Body: []byte("b"), ID: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	if !rcpt.Duplicate {
		t.Fatal("duplicate acknowledgement (200) not surfaced in the receipt")
	}
}

func TestHTTPStatusErrorMapping(t *testing.T) {
	f, tr, url := pair(t)
	f.err = &StatusError{Code: http.StatusConflict, Stale: true, Msg: "stale batch redelivery"}
	_, err := tr.SendBatch(context.Background(), url, BatchRequest{Body: []byte("b"), ID: "x"})
	se := AsStatus(err)
	if se == nil || se.Code != http.StatusConflict || !se.Stale {
		t.Fatalf("typed rejection lost in transit: %v", err)
	}
	f.err = ErrNotSupported
	if _, err := tr.Model(context.Background(), url); AsStatus(err) == nil || AsStatus(err).Code != http.StatusNotFound {
		t.Fatalf("ErrNotSupported must arrive as a 404 StatusError, got %v", err)
	}
}

func TestHTTPAttestAndModelAndTopology(t *testing.T) {
	f, tr, url := pair(t)
	ar, err := tr.Attest(context.Background(), url, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.lastNonce, []byte{1, 2, 3}) || ar.MeasurementHex != "aa" {
		t.Fatalf("attest round trip: nonce %x, resp %+v", f.lastNonce, ar)
	}
	m, err := tr.Model(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if m.Round != 7 || string(m.Body) != "model-bytes" {
		t.Fatalf("model round trip: %+v", m)
	}
	// GET (nil directive) and POST (non-nil) both land, secret intact.
	if _, err := tr.Topology(context.Background(), url, TopologyRequest{Secret: "adm"}); err != nil {
		t.Fatal(err)
	}
	if f.lastTopo.Directive != nil || f.lastTopo.Secret != "adm" {
		t.Fatalf("topology GET saw %+v", f.lastTopo)
	}
	d := &wire.TopologyDirective{Mode: "hash-quota", RoundSize: 12, SyncPeers: true}
	if _, err := tr.Topology(context.Background(), url, TopologyRequest{Directive: d, Secret: "adm"}); err != nil {
		t.Fatal(err)
	}
	got := f.lastTopo
	if got.Directive == nil || got.Directive.Mode != "hash-quota" || got.Directive.RoundSize != 12 || !got.Directive.SyncPeers {
		t.Fatalf("topology POST saw %+v", got.Directive)
	}
	st, err := tr.Status(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if st.Proxy == nil || st.Proxy.RoundSize != 8 {
		t.Fatalf("status sniffing failed: %+v", st)
	}
}

// TestHandlerRequiresBearerScheme: a scheme-less Authorization header
// must NOT surface its raw value as the secret — the pre-transport
// handlers compared the whole header against "Bearer "+secret, so a
// bare secret never authorized anything.
func TestHandlerRequiresBearerScheme(t *testing.T) {
	f, _, url := pair(t)
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/hop", bytes.NewReader([]byte("x")))
	req.Header.Set("Authorization", "s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if f.lastHop.Secret != "" {
		t.Fatalf("scheme-less Authorization surfaced as secret %q", f.lastHop.Secret)
	}
	req, _ = http.NewRequest(http.MethodPost, url+"/v1/hop", bytes.NewReader([]byte("x")))
	req.Header.Set("Authorization", "Bearer s3cret")
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if f.lastHop.Secret != "s3cret" {
		t.Fatalf("bearer token lost: %q", f.lastHop.Secret)
	}
}

func TestHandlerRejectsForgedHopOnUpdate(t *testing.T) {
	_, _, url := pair(t)
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/update", bytes.NewReader([]byte("x")))
	req.Header.Set(wire.HeaderHop, "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged hop on the participant endpoint returned %s, want 400", resp.Status)
	}
}

func TestHandlerProtoNegotiation(t *testing.T) {
	f, _, url := pair(t)
	// A request claiming a FUTURE protocol version is refused with the
	// permanent 426 class; current and absent versions pass.
	for _, tc := range []struct {
		proto string
		want  int
	}{
		{"", http.StatusAccepted},
		{strconv.Itoa(wire.ProtoV1), http.StatusAccepted},
		{strconv.Itoa(wire.ProtoV1 + 1), http.StatusUpgradeRequired},
		{"junk", http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(http.MethodPost, url+"/v1/update", bytes.NewReader([]byte("x")))
		if tc.proto != "" {
			req.Header.Set(wire.HeaderProto, tc.proto)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("proto %q returned %s, want %d", tc.proto, resp.Status, tc.want)
		}
		if got := resp.Header.Get(wire.HeaderProto); got != strconv.Itoa(wire.ProtoV1) {
			t.Fatalf("response proto header = %q", got)
		}
	}
	_ = f
}

type fakeTimeout struct{}

func (fakeTimeout) Error() string { return "i/o timeout" }
func (fakeTimeout) Timeout() bool { return true }

// TestUnreached pins the provably-not-delivered classification the
// SDK's failover safety rests on.
func TestUnreached(t *testing.T) {
	if !Unreached(fmt.Errorf("wrap: %w", ErrUnreachable)) {
		t.Fatal("wrapped ErrUnreachable must be unreached")
	}
	// A dial failure never sent request bytes — including a dial
	// TIMEOUT (blackholed host).
	dial := &url.Error{Op: "Post", URL: "http://x", Err: &net.OpError{Op: "dial", Err: fakeTimeout{}}}
	if !Unreached(dial) {
		t.Fatal("dial timeout must be unreached (no bytes sent)")
	}
	refused := &url.Error{Op: "Post", URL: "http://x", Err: &net.OpError{Op: "dial", Err: errors.New("connection refused")}}
	if !Unreached(refused) {
		t.Fatal("connection refused must be unreached")
	}
	// A timeout AFTER the connection was up is ambiguous.
	respWait := &url.Error{Op: "Post", URL: "http://x", Err: fakeTimeout{}}
	if Unreached(respWait) {
		t.Fatal("post-dial timeout must be ambiguous")
	}
	read := &url.Error{Op: "Post", URL: "http://x", Err: &net.OpError{Op: "read", Err: errors.New("connection reset")}}
	if Unreached(read) {
		t.Fatal("mid-exchange reset must be ambiguous")
	}
	if Unreached(errors.New("anything else")) {
		t.Fatal("unknown errors must be ambiguous")
	}
}

func TestLoopbackRegistry(t *testing.T) {
	lb := NewLoopback()
	f := &fakeServer{receipt: Receipt{Shard: 1}}
	lb.Register("loop://px", f)
	rcpt, err := lb.SendUpdate(context.Background(), "loop://px", UpdateRequest{Body: []byte("u")})
	if err != nil || rcpt.Shard != 1 {
		t.Fatalf("loopback send: %v %+v", err, rcpt)
	}
	if _, err := lb.SendUpdate(context.Background(), "loop://nowhere", UpdateRequest{}); err == nil {
		t.Fatal("unregistered peer must be unreachable")
	} else if AsStatus(err) != nil {
		t.Fatal("unreachable must be a transport error (transient), not a typed rejection")
	}
	lb.Unregister("loop://px")
	if _, err := lb.SendUpdate(context.Background(), "loop://px", UpdateRequest{}); err == nil {
		t.Fatal("unregistered peer must be unreachable after Unregister")
	}
	// Typed errors cross the loopback verbatim — no lossy re-encode.
	f2 := &fakeServer{err: &StatusError{Code: 508, Msg: "depth"}}
	lb.Register("loop://px2", f2)
	_, err = lb.Hop(context.Background(), "loop://px2", HopRequest{Hop: 9})
	if se := AsStatus(err); se == nil || se.Code != 508 {
		t.Fatalf("loopback error fidelity: %v", err)
	}
}
