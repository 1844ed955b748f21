package transport

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mixnn/internal/wire"
)

// HTTP is the network Transport: it speaks the exact wire protocol of
// the pre-transport binaries (paths, headers, content types — see
// package wire), so a tier using it interoperates with old peers in
// both directions. The only addition is the X-Mixnn-Proto version tag,
// which old receivers ignore and old senders omit (= version 1).
type HTTP struct {
	c *http.Client
}

// NewHTTP builds the HTTP transport; httpc may be nil for a default
// client with a 60 s timeout. The client's RoundTripper must close every
// request body, as net/http's does: a data-plane send waits for those
// closes before it returns.
//
// A data-plane body goes to the socket from the sender's own bytes, in
// one Write, where the connection is one NewHTTP dialled: net/http would
// otherwise copy it through a fresh 32KB buffer per request. Those are
// the connections of NewHTTP(nil), which share one clone of
// http.DefaultTransport (http.DefaultTransport itself is left alone), and
// of a caller's *http.Transport that sets none of DialContext, Dial,
// DialTLSContext and DialTLS: NewHTTP installs its dialer on that
// Transport in place, so call it before the Transport carries requests.
// Any other RoundTripper, a Transport with a dialer of its own, and TLS
// connections send as net/http does.
func NewHTTP(httpc *http.Client) *HTTP {
	if httpc == nil {
		return &HTTP{c: &http.Client{Timeout: 60 * time.Second, Transport: sharedTransport()}}
	}
	if ht, ok := httpc.Transport.(*http.Transport); ok && ht.DialContext == nil && ht.Dial == nil && ht.DialTLSContext == nil && ht.DialTLS == nil {
		ht.DialContext = directDial(nil)
		// net/http upgrades https to HTTP/2 by itself only for a Transport
		// without a dialer or TLS config; keep that as it was.
		ht.ForceAttemptHTTP2 = ht.ForceAttemptHTTP2 || ht.TLSClientConfig == nil
	}
	return &HTTP{c: httpc}
}

// sharedTransport is the one connection pool of every NewHTTP(nil)
// client, as http.DefaultTransport was: its settings and dialer, the
// dialer's connections writing bodies directly.
var sharedTransport = sync.OnceValue(func() http.RoundTripper {
	dt, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return http.DefaultTransport
	}
	ht := dt.Clone()
	ht.DialContext = directDial(dt.DialContext)
	return ht
})

// directDial wraps dial's connections in directConn. A nil dial is what
// net/http dials with when a Transport sets no dialer.
func directDial(dial func(ctx context.Context, network, addr string) (net.Conn, error)) func(ctx context.Context, network, addr string) (net.Conn, error) {
	if dial == nil {
		var d net.Dialer
		dial = d.DialContext
	}
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return directConn{c}, nil
	}
}

// directConn is a connection net/http hands request bodies to: for a
// declared-length body it calls ReadFrom with an *io.LimitedReader over
// the request's body. Over a sentBodyReader that is one Write of the
// sender's bytes; anything else goes where it went without the wrapper.
type directConn struct{ net.Conn }

func (c directConn) ReadFrom(r io.Reader) (int64, error) {
	if lr, ok := r.(*io.LimitedReader); ok {
		if br, ok := lr.R.(*sentBodyReader); ok {
			return br.writeTo(c.Conn, lr)
		}
	}
	return io.Copy(c.Conn, r)
}

// do runs one request, mapping non-2xx responses onto StatusError and
// returning the body reader to the caller (closed on error).
//
// Version negotiation is one-sided by design: the RECEIVER refuses
// requests claiming a future version (it cannot honour semantics it
// does not implement), but a response's version stamp is purely
// informational — a newer peer that accepted our older request has
// already served it compatibly, and discarding the acknowledgement
// would turn a success into a retry.
func (t *HTTP) do(req *http.Request) (*http.Response, error) {
	req.Header.Set(wire.HeaderProto, strconv.Itoa(wire.ProtoV1))
	resp, err := t.c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		return resp, nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	se := &StatusError{
		Code:           resp.StatusCode,
		Stale:          resp.Header.Get(wire.HeaderStale) != "",
		SessionUnknown: resp.Header.Get(wire.HeaderSessionUnknown) != "",
		Msg:            string(bytes.TrimSpace(msg)),
	}
	// Retry-After rides admission rejections (429); the delay-seconds
	// form only — the HTTP-date form is not worth a time parse here.
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return nil, se
}

// post builds and runs one POST, discarding the response body. It
// returns only once net/http has closed every reader of body it opened
// (see sentBody), which is what lets the caller reuse body afterwards.
func (t *HTTP) post(ctx context.Context, url, contentType string, body []byte, hdr func(http.Header)) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, http.NoBody)
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		sb := &sentBody{buf: body}
		sb.cond.L = &sb.mu
		defer sb.wait()
		req.ContentLength = int64(len(body))
		req.Body, _ = sb.reader()
		req.GetBody = sb.reader
	}
	req.Header.Set("Content-Type", contentType)
	if hdr != nil {
		hdr(req.Header)
	}
	resp, err := t.do(req)
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	return resp, nil
}

// sentBody hands one request body to net/http and tells the sender when
// net/http is done with it. A RoundTripper must close the request body,
// and each copy it took through GetBody, but may do so after RoundTrip
// returned (net/http's own closes it from the connection's write loop);
// so a sender that reuses the bytes waits for those closes. Every reader
// counts from open to its first Close, a closed reader reads nothing
// more, and once wait returned no reader is opened again: from then on
// nothing net/http holds touches buf. A directConn's Write of buf counts
// too, from its start to its return, whatever Close ran meanwhile.
type sentBody struct {
	buf     []byte
	mu      sync.Mutex
	cond    sync.Cond // on mu; signalled when open or writing drops to 0
	open    int       // readers opened and not yet closed
	writing int       // direct writes of buf in flight
	done    bool      // wait returned: buf is the sender's again
}

// reader opens one reader of the body: the request's own, or a GetBody
// copy.
func (b *sentBody) reader() (io.ReadCloser, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return nil, errBodyClosed
	}
	b.open++
	return &sentBodyReader{b: b}, nil
}

// wait blocks until every reader opened so far was closed and no direct
// write of buf is in flight.
func (b *sentBody) wait() {
	b.mu.Lock()
	for b.open > 0 || b.writing > 0 {
		b.cond.Wait()
	}
	b.done = true
	b.mu.Unlock()
}

var errBodyClosed = errors.New("transport: request body used after its Close or after the send returned")

// directWrites counts direct writes as they start and as they return;
// tests read it.
var directWrites struct{ started, returned atomic.Int64 }

type sentBodyReader struct {
	b      *sentBody
	off    int // bytes of b.buf read or written so far
	closed bool
}

func (r *sentBodyReader) Read(p []byte) (int, error) {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	if r.closed {
		return 0, errBodyClosed
	}
	if r.off == len(r.b.buf) {
		return 0, io.EOF
	}
	n := copy(p, r.b.buf[r.off:])
	r.off += n
	return n, nil
}

// writeTo writes what lr has left of the body to w in one Write of buf
// itself. The mutex is not held across the Write, which may block for as
// long as the peer does not read; the write counts as in flight instead.
func (r *sentBodyReader) writeTo(w io.Writer, lr *io.LimitedReader) (int64, error) {
	b := r.b
	b.mu.Lock()
	if r.closed {
		b.mu.Unlock()
		return 0, errBodyClosed
	}
	p := b.buf[r.off:]
	p = p[:min(int64(len(p)), lr.N)]
	b.writing++
	b.mu.Unlock()

	directWrites.started.Add(1)
	n, err := w.Write(p)
	directWrites.returned.Add(1)

	b.mu.Lock()
	r.off += n
	lr.N -= int64(n)
	if b.writing--; b.writing == 0 {
		b.cond.Broadcast()
	}
	b.mu.Unlock()
	return int64(n), err
}

func (r *sentBodyReader) Close() error {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	if !r.closed {
		r.closed = true
		if r.b.open--; r.b.open == 0 {
			r.b.cond.Broadcast()
		}
	}
	return nil
}

// hopHeaders stamps the cascade depth and bearer secret of a hop leg.
func hopHeaders(hop int, secret string) func(http.Header) {
	return func(h http.Header) {
		h.Set(wire.HeaderHop, strconv.Itoa(hop))
		if secret != "" {
			h.Set("Authorization", "Bearer "+secret)
		}
	}
}

// SendUpdate implements Transport.
func (t *HTTP) SendUpdate(ctx context.Context, ep string, req UpdateRequest) (Receipt, error) {
	_, err := t.post(ctx, ep+"/v1/update", wire.ContentTypeUpdate, req.Body, func(h http.Header) {
		if req.ClientID != "" {
			h.Set(wire.HeaderClient, req.ClientID)
		}
	})
	return Receipt{Shard: -1}, err
}

// Hop implements Transport.
func (t *HTTP) Hop(ctx context.Context, ep string, req HopRequest) (Receipt, error) {
	_, err := t.post(ctx, ep+"/v1/hop", wire.ContentTypeUpdate, req.Body, hopHeaders(req.Hop, req.Secret))
	return Receipt{Shard: -1}, err
}

// SendBatch implements Transport. The hop depth and secret only travel
// on cascade/relay legs (Hop > 0), exactly as the pre-transport sender
// behaved on the plaintext server leg.
func (t *HTTP) SendBatch(ctx context.Context, ep string, req BatchRequest) (Receipt, error) {
	resp, err := t.post(ctx, ep+"/v1/batch", wire.ContentTypeBatch, req.Body, func(h http.Header) {
		if req.Hop > 0 {
			hopHeaders(req.Hop, req.Secret)(h)
		}
		if req.ID != "" {
			h.Set(wire.HeaderBatch, req.ID)
		}
		if req.HasSeq && req.Sender != "" {
			h.Set(wire.HeaderSender, req.Sender)
			h.Set(wire.HeaderBatchSeq, strconv.FormatUint(req.Seq, 10))
		}
	})
	if err != nil {
		return Receipt{Shard: -1}, err
	}
	return Receipt{Shard: -1, Duplicate: resp.StatusCode == http.StatusOK}, nil
}

// get runs one GET through the status mapping.
func (t *HTTP) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return t.do(req)
}

// Attest implements Transport.
func (t *HTTP) Attest(ctx context.Context, ep string, nonce []byte) (wire.AttestationResponse, error) {
	var ar wire.AttestationResponse
	resp, err := t.get(ctx, fmt.Sprintf("%s/v1/attestation?nonce=%s", ep, hex.EncodeToString(nonce)))
	if err != nil {
		return ar, err
	}
	defer resp.Body.Close()
	if err := wire.DecodeJSON(resp.Body, &ar); err != nil {
		return ar, err
	}
	return ar, nil
}

// Model implements Transport.
func (t *HTTP) Model(ctx context.Context, ep string) (ModelResponse, error) {
	resp, err := t.get(ctx, ep+"/v1/model")
	if err != nil {
		return ModelResponse{}, err
	}
	defer resp.Body.Close()
	round, err := strconv.Atoi(resp.Header.Get(wire.HeaderRound))
	if err != nil {
		return ModelResponse{}, fmt.Errorf("transport: missing round header: %w", err)
	}
	body, err := wire.ReadBody(nil, resp.Body, resp.ContentLength, wire.MaxBodyBytes)
	if err != nil {
		return ModelResponse{}, err
	}
	return ModelResponse{Round: round, Body: body}, nil
}

// Topology implements Transport: GET when req.Directive is nil, POST
// otherwise.
func (t *HTTP) Topology(ctx context.Context, ep string, req TopologyRequest) (wire.TopologyStatus, error) {
	var st wire.TopologyStatus
	var hreq *http.Request
	var err error
	if req.Directive == nil {
		hreq, err = http.NewRequestWithContext(ctx, http.MethodGet, ep+"/v1/admin/topology", nil)
	} else {
		var body []byte
		if body, err = json.Marshal(req.Directive); err != nil {
			return st, err
		}
		hreq, err = http.NewRequestWithContext(ctx, http.MethodPost, ep+"/v1/admin/topology", bytes.NewReader(body))
		if hreq != nil {
			hreq.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return st, err
	}
	if req.Secret != "" {
		hreq.Header.Set("Authorization", "Bearer "+req.Secret)
	}
	resp, err := t.do(hreq)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := wire.DecodeJSON(resp.Body, &st); err != nil {
		return st, err
	}
	return st, nil
}

// Discover implements Transport.
func (t *HTTP) Discover(ctx context.Context, ep string) (wire.DiscoverResponse, error) {
	var dr wire.DiscoverResponse
	resp, err := t.get(ctx, ep+"/v1/discover")
	if err != nil {
		return dr, err
	}
	defer resp.Body.Close()
	if err := wire.DecodeJSON(resp.Body, &dr); err != nil {
		return dr, err
	}
	return dr, nil
}

// Status implements Transport, sniffing which status form the peer
// serves: proxies report a "shards" array, aggregation servers an
// "expect_per_round" counter.
func (t *HTTP) Status(ctx context.Context, ep string) (StatusResponse, error) {
	resp, err := t.get(ctx, ep+"/v1/status")
	if err != nil {
		return StatusResponse{}, err
	}
	defer resp.Body.Close()
	raw, err := wire.ReadBody(nil, resp.Body, resp.ContentLength, wire.MaxBodyBytes)
	if err != nil {
		return StatusResponse{}, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		return StatusResponse{}, fmt.Errorf("transport: decode status: %w", err)
	}
	if _, ok := probe["shards"]; ok {
		var ps wire.ShardedProxyStatus
		if err := json.Unmarshal(raw, &ps); err != nil {
			return StatusResponse{}, fmt.Errorf("transport: decode proxy status: %w", err)
		}
		return StatusResponse{Proxy: &ps}, nil
	}
	var ss wire.ServerStatus
	if err := json.Unmarshal(raw, &ss); err != nil {
		return StatusResponse{}, fmt.Errorf("transport: decode server status: %w", err)
	}
	return StatusResponse{Server: &ss}, nil
}
