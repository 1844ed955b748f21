package transport

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"mixnn/internal/wire"
)

// HTTP is the network Transport: it speaks the exact wire protocol of
// the pre-transport binaries (paths, headers, content types — see
// package wire), so a tier using it interoperates with old peers in
// both directions. The only addition is the X-Mixnn-Proto version tag,
// which old receivers ignore and old senders omit (= version 1).
type HTTP struct {
	c    *http.Client
	pool *pool // the data plane's connections; nil: they go through c
}

// NewHTTP builds the HTTP transport; httpc may be nil for a default
// client with a 60 s timeout.
//
// The data-plane verbs (SendUpdate, Hop, SendBatch) do not go through
// httpc's RoundTripper when it is an *http.Transport (httpc's
// Transport, or http.DefaultTransport when that is nil): each send takes
// a keep-alive connection from the transport's own pool, writes the
// request head and the sender's body in one writev and reads the
// response on the caller's goroutine, so the send is done with the body
// when the write returned. The bytes on the wire are net/http's. From
// httpc the pool takes Timeout, which bounds each send together with
// its context; from the Transport, MaxConnsPerHost (a send waits in
// line for a connection, as with net/http), MaxIdleConnsPerHost (0
// means http.DefaultMaxIdleConnsPerHost), IdleConnTimeout,
// DialContext, Proxy (asked once per endpoint),
// MaxResponseHeaderBytes and DisableCompression; no other setting
// reaches a data-plane send. NewHTTP(nil) clients share one pool with
// http.DefaultTransport's settings; any other client has a pool of its
// own. The cost: the Transport's CloseIdleConnections does not reach the
// pool's connections. A peer's shutdown closes them, and the pool drops
// a closed one at its next use.
//
// Everything else goes through httpc: the control-plane requests, and
// every request when httpc's RoundTripper is not an *http.Transport,
// the Transport sets DisableKeepAlives or only the deprecated Dial, or
// the endpoint is https or reached through a proxy. A data-plane body is
// copied once on that path, so the RoundTripper may read and close it
// whenever it likes.
func NewHTTP(httpc *http.Client) *HTTP {
	if httpc == nil {
		return &HTTP{c: &http.Client{Timeout: 60 * time.Second}, pool: sharedPool()}
	}
	t := &HTTP{c: httpc}
	switch rt := httpc.Transport.(type) {
	case nil:
		t.pool = sharedPool()
	case *http.Transport:
		t.pool = newPool(rt)
	}
	return t
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
	req.Header.Set(wire.HeaderProto, protoV1)
	resp, err := t.c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		return resp, nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxMsg))
	resp.Body.Close()
	return nil, statusError(resp, msg)
}

var protoV1 = strconv.Itoa(wire.ProtoV1)

// statusError is the typed form of a non-2xx response whose body began
// with msg.
func statusError(resp *http.Response, msg []byte) *StatusError {
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
	return se
}

// post sends one data-plane POST of body to ep+path with the headers fs
// and returns the response's status code. It returns only once nothing
// it started reads body any more: on the pool's connections the write
// ran on this goroutine, and the http.Client path sends a copy.
func (t *HTTP) post(ctx context.Context, ep, path, contentType string, body []byte, fs ...field) (int, error) {
	var buf [8]field
	all := append(append(buf[:0], fs...), field{"Content-Type", contentType}, field{wire.HeaderProto, protoV1})
	var e *endpoint
	if t.pool != nil {
		e = t.pool.endpoint(ep)
	}
	if e == nil {
		return t.postCopy(ctx, ep+path, body, all)
	}
	for _, f := range all {
		if !validFieldValue(f.value) {
			return 0, &url.Error{Op: "Post", URL: ep + path, Err: fmt.Errorf("net/http: invalid header field value for %q", f.key)}
		}
	}
	sortFields(all)
	var deadline time.Time
	if t.c.Timeout > 0 {
		deadline = time.Now().Add(t.c.Timeout)
	}
	code, err := t.pool.post(ctx, e, deadline, path, body, all)
	if err != nil && AsStatus(err) == nil {
		err = &url.Error{Op: "Post", URL: ep + path, Err: err}
	}
	return code, err
}

// postCopy sends a data-plane POST through the http.Client, with a copy
// of body: the RoundTripper may read and close it after Do returned.
func (t *HTTP) postCopy(ctx context.Context, target string, body []byte, fs []field) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(bytes.Clone(body)))
	if err != nil {
		return 0, err
	}
	for _, f := range fs {
		req.Header.Set(f.key, f.value)
	}
	resp, err := t.do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// hopFields are the cascade depth and bearer secret of a hop leg.
func hopFields(buf []field, hop int, secret string) []field {
	buf = append(buf, field{wire.HeaderHop, strconv.Itoa(hop)})
	if secret != "" {
		buf = append(buf, field{"Authorization", "Bearer " + secret})
	}
	return buf
}

// SendUpdate implements Transport.
func (t *HTTP) SendUpdate(ctx context.Context, ep string, req UpdateRequest) (Receipt, error) {
	var fs []field
	if req.ClientID != "" {
		fs = []field{{wire.HeaderClient, req.ClientID}}
	}
	_, err := t.post(ctx, ep, "/v1/update", wire.ContentTypeUpdate, req.Body, fs...)
	return Receipt{Shard: -1}, err
}

// Hop implements Transport.
func (t *HTTP) Hop(ctx context.Context, ep string, req HopRequest) (Receipt, error) {
	var buf [2]field
	_, err := t.post(ctx, ep, "/v1/hop", wire.ContentTypeUpdate, req.Body, hopFields(buf[:0], req.Hop, req.Secret)...)
	return Receipt{Shard: -1}, err
}

// SendBatch implements Transport. The hop depth and secret only travel
// on cascade/relay legs (Hop > 0), exactly as the pre-transport sender
// behaved on the plaintext server leg.
func (t *HTTP) SendBatch(ctx context.Context, ep string, req BatchRequest) (Receipt, error) {
	var buf [5]field
	fs := buf[:0]
	if req.Hop > 0 {
		fs = hopFields(fs, req.Hop, req.Secret)
	}
	if req.ID != "" {
		fs = append(fs, field{wire.HeaderBatch, req.ID})
	}
	if req.HasSeq && req.Sender != "" {
		fs = append(fs, field{wire.HeaderSender, req.Sender}, field{wire.HeaderBatchSeq, strconv.FormatUint(req.Seq, 10)})
	}
	code, err := t.post(ctx, ep, "/v1/batch", wire.ContentTypeBatch, req.Body, fs...)
	if err != nil {
		return Receipt{Shard: -1}, err
	}
	return Receipt{Shard: -1, Duplicate: code == http.StatusOK}, nil
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
