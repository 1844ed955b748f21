package transport

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// pool is HTTP's keep-alive pool for the data-plane verbs. A send takes
// a connection, writes the request head and the sender's body in one
// writev, and reads the response from the connection's bufio.Reader,
// all on the caller's goroutine: no net/http client goroutine sits
// between the caller and the socket, and when the write returned the
// send is done with the body. Its settings are the caller's
// *http.Transport's (see newPool); it has none of its own.
type pool struct {
	dial        func(ctx context.Context, network, addr string) (net.Conn, error)
	proxy       func(*http.Request) (*url.URL, error)
	maxConns    int           // per host; 0 = unbounded
	maxIdle     int           // idle connections kept per host
	idleTimeout time.Duration // 0 = an idle connection waits for its next use
	maxHeader   int64         // bytes of a response head
	gzip        bool          // ask for gzip, as net/http does unless DisableCompression

	mu    sync.Mutex
	eps   map[string]*endpoint // by endpoint base URL
	hosts map[string]*host     // by dial address
}

// newPool builds the pool for sends through ht, or returns nil when
// ht's settings ask for something the pool does not do.
func newPool(ht *http.Transport) *pool {
	if ht.DisableKeepAlives || ht.DialContext == nil && ht.Dial != nil {
		return nil // "Connection: close" on every request, or the deprecated dialer
	}
	p := &pool{
		dial:        ht.DialContext,
		proxy:       ht.Proxy,
		maxConns:    ht.MaxConnsPerHost,
		maxIdle:     ht.MaxIdleConnsPerHost,
		idleTimeout: ht.IdleConnTimeout,
		maxHeader:   ht.MaxResponseHeaderBytes,
		gzip:        !ht.DisableCompression,
		eps:         make(map[string]*endpoint),
		hosts:       make(map[string]*host),
	}
	if p.dial == nil {
		var d net.Dialer
		p.dial = d.DialContext
	}
	if p.maxIdle == 0 {
		p.maxIdle = http.DefaultMaxIdleConnsPerHost
	}
	if p.maxHeader == 0 {
		p.maxHeader = 10 << 20 // net/http's default
	}
	return p
}

// sharedPool is the one pool of every NewHTTP(nil) client, with
// http.DefaultTransport's settings, as those clients shared one
// connection pool when they sent through it.
var sharedPool = sync.OnceValue(func() *pool {
	if dt, ok := http.DefaultTransport.(*http.Transport); ok {
		return newPool(dt)
	}
	return nil
})

// endpoint is what the pool derived once from an endpoint base URL.
type endpoint struct {
	host    *host
	hostHdr string // the Host header
	prefix  string // the request target's path before the verb's path
}

// host is the connections to one dial address.
type host struct {
	addr  string
	slots chan struct{} // a slot per connection in use; nil when unbounded
	idle  []*conn       // under pool.mu; most recently used last
}

// endpoint returns ep's entry, deriving it on first use; nil means
// sends to ep go through http.Client.
func (p *pool) endpoint(ep string) *endpoint {
	p.mu.Lock()
	e, ok := p.eps[ep]
	p.mu.Unlock()
	if ok {
		return e
	}
	e, addr := p.resolve(ep) // unlocked: it asks the caller's Proxy
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.eps[ep]; ok {
		return prev
	}
	if e != nil {
		if e.host = p.hosts[addr]; e.host == nil {
			e.host = &host{addr: addr}
			if p.maxConns > 0 {
				e.host.slots = make(chan struct{}, p.maxConns)
			}
			p.hosts[addr] = e.host
		}
	}
	p.eps[ep] = e
	return e
}

// resolve derives ep's entry and dial address. Anything but plain http
// to a direct host in the form this package builds endpoints in goes
// through http.Client: https, a proxy, user info, a query, a host that
// is not ASCII.
func (p *pool) resolve(ep string) (*endpoint, string) {
	u, err := url.Parse(ep)
	if err != nil || u.Scheme != "http" || u.Host == "" || u.User != nil || u.Opaque != "" ||
		u.RawQuery != "" || u.ForceQuery || u.Fragment != "" || !plainHost(u.Host) {
		return nil, ""
	}
	if p.proxy != nil {
		pu, err := p.proxy(&http.Request{Method: http.MethodPost, URL: u, Header: make(http.Header), Host: u.Host})
		if err != nil || pu != nil {
			return nil, ""
		}
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &endpoint{hostHdr: strings.TrimSuffix(u.Host, ":"), prefix: u.EscapedPath()}, addr
}

// plainHost reports whether host needs none of net/http's rewriting
// (IDNA, an IPv6 zone) before it is dialled and sent as the Host header.
func plainHost(host string) bool {
	for i := 0; i < len(host); i++ {
		if b := host[i]; b <= ' ' || b >= 0x7f || b == '%' {
			return false
		}
	}
	return true
}

// field is one header of a data-plane request.
type field struct{ key, value string }

// validFieldValue is net/http's rule for a header value: no control
// byte but the horizontal tab.
func validFieldValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if b := v[i]; b < ' ' && b != '\t' || b == 0x7f {
			return false
		}
	}
	return true
}

// errClientTimeout is the send's http.Client Timeout expiring while it
// waited for a connection slot.
var errClientTimeout error = timeoutError("transport: Client.Timeout exceeded while awaiting a connection")

type timeoutError string

func (e timeoutError) Error() string { return string(e) }
func (timeoutError) Timeout() bool   { return true }

// post sends one POST of body to e, its headers fs sorted by key, and
// returns the response's status code. It returns only after its write of
// body returned. deadline is the client's Timeout as a point in time,
// zero for none; the ctx deadline applies as well.
func (p *pool) post(ctx context.Context, e *endpoint, deadline time.Time, path string, body []byte, fs []field) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	h := e.host
	if h.slots != nil {
		if err := h.acquire(ctx, deadline); err != nil {
			return 0, err
		}
		defer func() { <-h.slots }()
	}
	c, err := p.get(ctx, h, deadline)
	if err != nil {
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		return 0, err
	}
	return c.roundTrip(ctx, e, deadline, path, body, fs)
}

// acquire takes one of h's connection slots, waiting in line for it.
func (h *host) acquire(ctx context.Context, deadline time.Time) error {
	select {
	case h.slots <- struct{}{}:
		return nil
	default:
	}
	var expire <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expire = t.C
	}
	select {
	case h.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-expire:
		if err := ctx.Err(); err != nil {
			return err
		}
		return errClientTimeout
	}
}

// get returns an idle connection to h that is still open, or dials one.
func (p *pool) get(ctx context.Context, h *host, deadline time.Time) (*conn, error) {
	for {
		p.mu.Lock()
		n := len(h.idle)
		if n == 0 {
			p.mu.Unlock()
			break
		}
		c := h.idle[n-1]
		h.idle[n-1] = nil
		h.idle = h.idle[:n-1]
		c.idle = false
		p.mu.Unlock()
		if c.idleTimer != nil {
			c.idleTimer.Stop() // an expiry that already fired finds c taken
		}
		if c.open() {
			return c, nil
		}
		c.Close()
	}
	dctx := ctx
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		dctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	nc, err := p.dial(dctx, "tcp", h.addr)
	if err != nil {
		return nil, err
	}
	c := &conn{Conn: nc, p: p, h: h, lim: io.LimitedReader{R: nc}}
	c.br = bufio.NewReader(&c.lim)
	if sc, ok := nc.(syscall.Conn); ok {
		if c.raw, err = sc.SyscallConn(); err != nil {
			c.raw = nil
		}
	}
	c.abort, c.peekFn = c.abortIO, c.peek
	return c, nil
}

// put returns c to its host's idle connections, or closes it when they
// are full.
func (p *pool) put(c *conn) {
	p.mu.Lock()
	if len(c.h.idle) >= p.maxIdle {
		p.mu.Unlock()
		c.Close()
		return
	}
	c.idle = true
	c.h.idle = append(c.h.idle, c)
	if p.idleTimeout > 0 {
		if c.idleTimer == nil {
			c.idleTimer = time.AfterFunc(p.idleTimeout, c.expire)
		} else {
			c.idleTimer.Reset(p.idleTimeout)
		}
	}
	p.mu.Unlock()
}

// conn is one pooled connection.
type conn struct {
	net.Conn
	p         *pool
	h         *host
	lim       io.LimitedReader // under br: bounds a response head
	br        *bufio.Reader
	raw       syscall.RawConn // nil: not a socket, reused without a peek
	head      []byte          // the request head, rebuilt per send
	vec       [2][]byte       // head and body of the write in flight
	bufs      net.Buffers
	idle      bool // in h.idle; under pool.mu
	idleTimer *time.Timer
	abort     func()                // abortIO, bound once
	peekFn    func(fd uintptr) bool // peek, bound once
	alive     bool                  // peek's finding
	scratch   [512]byte
}

// abortIO fails the connection's pending I/O at once.
func (c *conn) abortIO() { c.SetDeadline(time.Unix(1, 0)) }

// expire closes c if it is still idle when its idle timeout fires.
func (c *conn) expire() {
	p := c.p
	p.mu.Lock()
	if !c.idle {
		p.mu.Unlock()
		return
	}
	c.idle = false
	for i, o := range c.h.idle {
		if o == c {
			c.h.idle = append(c.h.idle[:i], c.h.idle[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	c.Close()
}

// open reports whether an idle connection may carry another request: no
// byte arrived while it was idle, and the peer did not close it. Without
// the check, a send after the peer went away would write into a closed
// connection and read an ambiguous EOF instead of dialling and being
// refused.
func (c *conn) open() bool {
	if c.br.Buffered() > 0 {
		return false
	}
	if c.raw == nil {
		return true
	}
	c.alive = false
	if err := c.raw.Read(c.peekFn); err != nil {
		return false
	}
	return c.alive
}

// roundTrip sends one request on c and reads its response, then pools c
// or closes it.
func (c *conn) roundTrip(ctx context.Context, e *endpoint, deadline time.Time, path string, body []byte, fs []field) (int, error) {
	c.head = appendHead(c.head[:0], e, path, len(body), fs, c.p.gzip)
	if !deadline.IsZero() {
		c.SetDeadline(deadline)
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.abort)
	}
	werr := c.write(body)
	// An answer that arrives before the body was read wins over the
	// write's error, as net/http's read loop makes it win: a handler may
	// refuse a request on its headers and never read the body.
	c.lim.N = c.p.maxHeader
	resp, err := http.ReadResponse(c.br, nil)
	c.lim.N = math.MaxInt64
	var msg []byte
	ended := false
	if err == nil {
		msg, ended, err = c.readBody(resp)
	}
	aborted := stop != nil && !stop()
	if err != nil || werr != nil || aborted || resp.Close || !ended {
		c.Close()
	} else {
		if !deadline.IsZero() {
			c.SetDeadline(time.Time{}) // a pooled connection has none
		}
		c.p.put(c)
	}
	if err != nil {
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		if werr != nil {
			return 0, werr
		}
		return 0, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, statusError(resp, msg)
}

// write sends the request head and body in one writev. Under the race
// detector it sends them in two Writes instead: the detector takes a
// socket write made through syscall.Write as a release the peer's read
// acquires, but not a writev, and would report a handler in this process
// as racing with what its sender did before the send.
func (c *conn) write(body []byte) error {
	if raceEnabled {
		if _, err := c.Conn.Write(c.head); err != nil {
			return err
		}
		_, err := c.Conn.Write(body)
		return err
	}
	c.vec = [2][]byte{c.head, body}
	c.bufs = c.vec[:]
	_, err := c.bufs.WriteTo(c.Conn)
	c.vec, c.bufs = [2][]byte{}, nil // the body is the sender's again
	return err
}

// readBody reads a response body: a success's to its end if it is
// short, a rejection's message up to 4KB. ended reports whether the body
// was read to its end, without which the connection is not reused.
func (c *conn) readBody(resp *http.Response) (msg []byte, ended bool, err error) {
	ok := resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted
	if ok {
		for n := 0; n < len(c.scratch); {
			m, err := resp.Body.Read(c.scratch[n:])
			n += m
			if err == io.EOF {
				return nil, true, nil
			}
			if err != nil {
				return nil, false, err
			}
		}
		return nil, false, nil
	}
	msg, err = io.ReadAll(io.LimitReader(resp.Body, maxMsg+1))
	if err != nil {
		return nil, false, err
	}
	ended = len(msg) <= maxMsg
	msg = msg[:min(len(msg), maxMsg)]
	if c.p.gzip && resp.Header.Get("Content-Encoding") == "gzip" {
		// net/http would have decompressed it.
		if zr, err := gzip.NewReader(bytes.NewReader(msg)); err == nil {
			msg, _ = io.ReadAll(io.LimitReader(zr, maxMsg))
		}
	}
	return msg, ended, nil
}

// maxMsg bounds the rejection message a send reads.
const maxMsg = 4096

// appendHead appends the head of a data-plane POST to b, byte for byte
// what net/http writes for it: the request line, Host, User-Agent,
// Content-Length, the headers sorted by key with their values trimmed,
// and Accept-Encoding.
func appendHead(b []byte, e *endpoint, path string, n int, fs []field, gzip bool) []byte {
	b = append(b, "POST "...)
	b = append(b, e.prefix...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, e.hostHdr...)
	b = append(b, "\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, "\r\n"...)
	for _, f := range fs {
		b = append(b, f.key...)
		b = append(b, ": "...)
		b = append(b, strings.Trim(f.value, " \t")...)
		b = append(b, "\r\n"...)
	}
	if gzip {
		b = append(b, "Accept-Encoding: gzip\r\n"...)
	}
	return append(b, "\r\n"...)
}

// sortFields sorts a request's few headers by key, as net/http writes
// them.
func sortFields(fs []field) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].key < fs[j-1].key; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}
