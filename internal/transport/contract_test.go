package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mixnn/internal/wire"
)

// countedBody counts the Close calls one request-body reader receives.
type countedBody struct {
	io.ReadCloser
	closes atomic.Int32
}

func (b *countedBody) Close() error {
	b.closes.Add(1)
	return b.ReadCloser.Close()
}

// lateCloser is an http.RoundTripper over net/http's own transport that
// closes every request body it is handed about 20ms after RoundTrip
// returned — late, as the RoundTripper contract allows. Like a retrying
// RoundTripper it also takes one GetBody copy of each body and reads it.
// It forges the header that makes the server answer before it reads the
// body, so net/http may still be writing the body when the response is
// back.
type lateCloser struct {
	next http.RoundTripper

	mu      sync.Mutex
	readers []*countedBody // every reader of the current send
	wg      sync.WaitGroup // the late closes
}

func (l *lateCloser) RoundTrip(req *http.Request) (*http.Response, error) {
	out := req.Clone(req.Context())
	// Participants may not stamp a cascade depth, and the hop routes
	// refuse one that does not parse: either way a 400 before the read.
	if req.URL.Path == "/v1/update" {
		out.Header.Set(wire.HeaderHop, "1")
	} else {
		out.Header.Set(wire.HeaderHop, "deep")
	}
	var held []*countedBody
	if req.Body != nil && req.Body != http.NoBody {
		held = append(held, &countedBody{ReadCloser: req.Body})
		cp, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		c := &countedBody{ReadCloser: cp}
		if _, err := io.Copy(io.Discard, c); err != nil {
			return nil, err
		}
		held = append(held, c)
		out.Body = io.NopCloser(held[0]) // net/http's close stops here
	}
	l.mu.Lock()
	l.readers = append(l.readers, held...)
	l.mu.Unlock()
	resp, err := l.next.RoundTrip(out)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		time.Sleep(20 * time.Millisecond)
		for _, b := range held {
			b.Close()
		}
	}()
	return resp, err
}

// take returns the readers of the send just made and starts a new list.
func (l *lateCloser) take() []*countedBody {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.readers
	l.readers = nil
	return r
}

// TestHTTPSendReturnsAfterBodyClosed pins the HTTP half of the Transport
// contract: a data-plane send returns only once every reader of the body
// it handed net/http — the request's own and each GetBody copy — was
// closed, exactly once each, even when the server answered before reading
// the body and the RoundTripper closes late. Only then may the sender
// reuse the buffer.
func TestHTTPSendReturnsAfterBodyClosed(t *testing.T) {
	srv := httptest.NewServer(NewHandler(&fakeServer{receipt: Receipt{Shard: -1}}))
	defer srv.Close()
	rt := &lateCloser{next: srv.Client().Transport}
	defer rt.wg.Wait()
	tr := NewHTTP(&http.Client{Transport: rt})
	ctx := context.Background()
	body := bytes.Repeat([]byte{0x5C}, 64<<10)
	for _, send := range []struct {
		name string
		do   func() error
	}{
		{"SendUpdate", func() error {
			_, err := tr.SendUpdate(ctx, srv.URL, UpdateRequest{Body: body})
			return err
		}},
		{"Hop", func() error {
			_, err := tr.Hop(ctx, srv.URL, HopRequest{Body: body, Hop: 1})
			return err
		}},
		{"SendBatch", func() error {
			_, err := tr.SendBatch(ctx, srv.URL, BatchRequest{Body: body, Hop: 1, ID: "late"})
			return err
		}},
	} {
		err := send.do()
		readers := rt.take()
		for i, r := range readers {
			if n := r.closes.Load(); n != 1 {
				t.Fatalf("%s returned with body reader %d closed %d times, want exactly once", send.name, i, n)
			}
		}
		if len(readers) != 2 {
			t.Fatalf("%s: the RoundTripper saw %d body readers, want the body and one GetBody copy", send.name, len(readers))
		}
		if se := AsStatus(err); se == nil || se.Code != http.StatusBadRequest {
			t.Fatalf("%s answered %v, want the 400 sent before the body was read", send.name, err)
		}
	}
}

// handlerReader is a Server whose data-plane handlers wait until the
// sender's context is cancelled and only then read the body, slowly.
type handlerReader struct {
	fakeServer
	entered chan struct{}
	sum     atomic.Int64 // the body's byte sum, stored after the last read
}

func (h *handlerReader) read(ctx context.Context, body []byte) (Receipt, error) {
	h.entered <- struct{}{}
	<-ctx.Done()
	var sum int64
	for i, b := range body {
		if i%(len(body)/4) == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		sum += int64(b)
	}
	h.sum.Store(sum)
	return Receipt{Shard: -1}, nil
}

func (h *handlerReader) HandleUpdate(ctx context.Context, req UpdateRequest) (Receipt, error) {
	return h.read(ctx, req.Body)
}
func (h *handlerReader) HandleHop(ctx context.Context, req HopRequest) (Receipt, error) {
	return h.read(ctx, req.Body)
}
func (h *handlerReader) HandleBatch(ctx context.Context, req BatchRequest) (Receipt, error) {
	return h.read(ctx, req.Body)
}

// TestLoopbackSendReturnsAfterHandler pins the Loopback half of the
// Transport contract: a send whose context is cancelled while the
// handler runs returns only after the handler's last read of the body —
// the worker's claim makes the send wait for the handler rather than
// report the cancellation — so the sender may overwrite the body the
// moment the call returns.
func TestLoopbackSendReturnsAfterHandler(t *testing.T) {
	lb := NewLoopback()
	defer lb.Close()
	h := &handlerReader{entered: make(chan struct{}, 1)}
	lb.Register("loop://reader", h)
	body := bytes.Repeat([]byte{3}, 4096)
	want := int64(3 * len(body))
	for _, send := range []struct {
		name string
		do   func(ctx context.Context) error
	}{
		{"SendUpdate", func(ctx context.Context) error {
			_, err := lb.SendUpdate(ctx, "loop://reader", UpdateRequest{Body: body})
			return err
		}},
		{"Hop", func(ctx context.Context) error {
			_, err := lb.Hop(ctx, "loop://reader", HopRequest{Body: body, Hop: 1})
			return err
		}},
		{"SendBatch", func(ctx context.Context) error {
			_, err := lb.SendBatch(ctx, "loop://reader", BatchRequest{Body: body, Hop: 1})
			return err
		}},
	} {
		h.sum.Store(-1)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-h.entered
			cancel()
		}()
		err := send.do(ctx)
		got := h.sum.Load()
		cancel()
		if err != nil {
			t.Fatalf("%s: a send the handler ran returned %v, want the handler's result", send.name, err)
		}
		if got != want {
			t.Fatalf("%s returned before the handler's last read of the body (sum %d, want %d)", send.name, got, want)
		}
	}
}

// TestHTTPDirectWriteReturnsBeforeSend pins the lease contract on the
// connections NewHTTP dials, which write a body from the sender's bytes
// in one Write: a send returns only after that Write returned. Twice per
// transport — a send cancelled while its Write is blocked on a peer that
// never reads, and a send the server answered with a 400 before it read
// the body — for a caller's *http.Transport and for NewHTTP(nil). A
// Transport that dials for itself keeps net/http's own copy.
func TestHTTPDirectWriteReturnsBeforeSend(t *testing.T) {
	body := bytes.Repeat([]byte{0x3C}, 16<<20) // far more than the socket buffers hold

	// A peer that accepts and never reads.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()
	stalled := "http://" + ln.Addr().String()

	// A server whose handler is told the participant forged a cascade
	// depth, so it answers 400 before it reads the body.
	h := NewHandler(&fakeServer{receipt: Receipt{Shard: -1}})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Set(wire.HeaderHop, "1")
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	if NewHTTP(nil).c.Transport == http.DefaultTransport {
		t.Fatal("NewHTTP(nil) sends through http.DefaultTransport, want its own clone")
	}
	var d net.Dialer
	for _, tc := range []struct {
		name   string
		tr     *HTTP
		direct bool
	}{
		{"caller's Transport", NewHTTP(&http.Client{Transport: &http.Transport{}}), true},
		{"NewHTTP(nil)", NewHTTP(nil), true},
		{"Transport with its own dialer", NewHTTP(&http.Client{Transport: &http.Transport{DialContext: d.DialContext}}), false},
	} {
		want := int64(0)
		if tc.direct {
			want = 1
		}
		// send runs one SendUpdate and reports its error and how many
		// direct writes started and returned by the time it returned.
		send := func(ctx context.Context, ep string) (started, returned int64, err error) {
			s0, r0 := DirectWrites()
			_, err = tc.tr.SendUpdate(ctx, ep, UpdateRequest{Body: body})
			s1, r1 := DirectWrites()
			return s1 - s0, r1 - r0, err
		}

		ctx, cancel := context.WithCancel(context.Background())
		type result struct {
			err               error
			started, returned int64
		}
		done := make(chan result, 1)
		s0, r0 := DirectWrites()
		go func() {
			s, r, err := send(ctx, stalled)
			done <- result{err, s, r}
		}()
		if tc.direct {
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if s, _ := DirectWrites(); s > s0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: no direct write started", tc.name)
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
		if _, r := DirectWrites(); r != r0 {
			t.Fatalf("%s: the write returned to a peer that never reads", tc.name)
		}
		select {
		case res := <-done:
			t.Fatalf("%s: the send returned (%v) before it was cancelled", tc.name, res.err)
		default:
		}
		cancel()
		res := <-done
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("%s: cancelled send returned %v", tc.name, res.err)
		}
		if res.started != want || res.returned != want {
			t.Fatalf("%s: cancelled send returned with %d direct writes started and %d returned, want %d and %d", tc.name, res.started, res.returned, want, want)
		}

		started, returned, err := send(context.Background(), srv.URL)
		if se := AsStatus(err); se == nil || se.Code != http.StatusBadRequest {
			t.Fatalf("%s answered %v, want the 400 sent before the body was read", tc.name, err)
		}
		if started != want || returned != want {
			t.Fatalf("%s: answered send returned with %d direct writes started and %d returned, want %d and %d", tc.name, started, returned, want, want)
		}
	}
}

// TestHTTPDirectWriteOutlivesClose: a reader closed while its direct
// write blocks — a RoundTripper may close a body from any goroutine —
// does not hand the body back: wait returns only once the Write did, and
// no reader opens after it.
func TestHTTPDirectWriteOutlivesClose(t *testing.T) {
	sb := &sentBody{buf: bytes.Repeat([]byte{7}, 1<<10)}
	sb.cond.L = &sb.mu
	rc, err := sb.reader()
	if err != nil {
		t.Fatal(err)
	}
	conn := &blockingConn{entered: make(chan struct{}), release: make(chan struct{})}
	wrote := make(chan int64, 1)
	go func() {
		n, _ := directConn{conn}.ReadFrom(&io.LimitedReader{R: rc, N: int64(len(sb.buf))})
		wrote <- n
	}()
	<-conn.entered
	rc.Close()
	waited := make(chan struct{})
	go func() {
		sb.wait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("wait returned while a direct write of the body was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(conn.release)
	<-waited
	if n := <-wrote; n != int64(len(sb.buf)) {
		t.Fatalf("the direct write reported %d bytes, want %d", n, len(sb.buf))
	}
	if _, err := sb.reader(); err == nil {
		t.Fatal("a reader opened after wait returned")
	}
}

// blockingConn's Write blocks until release is closed. It has no other
// working method.
type blockingConn struct {
	net.Conn
	entered, release chan struct{}
}

func (c *blockingConn) Write(p []byte) (int, error) {
	close(c.entered)
	<-c.release
	return len(p), nil
}
