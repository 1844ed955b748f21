package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
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

// TestHTTPSendReturnsAfterBodyClosed pins the lease rule of the
// Transport contract on the pool's connections: once a data-plane send
// returned, the sender may overwrite its body, even where the server
// answered before it read the body and reads it only after the send
// returned. The server still reads the bytes as sent.
func TestHTTPSendReturnsAfterBodyClosed(t *testing.T) {
	const sent = 0x5C
	body := make([]byte, 16<<10) // well inside the socket buffers: the write returns unread
	overwritten := make(chan struct{}, 1)
	verdict := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
			verdict <- err
			return
		}
		w.Header().Set("Content-Length", "0")
		w.WriteHeader(http.StatusBadRequest)
		w.(http.Flusher).Flush()
		select {
		case <-overwritten:
			verdict <- readAsSent(r.Body, sent, len(body))
		case <-time.After(10 * time.Second):
			verdict <- errors.New("the send did not return while the server left its body unread")
		}
	}))
	defer srv.Close()
	tr := NewHTTP(&http.Client{Transport: &http.Transport{}})
	ctx := context.Background()
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
		for i := range body {
			body[i] = sent
		}
		err := send.do()
		clear(body)
		overwritten <- struct{}{}
		if se := AsStatus(err); se == nil || se.Code != http.StatusBadRequest {
			t.Fatalf("%s answered %v, want the 400 sent before the body was read", send.name, err)
		}
		if err := <-verdict; err != nil {
			t.Fatalf("%s: %v", send.name, err)
		}
	}
}

// lateCloser is an http.RoundTripper over net/http's own transport that
// reads and closes the request body it is handed about 20ms after
// RoundTrip returned — late, as the RoundTripper contract allows — and
// so does a GetBody copy it takes, as a retrying RoundTripper would. It
// forges the header that makes the server answer before it reads the
// body, so net/http may still be writing the body when the response is
// back.
type lateCloser struct {
	next http.RoundTripper

	mu   sync.Mutex
	late [][]byte       // what each late reader read
	wg   sync.WaitGroup // the late readers
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
	var held []io.ReadCloser
	if req.Body != nil && req.Body != http.NoBody {
		cp, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		out.Body = http.NoBody
		out.ContentLength = 0
		held = append(held, req.Body, cp)
	}
	resp, err := l.next.RoundTrip(out)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		time.Sleep(20 * time.Millisecond)
		for _, b := range held {
			got, _ := io.ReadAll(b)
			b.Close()
			l.mu.Lock()
			l.late = append(l.late, got)
			l.mu.Unlock()
		}
	}()
	return resp, err
}

// TestHTTPClientPathSendReturnsAfterBodyClosed pins the same rule on
// the http.Client path: once a data-plane send returned, the
// sender may overwrite its body, even where the RoundTripper reads the
// body it was handed — the request's own and a GetBody copy — after
// RoundTrip returned, and the server answered before reading it. Every
// late reader still reads the bytes as sent.
func TestHTTPClientPathSendReturnsAfterBodyClosed(t *testing.T) {
	srv := httptest.NewServer(NewHandler(&fakeServer{receipt: Receipt{Shard: -1}}))
	defer srv.Close()
	rt := &lateCloser{next: srv.Client().Transport}
	tr := NewHTTP(&http.Client{Transport: rt})
	ctx := context.Background()
	const sent = 0x5C
	body := make([]byte, 64<<10)
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
		for i := range body {
			body[i] = sent
		}
		err := send.do()
		for i := range body {
			body[i] = 0
		}
		if se := AsStatus(err); se == nil || se.Code != http.StatusBadRequest {
			t.Fatalf("%s answered %v, want the 400 sent before the body was read", send.name, err)
		}
		rt.wg.Wait()
		rt.mu.Lock()
		late := rt.late
		rt.late = nil
		rt.mu.Unlock()
		if len(late) != 2 {
			t.Fatalf("%s: the RoundTripper read %d bodies late, want the body and one GetBody copy", send.name, len(late))
		}
		for i, got := range late {
			if !bytes.Equal(got, bytes.Repeat([]byte{sent}, len(body))) {
				t.Fatalf("%s: late reader %d read %d bytes that are not the body as sent", send.name, i, len(got))
			}
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
// the handler runs on the sender's own goroutine, which returns its
// result rather than the cancellation — so the sender may overwrite the
// body the moment the call returns.
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
// pool's connections, which write a body from the sender's bytes: a send
// returns only after that write returned, so the sender may overwrite
// the body at once. Twice per transport — a send cancelled while its
// write is blocked on a peer that never reads, and a send the server
// answers with a 400 before it reads the body and only then reads it —
// for a caller's *http.Transport and for NewHTTP(nil). Each time the
// sender overwrites the body the moment the send returned, and every
// byte the peer reads afterwards must still be the body as sent.
func TestHTTPDirectWriteReturnsBeforeSend(t *testing.T) {
	const sent = 0x3C
	body := make([]byte, 16<<20) // far more than the socket buffers hold

	// A peer that accepts and reads nothing until told to.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	stalled := "http://" + ln.Addr().String()

	// A server that answers 400 at once and then reads the whole body,
	// reporting whether it read the body as sent.
	verdict := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
			verdict <- err
			return
		}
		w.WriteHeader(http.StatusBadRequest)
		w.(http.Flusher).Flush()
		time.Sleep(20 * time.Millisecond)
		verdict <- readAsSent(r.Body, sent, len(body))
	}))
	defer srv.Close()

	for _, tc := range []struct {
		name string
		tr   *HTTP
	}{
		{"caller's Transport", NewHTTP(&http.Client{Transport: &http.Transport{}})},
		{"NewHTTP(nil)", NewHTTP(nil)},
	} {
		if tc.tr.pool == nil {
			t.Fatalf("%s sends through net/http's client", tc.name)
		}
		fill := func() {
			for i := range body {
				body[i] = sent
			}
		}

		fill()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := tc.tr.SendUpdate(ctx, stalled, UpdateRequest{Body: body})
			clear(body)
			done <- err
		}()
		peer := <-accepted
		time.Sleep(50 * time.Millisecond)
		select {
		case err := <-done:
			t.Fatalf("%s: the send returned (%v) before it was cancelled", tc.name, err)
		default:
		}
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled send returned %v", tc.name, err)
		}
		if err := readHeadThen(peer, sent); err != nil {
			t.Fatalf("%s: cancelled send: %v", tc.name, err)
		}
		peer.Close()

		fill()
		_, err := tc.tr.SendUpdate(context.Background(), srv.URL, UpdateRequest{Body: body})
		clear(body)
		if se := AsStatus(err); se == nil || se.Code != http.StatusBadRequest {
			t.Fatalf("%s answered %v, want the 400 sent before the body was read", tc.name, err)
		}
		if err := <-verdict; err != nil {
			t.Fatalf("%s: answered send: %v", tc.name, err)
		}
	}
}

// readAsSent reads r to its end and checks that it held n bytes, each
// of them b.
func readAsSent(r io.Reader, b byte, n int) error {
	buf := make([]byte, 64<<10)
	got := 0
	for {
		m, err := r.Read(buf)
		for _, x := range buf[:m] {
			if x != b {
				return fmt.Errorf("byte %d of the body read %#x, want %#x: it was written after the send returned", got, x, b)
			}
			got++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if got != n {
		return fmt.Errorf("read %d bytes of the body, want %d", got, n)
	}
	return nil
}

// readHeadThen reads a request head from c and then every byte the
// connection still delivers, which must all be b.
func readHeadThen(c net.Conn, b byte) error {
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	if _, err := http.ReadRequest(br); err != nil {
		return err
	}
	n := 0
	for {
		x, err := br.ReadByte()
		if err != nil {
			if n == 0 {
				return fmt.Errorf("the peer read no body (%v)", err)
			}
			return nil // the sender closed the connection
		}
		if x != b {
			return fmt.Errorf("byte %d of the body read %#x, want %#x: it was written after the send returned", n, x, b)
		}
		n++
	}
}
