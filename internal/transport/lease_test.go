package transport

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mixnn/internal/wire"
)

// rawPost writes one HTTP/1.1 POST byte for byte — head, then payload —
// half-closes the connection (a client that stops sending) and returns
// the status and trimmed body of whatever the server answers.
func rawPost(t *testing.T, addr, path, framing string, payload []byte) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := "POST " + path + " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n" +
		wire.HeaderBatch + ": lease-table\r\n" + framing + "\r\n\r\n"
	if _, err := conn.Write(append([]byte(head), payload...)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(msg))
}

// chunked frames b as one HTTP/1.1 chunk and the terminator.
func chunked(b []byte) []byte {
	if len(b) == 0 {
		return []byte("0\r\n\r\n")
	}
	return []byte(fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(b), b))
}

// TestHandlerBodyFramingTable: every way a POST body can be framed on
// the wire, on each route that reads one. Well-framed bodies reach the
// Server intact; the rest draw the 400 texts the wire protocol always
// answered, never reach the Server, and an over-long declaration is
// refused without its body being waited for. Either way the lease is
// back when the response is.
func TestHandlerBodyFramingTable(t *testing.T) {
	const bound = 1 << 12
	body := bytes.Repeat([]byte("lease"), 300) // 1500 bytes
	over := make([]byte, bound+1)
	tooLarge := fmt.Sprintf("wire: body exceeds %d bytes", bound)
	for _, tc := range []struct {
		name    string
		framing string
		payload []byte
		want    []byte // what the Server sees when the request is accepted
		status  int
		msg     string
	}{
		{name: "exact", framing: fmt.Sprintf("Content-Length: %d", len(body)), payload: body, want: body, status: http.StatusAccepted},
		{name: "short", framing: fmt.Sprintf("Content-Length: %d", len(body)+10), payload: body, status: http.StatusBadRequest, msg: "wire: read body: unexpected EOF"},
		{name: "over-long declared", framing: fmt.Sprintf("Content-Length: %d", bound+1), payload: body, status: http.StatusBadRequest, msg: tooLarge},
		{name: "chunked", framing: "Transfer-Encoding: chunked", payload: chunked(body), want: body, status: http.StatusAccepted},
		{name: "chunked over-long", framing: "Transfer-Encoding: chunked", payload: chunked(over), status: http.StatusBadRequest, msg: tooLarge},
		{name: "zero-length", framing: "Content-Length: 0", status: http.StatusAccepted},
	} {
		for _, route := range []string{"/v1/update", "/v1/hop", "/v1/batch"} {
			f := &fakeServer{receipt: Receipt{Shard: -1}}
			h := newHandler(f)
			for _, p := range []*bodyPool{&h.single, &h.batch} {
				p.bound, p.poison = bound, true
			}
			srv := httptest.NewServer(h)
			// Twice: the second request reads into the first one's buffer.
			for pass := 0; pass < 2; pass++ {
				f.lastUpdate, f.lastHop, f.lastBatch = nil, nil, nil
				status, msg := rawPost(t, srv.Listener.Addr().String(), route, tc.framing, tc.payload)
				if status != tc.status || msg != tc.msg {
					t.Fatalf("%s %s: answered %d %q, want %d %q", tc.name, route, status, msg, tc.status, tc.msg)
				}
				var got []byte
				called := true
				switch {
				case f.lastUpdate != nil:
					got = f.lastUpdate.Body
				case f.lastHop != nil:
					got = f.lastHop.Body
				case f.lastBatch != nil:
					got = f.lastBatch.Body
				default:
					called = false
				}
				if called != (tc.status == http.StatusAccepted) || !bytes.Equal(got, tc.want) {
					t.Fatalf("%s %s: Server called=%v with %d bytes, want %d", tc.name, route, called, len(got), len(tc.want))
				}
				if n := LeasedBodies(h); n != 0 {
					t.Fatalf("%s %s: %d buffers still on lease after the response", tc.name, route, n)
				}
			}
			srv.Close()
		}
	}
}

// TestHandlerReleasedBodyIsPoisoned checks the hook the lease tests
// stand on: with poisoning on, a Server that (wrongly) keeps the slice
// finds it overwritten once its method has returned.
func TestHandlerReleasedBodyIsPoisoned(t *testing.T) {
	k := &keepingServer{}
	h := newHandler(k)
	h.single.poison = true
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update", strings.NewReader("kept past the return")))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status %d", rec.Code)
	}
	if want := bytes.Repeat([]byte{0xA5}, len("kept past the return")); !bytes.Equal(k.kept, want) {
		t.Fatalf("released body reads %q, want it poisoned", k.kept)
	}
}

// keepingServer breaks the Server contract on purpose.
type keepingServer struct {
	fakeServer
	kept []byte
}

func (k *keepingServer) HandleUpdate(_ context.Context, req UpdateRequest) (Receipt, error) {
	k.kept = req.Body
	return Receipt{Shard: -1}, nil
}

// gatedBatch is a Server whose HandleBatch waits at gate, if set, and
// reads nothing; ungated, it notes the capacity of the buffer each body
// came in.
type gatedBatch struct {
	fakeServer
	gate    *sync.WaitGroup
	lastCap int
}

func (g *gatedBatch) HandleBatch(_ context.Context, req BatchRequest) (Receipt, error) {
	if g.gate != nil {
		g.gate.Done()
		g.gate.Wait()
	} else {
		g.lastCap = cap(req.Body)
	}
	return Receipt{Shard: -1}, nil
}

// freeBuffers empties a pool's free list and returns what it held.
func freeBuffers(p *bodyPool) []*[]byte {
	var out []*[]byte
	for {
		select {
		case bp := <-p.free:
			out = append(out, bp)
		default:
			return out
		}
	}
}

// TestHandlerFreeListDoesNotPin: the body leases' free list keeps little
// and nothing oversized. An oversized body's buffer is dropped at the
// next lease on its route, a burst of concurrent requests leaves at most
// freeBodies buffers idle, and released buffers are poisoned as before
// under the race detector.
func TestHandlerFreeListDoesNotPin(t *testing.T) {
	// post sends an n-byte batch, its length declared or, when chunked,
	// not, and reports what it was answered other than a 202.
	post := func(h http.Handler, n int, chunked bool) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(make([]byte, n)))
		if chunked {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			return fmt.Errorf("a %d-byte batch answered %d", n, rec.Code)
		}
		return nil
	}
	const small = 42_000

	g := &gatedBatch{}
	h := newHandler(g)
	for _, tc := range []struct {
		name    string
		big     int
		chunked bool
	}{
		{"declared", 64 << 20, false},
		{"chunked", 4 << 20, true},
	} {
		for _, n := range []int{tc.big, small} {
			if err := post(h, n, tc.chunked); err != nil {
				t.Fatal(err)
			}
		}
		if !tc.chunked && g.lastCap > 2*small {
			t.Fatalf("a %d-byte batch was read into a %d-byte buffer, want the oversized one dropped", small, g.lastCap)
		}
		for _, bp := range freeBuffers(&h.batch) {
			if cap(*bp) > 2*small {
				t.Fatalf("%s: after a %d-byte batch and a %d-byte one the free list holds a %d-byte buffer, want none above %d", tc.name, tc.big, small, cap(*bp), 2*small)
			}
		}
	}
	if err := post(h, small, false); err != nil {
		t.Fatal(err)
	}
	if n := len(h.batch.free); n != 1 {
		t.Fatalf("a %d-byte batch left %d buffers free, want its own", small, n)
	}

	const burst = 32
	g.gate = new(sync.WaitGroup)
	g.gate.Add(burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := post(h, small, false); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := LeasedBodies(h); n != 0 {
		t.Fatalf("%d buffers still on lease after the burst", n)
	}
	free := freeBuffers(&h.batch)
	if len(free) > freeBodies {
		t.Fatalf("%d concurrent requests left %d buffers free, want at most %d", burst, len(free), freeBodies)
	}
	if h.batch.poison != raceEnabled || h.single.poison != raceEnabled {
		t.Fatalf("poisoning is %v/%v, want it on exactly under the race detector", h.single.poison, h.batch.poison)
	}
	if raceEnabled {
		for _, bp := range free {
			if !bytes.Equal(*bp, bytes.Repeat([]byte{0xA5}, len(*bp))) {
				t.Fatal("a released buffer was not poisoned")
			}
		}
	}
}
