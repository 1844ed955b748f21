package transport_test

import (
	"bufio"
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

	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/nn"
	"mixnn/internal/proxy"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// rawPeer is an HTTP/1.1 peer written by hand: it answers every request
// on a connection with answer and never closes a connection itself, so
// a sender's reuse of one shows as fewer accepts.
type rawPeer struct {
	url     string
	accepts atomic.Int32
}

func newRawPeer(t *testing.T, answer string) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{url: "http://" + ln.Addr().String()}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepts.Add(1)
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go func() {
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body)
					if _, err := io.WriteString(c, answer); err != nil {
						return
					}
				}
			}()
		}
	}()
	return p
}

// connCounter counts the connections an http.Server accepted and the
// most it held open at once.
type connCounter struct {
	mu              sync.Mutex
	opened, open, n int
}

func (c *connCounter) state(_ net.Conn, s http.ConnState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch s {
	case http.StateNew:
		c.opened++
		c.open++
		c.n = max(c.n, c.open)
	case http.StateClosed, http.StateHijacked:
		c.open--
	}
}

func (c *connCounter) counts() (opened, most int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opened, c.n
}

// watchedConn counts the writes on a connection as they start and as
// they return.
type watchedConn struct {
	net.Conn
	started, returned *atomic.Int32
}

func (c watchedConn) Write(p []byte) (int, error) {
	c.started.Add(1)
	defer c.returned.Add(1)
	return c.Conn.Write(p)
}

// TestHTTPPoolKeepsNetHTTPBehaviour: transport.HTTP sends the data-plane
// verbs over its own keep-alive pool instead of net/http's client, and
// each row is one thing net/http's client did that the pool must do too.
func TestHTTPPoolKeepsNetHTTPBehaviour(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"a pooled connection the peer closed is not reused", func(t *testing.T) {
			// Two fronts; the first goes away after one send. The second
			// send must read as unreached (a refused dial, not an EOF on
			// the dead connection), so the SDK fails over to front-1.
			platform, err := enclave.NewPlatform()
			if err != nil {
				t.Fatal(err)
			}
			front := func() (*proxy.ShardedProxy, *httptest.Server, [32]byte) {
				e, err := enclave.New(enclave.Config{CodeIdentity: "pool-front"}, platform)
				if err != nil {
					t.Fatal(err)
				}
				p, err := proxy.NewSharded(proxy.ShardedConfig{Upstream: "http://127.0.0.1:1", RoundSize: 64, K: 2, Seed: 5}, e, platform)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(p.Close)
				srv := httptest.NewServer(transport.NewHandler(p))
				t.Cleanup(srv.Close)
				return p, srv, e.Measurement()
			}
			p0, srv0, meas := front()
			p1, srv1, _ := front()
			sdk, err := client.New(client.Config{
				Proxies: []string{srv0.URL, srv1.URL}, ClientID: "restart",
				Authority: platform.AttestationPublicKey(), Measurement: meas,
				Transport: transport.NewHTTP(&http.Client{Transport: &http.Transport{}}),
			})
			if err != nil {
				t.Fatal(err)
			}
			update := nn.NewMLP("net", 4, []int{6}, 2).New(1).SnapshotParams()
			ctx := context.Background()
			if err := sdk.SendUpdate(ctx, update); err != nil {
				t.Fatal(err)
			}
			srv0.Close()
			if err := sdk.SendUpdate(ctx, update); err != nil {
				t.Fatalf("the send after front-0 went away: %v", err)
			}
			if r0, r1 := p0.Status().Received, p1.Status().Received; r0 != 1 || r1 != 1 {
				t.Fatalf("front-0 acked %d and front-1 %d updates, want 1 and 1", r0, r1)
			}
		}},
		{"an answer sent before the body is read wins", func(t *testing.T) {
			// A participant may not stamp a cascade depth: the handler
			// answers 400 on the headers and never reads the body.
			h := transport.NewHandler(&nopServer{})
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				r.Header.Set(wire.HeaderHop, "1")
				h.ServeHTTP(w, r)
			}))
			defer srv.Close()
			tr := transport.NewHTTP(&http.Client{Transport: &http.Transport{}})
			_, err := tr.SendUpdate(context.Background(), srv.URL, transport.UpdateRequest{Body: make([]byte, 16<<20)})
			if se := transport.AsStatus(err); se == nil || se.Code != http.StatusBadRequest {
				t.Fatalf("a 16MB send answered before it was read returned %v, want the 400", err)
			}
		}},
		{"a cancelled send returns after its write", func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				c, err := ln.Accept()
				if err == nil {
					defer c.Close()
					select { // never reads
					case <-stop:
					case <-time.After(10 * time.Second):
					}
				}
			}()
			var started, returned atomic.Int32
			var d net.Dialer
			tr := transport.NewHTTP(&http.Client{Transport: &http.Transport{
				DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
					c, err := d.DialContext(ctx, network, addr)
					if err != nil {
						return nil, err
					}
					return watchedConn{c, &started, &returned}, nil
				},
			}})
			ctx, cancel := context.WithCancel(context.Background())
			var cancelled atomic.Int64
			go func() {
				for started.Load() < 2 { // the head, then the body
					time.Sleep(time.Millisecond)
				}
				time.Sleep(20 * time.Millisecond)
				cancelled.Store(time.Now().UnixNano())
				cancel()
			}()
			_, err = tr.SendUpdate(ctx, "http://"+ln.Addr().String(), transport.UpdateRequest{Body: make([]byte, 16<<20)})
			s, r := started.Load(), returned.Load()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("the cancelled send returned %v", err)
			}
			if late := time.Duration(time.Now().UnixNano() - cancelled.Load()); late > 5*time.Second {
				t.Fatalf("the send returned %v after it was cancelled", late)
			}
			if s != 2 || r != s {
				t.Fatalf("the send returned with %d writes started and %d returned, want 2 and 2", s, r)
			}
		}},
		{"MaxConnsPerHost bounds the connections", func(t *testing.T) {
			var cc connCounter
			srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				time.Sleep(10 * time.Millisecond)
				w.WriteHeader(http.StatusAccepted)
			}))
			srv.Config.ConnState = cc.state
			srv.Start()
			defer srv.Close()
			tr := transport.NewHTTP(&http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}})
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for i := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[i] = tr.SendUpdate(context.Background(), srv.URL, transport.UpdateRequest{Body: []byte{byte(i)}})
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			if _, most := cc.counts(); most > 1 {
				t.Fatalf("the server saw %d connections at once, want at most 1", most)
			}
		}},
		{"a header value net/http refuses is refused before a byte is sent", func(t *testing.T) {
			var cc connCounter
			srv := httptest.NewUnstartedServer(transport.NewHandler(&nopServer{}))
			srv.Config.ConnState = cc.state
			srv.Start()
			defer srv.Close()
			tr := transport.NewHTTP(&http.Client{Transport: &http.Transport{}})
			_, err := tr.SendUpdate(context.Background(), srv.URL, transport.UpdateRequest{Body: []byte{1}, ClientID: "a\r\nX-Mixnn-Hop: 1"})
			if err == nil || transport.AsStatus(err) != nil {
				t.Fatalf("a client id with a line break returned %v, want a refusal before the send", err)
			}
			if opened, _ := cc.counts(); opened != 0 {
				t.Fatalf("the refused send opened %d connections to the server", opened)
			}
		}},
		{"a pooled connection outlives the deadline of its last send", func(t *testing.T) {
			peer := newRawPeer(t, "HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n")
			tr := transport.NewHTTP(&http.Client{Transport: &http.Transport{}, Timeout: 20 * time.Millisecond})
			for i := 0; i < 2; i++ {
				if _, err := tr.SendUpdate(context.Background(), peer.url, transport.UpdateRequest{Body: []byte{1}}); err != nil {
					t.Fatal(err)
				}
				time.Sleep(50 * time.Millisecond)
			}
			if n := peer.accepts.Load(); n != 1 {
				t.Fatalf("two sends 50ms apart took %d connections, want 1", n)
			}
		}},
		{"Connection: close closes the connection", func(t *testing.T) {
			peer := newRawPeer(t, "HTTP/1.1 202 Accepted\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")
			tr := transport.NewHTTP(&http.Client{Transport: &http.Transport{}})
			for i := 0; i < 2; i++ {
				if _, err := tr.SendUpdate(context.Background(), peer.url, transport.UpdateRequest{Body: []byte{1}}); err != nil {
					t.Fatal(err)
				}
			}
			if n := peer.accepts.Load(); n != 2 {
				t.Fatalf("two sends answered Connection: close took %d connections, want 2", n)
			}
		}},
		{"the request head is net/http's, byte for byte", func(t *testing.T) {
			heads := make(chan []byte, 2)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					go func() {
						defer c.Close()
						var head bytes.Buffer
						br := bufio.NewReader(io.TeeReader(c, &head))
						req, err := http.ReadRequest(br)
						if err != nil {
							return
						}
						io.Copy(io.Discard, req.Body)
						heads <- head.Bytes()
						io.WriteString(c, "HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n")
					}()
				}
			}()
			ep := "http://" + ln.Addr().String()
			for _, send := range []func(transport.Transport) error{
				func(tr transport.Transport) error {
					req := transport.BatchRequest{Body: []byte("batch"), Hop: 2, Secret: " s3 cret\t", ID: "b-1", Sender: "front", Seq: 9, HasSeq: true}
					_, err := tr.SendBatch(context.Background(), ep, req)
					return err
				},
				func(tr transport.Transport) error {
					_, err := tr.SendUpdate(context.Background(), ep+"/", transport.UpdateRequest{ClientID: "p-1"})
					return err
				},
			} {
				for _, rt := range []http.RoundTripper{&http.Transport{}, roundTripper{&http.Transport{}}} {
					if err := send(transport.NewHTTP(&http.Client{Transport: rt})); err != nil {
						t.Fatal(err)
					}
				}
				pooled, netHTTP := <-heads, <-heads
				if !bytes.Equal(pooled, netHTTP) {
					t.Fatalf("the pool wrote\n%q\nnet/http wrote\n%q", pooled, netHTTP)
				}
			}
		}},
	} {
		t.Run(row.name, row.run)
	}
}

// roundTripper hides an *http.Transport behind the RoundTripper
// interface, which sends through net/http's client.
type roundTripper struct{ http.RoundTripper }

// nopServer accepts every data-plane request.
type nopServer struct{ transport.Server }

func (nopServer) HandleUpdate(context.Context, transport.UpdateRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, nil
}
