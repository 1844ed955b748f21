package transport_test

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
	"net/url"
	"strconv"
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
			// request builds net/http's reference: the same POST, its
			// headers spelled out from the wire vocabulary.
			request := func(target, contentType string, body []byte, hdr ...string) *http.Request {
				req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", contentType)
				req.Header.Set(wire.HeaderProto, strconv.Itoa(wire.ProtoV1))
				for i := 0; i < len(hdr); i += 2 {
					req.Header.Set(hdr[i], hdr[i+1])
				}
				return req
			}
			for _, tc := range []struct {
				send func(transport.Transport) error
				ref  *http.Request
			}{
				{func(tr transport.Transport) error {
					req := transport.BatchRequest{Body: []byte("batch"), Hop: 2, Secret: " s3 cret\t", ID: "b-1", Sender: "front", Seq: 9, HasSeq: true}
					_, err := tr.SendBatch(context.Background(), ep, req)
					return err
				}, request(ep+"/v1/batch", wire.ContentTypeBatch, []byte("batch"),
					wire.HeaderHop, "2", "Authorization", "Bearer  s3 cret\t", wire.HeaderBatch, "b-1",
					wire.HeaderSender, "front", wire.HeaderBatchSeq, "9")},
				{func(tr transport.Transport) error {
					_, err := tr.SendUpdate(context.Background(), ep+"/", transport.UpdateRequest{ClientID: "p-1"})
					return err
				}, request(ep+"//v1/update", wire.ContentTypeUpdate, nil, wire.HeaderClient, "p-1")},
			} {
				if err := tc.send(transport.NewHTTP(&http.Client{Transport: &http.Transport{}})); err != nil {
					t.Fatal(err)
				}
				resp, err := (&http.Client{Transport: &http.Transport{}}).Do(tc.ref)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
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

// TestHTTPClientCarriesWhatThePoolCannot: a data-plane send the pool
// cannot carry goes through the http.Client, which delivers it — each
// row checks a trace only that path leaves.
func TestHTTPClientCarriesWhatThePoolCannot(t *testing.T) {
	type seen struct{ served, closes, trips, dials atomic.Int32 }
	for _, tc := range []struct {
		name string
		// client returns the sender's client and endpoint for a peer
		// served by srv.
		client func(s *seen, srv *httptest.Server, direct *rawPeer) (*http.Client, string)
		tls    bool
		check  func(s *seen, direct *rawPeer) error
	}{
		{"a RoundTripper that is not an *http.Transport", func(s *seen, srv *httptest.Server, _ *rawPeer) (*http.Client, string) {
			return &http.Client{Transport: countingTransport{&http.Transport{}, &s.trips}}, srv.URL
		}, false, func(s *seen, _ *rawPeer) error {
			if n := s.trips.Load(); n != 3 {
				return fmt.Errorf("the RoundTripper carried %d sends, want 3", n)
			}
			return nil
		}},
		{"DisableKeepAlives", func(_ *seen, srv *httptest.Server, _ *rawPeer) (*http.Client, string) {
			return &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}, srv.URL
		}, false, func(s *seen, _ *rawPeer) error {
			if n := s.closes.Load(); n != 3 {
				return fmt.Errorf("%d requests asked to close the connection, want 3", n)
			}
			return nil
		}},
		{"an https endpoint", func(_ *seen, srv *httptest.Server, _ *rawPeer) (*http.Client, string) {
			return &http.Client{Transport: srv.Client().Transport.(*http.Transport).Clone()}, srv.URL
		}, true, func(*seen, *rawPeer) error { return nil }},
		{"an endpoint the Proxy routes through a proxy", func(_ *seen, srv *httptest.Server, direct *rawPeer) (*http.Client, string) {
			return &http.Client{Transport: &http.Transport{Proxy: func(*http.Request) (*url.URL, error) { return url.Parse(srv.URL) }}}, direct.url
		}, false, func(_ *seen, direct *rawPeer) error {
			if n := direct.accepts.Load(); n != 0 {
				return fmt.Errorf("the endpoint itself accepted %d connections, want 0", n)
			}
			return nil
		}},
		{"only the deprecated Dial", func(s *seen, srv *httptest.Server, _ *rawPeer) (*http.Client, string) {
			var d net.Dialer
			return &http.Client{Transport: &http.Transport{Dial: func(network, addr string) (net.Conn, error) {
				s.dials.Add(1)
				return d.Dial(network, addr)
			}}}, srv.URL
		}, false, func(s *seen, _ *rawPeer) error {
			if s.dials.Load() == 0 {
				return errors.New("the Transport's Dial was never called")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s seen
			h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				s.served.Add(1)
				if r.Close {
					s.closes.Add(1)
				}
				w.WriteHeader(http.StatusAccepted)
			})
			srv := httptest.NewUnstartedServer(h)
			if tc.tls {
				srv.StartTLS()
			} else {
				srv.Start()
			}
			defer srv.Close()
			direct := newRawPeer(t, "HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n")
			httpc, ep := tc.client(&s, srv, direct)
			tr := transport.NewHTTP(httpc)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, errU := tr.SendUpdate(ctx, ep, transport.UpdateRequest{Body: []byte{1}})
			_, errH := tr.Hop(ctx, ep, transport.HopRequest{Body: []byte{1}, Hop: 1})
			_, errB := tr.SendBatch(ctx, ep, transport.BatchRequest{Body: []byte{1}, ID: "b"})
			for verb, err := range map[string]error{"SendUpdate": errU, "Hop": errH, "SendBatch": errB} {
				if err != nil {
					t.Errorf("%s: %v", verb, err)
				}
			}
			if n := s.served.Load(); n != 3 {
				t.Fatalf("the peer served %d sends, want 3", n)
			}
			if err := tc.check(&s, direct); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSDKSendsThroughAWrappedRoundTripper: a participant whose client
// wraps its *http.Transport — the pool cannot carry its sends — still
// delivers its update through the http.Client.
func TestSDKSendsThroughAWrappedRoundTripper(t *testing.T) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	e, err := enclave.New(enclave.Config{CodeIdentity: "wrapped-front"}, platform)
	if err != nil {
		t.Fatal(err)
	}
	p, err := proxy.NewSharded(proxy.ShardedConfig{Upstream: "http://127.0.0.1:1", RoundSize: 64, K: 2, Seed: 5}, e, platform)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(transport.NewHandler(p))
	defer srv.Close()
	var trips atomic.Int32
	sdk, err := client.New(client.Config{
		Proxies: []string{srv.URL}, ClientID: "wrapped",
		Authority: platform.AttestationPublicKey(), Measurement: e.Measurement(),
		Transport: transport.NewHTTP(&http.Client{Transport: countingTransport{&http.Transport{}, &trips}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sdk.SendUpdate(context.Background(), nn.NewMLP("net", 4, []int{6}, 2).New(1).SnapshotParams()); err != nil {
		t.Fatal(err)
	}
	if got := p.Status().Received; got != 1 {
		t.Fatalf("the front acked %d updates, want 1", got)
	}
	if trips.Load() < 2 {
		t.Fatalf("the RoundTripper carried %d requests, want the attestation and the update", trips.Load())
	}
}

// countingTransport counts the requests it hands to an *http.Transport
// hidden behind the RoundTripper interface.
type countingTransport struct {
	next  http.RoundTripper
	trips *atomic.Int32
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.trips.Add(1)
	return c.next.RoundTrip(req)
}

// nopServer accepts every data-plane request.
type nopServer struct{ transport.Server }

func (nopServer) HandleUpdate(context.Context, transport.UpdateRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, nil
}
