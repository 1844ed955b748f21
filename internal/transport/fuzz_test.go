package transport

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"unicode/utf8"

	"mixnn/internal/wire"
)

// reframe is an http.RoundTripper that changes how a POST body is framed
// before the handler sees it: declare maps the body's true length to
// the length the request claims (negative = undeclared, sent chunked).
// With next set the request crosses a real connection; without, it is
// handed to h directly — the only way to deliver a declaration the body
// does not honour, which net/http's client refuses to put on a wire.
type reframe struct {
	next    http.RoundTripper
	h       http.Handler
	declare func(n int64) int64
}

// RoundTrip closes the request body it was handed once the round trip is
// over, as the RoundTripper contract requires: the body it passes on is
// a wrapper whose close never reaches the original.
func (f reframe) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost {
		orig := req.Body
		req = req.Clone(req.Context())
		req.ContentLength = f.declare(req.ContentLength)
		if orig != nil && orig != http.NoBody {
			req.Body = io.NopCloser(orig) // hide the length from net/http
			defer orig.Close()
		}
	}
	if f.next != nil {
		return f.next.RoundTrip(req)
	}
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// FuzzEnvelopeRoundtrip checks that typed request envelopes survive the
// HTTP wire form losslessly, whichever way they are sent: whatever a typed sender puts into an
// UpdateRequest / HopRequest / BatchRequest arrives bit-identical in
// the typed handler on the far side — bodies, ids, sender identity,
// sequence numbers, hop depth and secrets. This is the encode/decode
// contract bit-compatibility with pre-transport binaries rests on: the
// HTTP client and the HTTP adapter are exact inverses over the header
// vocabulary of package wire.
//
// Every request goes out over the transport's own connection pool and
// through net/http's client, which must refuse the same header values
// and deliver the same requests. Every request is delivered under each
// body framing a peer can use: an exact Content-Length (this sender)
// and chunked (old or foreign senders) must hand the Server the
// identical typed request; a
// Content-Length the body falls short of, or one above the body bound,
// must draw a 400 and hand the Server nothing. Released bodies are
// poisoned throughout, so a request read out of a recycled buffer would
// show.
func FuzzEnvelopeRoundtrip(f *testing.F) {
	f.Add([]byte("update"), "client-1", "batch-id", "sender-a", uint64(3), uint8(2), "secret", true)
	f.Add([]byte{}, "", "", "", uint64(0), uint8(0), "", false)
	f.Add([]byte{0xff, 0x00, 0x7f}, "c", "id", "s", uint64(1<<63), uint8(9), "tok", true)
	f.Add([]byte("x"), "a\r\nX-Mixnn-Hop: 1", "id", "s", uint64(1), uint8(1), " tok\t", true)
	f.Fuzz(func(t *testing.T, body []byte, clientID, batchID, sender string, seq uint64, hop uint8, secret string, hasSeq bool) {
		srv := &fakeServer{receipt: Receipt{Shard: -1}}
		h := NewPoisoningHandler(srv)
		var declared atomic.Int64 // Content-Length of the last request, as the server parsed it
		hsrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			declared.Store(r.ContentLength)
			h.ServeHTTP(w, r)
		}))
		defer hsrv.Close()
		ctx := context.Background()
		upReq := UpdateRequest{Body: body, ClientID: clientID}
		hopReq := HopRequest{Body: body, Hop: int(hop), Secret: secret}
		bReq := BatchRequest{Body: body, Hop: int(hop), Secret: secret, ID: batchID, Sender: sender, Seq: seq, HasSeq: hasSeq}

		// deliver sends the three requests through one framing and
		// returns what the Server was handed.
		deliver := func(rt http.RoundTripper) (*UpdateRequest, *HopRequest, *BatchRequest, [3]error) {
			srv.lastUpdate, srv.lastHop, srv.lastBatch = nil, nil, nil
			tr := NewHTTP(&http.Client{Transport: rt})
			var errs [3]error
			_, errs[0] = tr.SendUpdate(ctx, hsrv.URL, upReq)
			_, errs[1] = tr.Hop(ctx, hsrv.URL, hopReq)
			_, errs[2] = tr.SendBatch(ctx, hsrv.URL, bReq)
			return srv.lastUpdate, srv.lastHop, srv.lastBatch, errs
		}
		wire1 := hsrv.Client().Transport

		// The pool's connections (NewHTTP over a plain *http.Transport)
		// and net/http's client (the reframing arm) refuse the same
		// header values before a byte is sent, and hand the Server the
		// same typed requests for every value they accept.
		exact := func(n int64) int64 { return n }
		pu, ph, pb, perrs := deliver(&http.Transport{})
		got, gh, gb, errs := deliver(reframe{next: wire1, declare: exact})
		for i, verb := range [3]string{"update", "hop", "batch"} {
			if (perrs[i] == nil) != (errs[i] == nil) || AsStatus(perrs[i]) != nil || AsStatus(errs[i]) != nil {
				t.Fatalf("%s: the pool answered %v, net/http's client %v", verb, perrs[i], errs[i])
			}
		}
		for _, pair := range [][2]any{{pu, got}, {ph, gh}, {pb, gb}} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Fatalf("the pool and net/http's client delivered different requests: %+v, %+v", pair[0], pair[1])
			}
		}
		// The rest checks the wire form is lossless, which holds for
		// values restricted the way real ids are (token-ish, no control
		// bytes, nothing net/http trims).
		for _, s := range []string{clientID, batchID, sender, secret} {
			if !validHeaderValue(s) {
				return
			}
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", [3]string{"update", "hop", "batch"}[i], err)
			}
		}
		if !bytes.Equal(got.Body, body) || got.ClientID != clientID {
			t.Fatalf("update round trip: sent (%q, %q), got (%q, %q)", body, clientID, got.Body, got.ClientID)
		}
		if !bytes.Equal(gh.Body, body) || gh.Hop != int(hop) || gh.Secret != secret {
			t.Fatalf("hop round trip: sent %+v, got %+v", hopReq, *gh)
		}
		if !bytes.Equal(gb.Body, body) || gb.ID != batchID {
			t.Fatalf("batch body/id round trip: sent %+v, got %+v", bReq, *gb)
		}
		// Wire compatibility folds some field combinations (that is the
		// pre-transport sender's exact behaviour, not loss): hop metadata
		// only travels when Hop > 0, and sender/seq only travel together.
		if bReq.Hop > 0 {
			if gb.Hop != bReq.Hop || gb.Secret != bReq.Secret {
				t.Fatalf("batch hop leg: sent %+v, got %+v", bReq, *gb)
			}
		} else if gb.Hop != 0 || gb.Secret != "" {
			t.Fatalf("batch server leg leaked hop metadata: %+v", *gb)
		}
		if bReq.HasSeq && bReq.Sender != "" {
			if !gb.HasSeq || gb.Sender != sender || gb.Seq != seq {
				t.Fatalf("batch sender watermark: sent %+v, got %+v", bReq, *gb)
			}
		} else if gb.HasSeq {
			t.Fatalf("batch grew a sender watermark: %+v", *gb)
		}

		// Chunked: the same three typed requests, field for field.
		chunked := func(int64) int64 { return -1 }
		cu, ch, cb, errs := deliver(reframe{next: wire1, declare: chunked})
		for _, err := range errs {
			if err != nil {
				t.Fatalf("chunked delivery: %v", err)
			}
		}
		if len(body) > 0 && declared.Load() != -1 {
			t.Fatalf("the chunked arm arrived with Content-Length %d", declared.Load())
		}
		for _, pair := range [][2]any{{got, cu}, {gh, ch}, {gb, cb}} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Fatalf("chunked delivery changed the typed request: exact %+v, chunked %+v", pair[0], pair[1])
			}
		}

		// A declaration the body does not honour: 400, Server untouched.
		short := func(n int64) int64 { return n + 1 + int64(seq%5) }
		long := func(int64) int64 { return wire.MaxBodyBytes + 1 }
		for _, declare := range []func(int64) int64{short, long} {
			lu, lh, lb, errs := deliver(reframe{h: h, declare: declare})
			if lu != nil || lh != nil || lb != nil {
				t.Fatalf("a body with a lying Content-Length reached the Server: %v %v %v", lu, lh, lb)
			}
			for _, err := range errs {
				if se := AsStatus(err); se == nil || se.Code != http.StatusBadRequest {
					t.Fatalf("lying Content-Length answered %v, want a 400", err)
				}
			}
		}
		if n := LeasedBodies(h); n != 0 {
			t.Fatalf("%d buffers still on lease", n)
		}
	})
}

// validHeaderValue reports whether s survives as an HTTP header value
// (printable, no separators net/http would reject or fold).
func validHeaderValue(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		if r < 0x21 || r > 0x7e {
			return false
		}
	}
	return true
}
