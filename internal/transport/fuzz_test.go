package transport

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"unicode/utf8"

	"mixnn/internal/wire"
)

// wireRequests builds, from the header vocabulary of package wire, the
// three POSTs a sender of these typed requests puts on the wire: the
// reference the transport's own encoding is held to.
func wireRequests(t *testing.T, ep string, up UpdateRequest, hop HopRequest, b BatchRequest) [3]*http.Request {
	t.Helper()
	post := func(path, contentType string, body []byte, hdr ...string) *http.Request {
		req, err := http.NewRequest(http.MethodPost, ep+path, bytes.NewReader(body))
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
	hopHdr := func(depth int, secret string) []string {
		h := []string{wire.HeaderHop, strconv.Itoa(depth)}
		if secret != "" {
			h = append(h, "Authorization", "Bearer "+secret)
		}
		return h
	}
	var upHdr, bHdr []string
	if up.ClientID != "" {
		upHdr = []string{wire.HeaderClient, up.ClientID}
	}
	if b.Hop > 0 {
		bHdr = hopHdr(b.Hop, b.Secret)
	}
	if b.ID != "" {
		bHdr = append(bHdr, wire.HeaderBatch, b.ID)
	}
	if b.HasSeq && b.Sender != "" {
		bHdr = append(bHdr, wire.HeaderSender, b.Sender, wire.HeaderBatchSeq, strconv.FormatUint(b.Seq, 10))
	}
	return [3]*http.Request{
		post("/v1/update", wire.ContentTypeUpdate, up.Body, upHdr...),
		post("/v1/hop", wire.ContentTypeUpdate, hop.Body, hopHdr(hop.Hop, hop.Secret)...),
		post("/v1/batch", wire.ContentTypeBatch, b.Body, bHdr...),
	}
}

// serveFramed writes req's head and body as raw HTTP/1.1 bytes, the body
// framed by the Content-Length declared (negative: chunked), reads them
// back as net/http's server does, and serves the request on h. It
// returns the response status and the Content-Length h saw. A
// declaration the body does not honour goes out as written, which no
// client of net/http would put on a wire.
func serveFramed(t *testing.T, h http.Handler, req *http.Request, body []byte, declared int64) (int, int64) {
	t.Helper()
	var raw bytes.Buffer
	fmt.Fprintf(&raw, "%s %s HTTP/1.1\r\nHost: %s\r\n", req.Method, req.URL.RequestURI(), req.URL.Host)
	req.Header.Write(&raw)
	if declared < 0 {
		raw.WriteString("Transfer-Encoding: chunked\r\n\r\n")
		if len(body) > 0 {
			fmt.Fprintf(&raw, "%x\r\n%s\r\n", len(body), body)
		}
		raw.WriteString("0\r\n\r\n")
	} else {
		fmt.Fprintf(&raw, "Content-Length: %d\r\n\r\n%s", declared, body)
	}
	r, err := http.ReadRequest(bufio.NewReader(&raw))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec.Code, r.ContentLength
}

// FuzzEnvelopeRoundtrip checks that typed request envelopes survive the
// HTTP wire form losslessly, however the body is framed: whatever a
// typed sender puts into an UpdateRequest / HopRequest / BatchRequest
// arrives bit-identical in the typed handler on the far side — bodies,
// ids, sender identity, sequence numbers, hop depth and secrets. This is
// the encode/decode contract bit-compatibility with pre-transport
// binaries rests on: the HTTP client and the HTTP adapter are exact
// inverses over the header vocabulary of package wire.
//
// The transport sends every request over its own connection pool, and
// net/http's client sends the same requests built from the wire
// vocabulary (wireRequests): both must refuse the same header values
// and deliver the same typed requests. The raw framings are served
// straight to the handler: an exact Content-Length (this sender) and
// chunked (old or foreign senders) must hand the Server the identical
// typed request; a Content-Length the body falls short of, or one above
// the body bound, must draw a 400 and hand the Server nothing. Released
// bodies are poisoned throughout, so a request read out of a recycled
// buffer would show.
func FuzzEnvelopeRoundtrip(f *testing.F) {
	f.Add([]byte("update"), "client-1", "batch-id", "sender-a", uint64(3), uint8(2), "secret", true)
	f.Add([]byte{}, "", "", "", uint64(0), uint8(0), "", false)
	f.Add([]byte{0xff, 0x00, 0x7f}, "c", "id", "s", uint64(1<<63), uint8(9), "tok", true)
	f.Add([]byte("x"), "a\r\nX-Mixnn-Hop: 1", "id", "s", uint64(1), uint8(1), " tok\t", true)
	f.Fuzz(func(t *testing.T, body []byte, clientID, batchID, sender string, seq uint64, hop uint8, secret string, hasSeq bool) {
		srv := &fakeServer{receipt: Receipt{Shard: -1}}
		h := NewPoisoningHandler(srv)
		hsrv := httptest.NewServer(h)
		defer hsrv.Close()
		ctx := context.Background()
		upReq := UpdateRequest{Body: body, ClientID: clientID}
		hopReq := HopRequest{Body: body, Hop: int(hop), Secret: secret}
		bReq := BatchRequest{Body: body, Hop: int(hop), Secret: secret, ID: batchID, Sender: sender, Seq: seq, HasSeq: hasSeq}
		verbs := [3]string{"update", "hop", "batch"}
		reset := func() { srv.lastUpdate, srv.lastHop, srv.lastBatch = nil, nil, nil }

		// The pool's connections (NewHTTP over a plain *http.Transport).
		reset()
		tr := NewHTTP(&http.Client{Transport: &http.Transport{}})
		var perrs [3]error
		_, perrs[0] = tr.SendUpdate(ctx, hsrv.URL, upReq)
		_, perrs[1] = tr.Hop(ctx, hsrv.URL, hopReq)
		_, perrs[2] = tr.SendBatch(ctx, hsrv.URL, bReq)
		pu, ph, pb := srv.lastUpdate, srv.lastHop, srv.lastBatch

		// net/http's client, sending the requests wireRequests built: it
		// refuses the same header values before a byte is sent, and hands
		// the Server the same typed requests for every value it accepts.
		reset()
		var errs [3]error
		for i, req := range wireRequests(t, hsrv.URL, upReq, hopReq, bReq) {
			resp, err := hsrv.Client().Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			errs[i] = err
		}
		got, gh, gb := srv.lastUpdate, srv.lastHop, srv.lastBatch
		for i, verb := range verbs {
			if (perrs[i] == nil) != (errs[i] == nil) || AsStatus(perrs[i]) != nil {
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
				t.Fatalf("%s: %v", verbs[i], err)
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

		// Exact and chunked: the same three typed requests, field for
		// field.
		for _, declared := range []int64{int64(len(body)), -1} {
			reset()
			for i, req := range wireRequests(t, hsrv.URL, upReq, hopReq, bReq) {
				code, seen := serveFramed(t, h, req, body, declared)
				if code != http.StatusOK && code != http.StatusAccepted {
					t.Fatalf("%s framed with Content-Length %d: status %d", verbs[i], declared, code)
				}
				if seen != declared {
					t.Fatalf("%s framed with Content-Length %d arrived with %d", verbs[i], declared, seen)
				}
			}
			for _, pair := range [][2]any{{got, srv.lastUpdate}, {gh, srv.lastHop}, {gb, srv.lastBatch}} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Fatalf("framing with Content-Length %d changed the typed request: %+v, %+v", declared, pair[0], pair[1])
				}
			}
		}

		// A declaration the body does not honour: 400, Server untouched.
		for _, declared := range []int64{int64(len(body)) + 1 + int64(seq%5), wire.MaxBodyBytes + 1} {
			reset()
			for i, req := range wireRequests(t, hsrv.URL, upReq, hopReq, bReq) {
				if code, _ := serveFramed(t, h, req, body, declared); code != http.StatusBadRequest {
					t.Fatalf("%s with a lying Content-Length %d answered %d, want a 400", verbs[i], declared, code)
				}
			}
			if srv.lastUpdate != nil || srv.lastHop != nil || srv.lastBatch != nil {
				t.Fatalf("a body with a lying Content-Length reached the Server: %v %v %v", srv.lastUpdate, srv.lastHop, srv.lastBatch)
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
