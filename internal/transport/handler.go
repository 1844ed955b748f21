package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mixnn/internal/wire"
)

// MetricsSource is the optional capability a Server may implement to
// serve operator metrics: WriteMetrics renders Prometheus text
// exposition.
type MetricsSource interface {
	WriteMetrics(w io.Writer) error
}

// bodyPool leases request-body buffers to one handler's POST routes. A
// body is read once, into a buffer that lives from the read until the
// Server method returns (see the Server contract) and then goes back for
// the next request, so steady traffic is read without allocating.
//
// The free list is a bounded channel, not a sync.Pool, so it survives
// GC: a paced tier idles across GC cycles, which would empty a sync.Pool
// between two requests. What it keeps is bounded instead: at most
// freeBodies buffers, each at least half filled by the last body it
// held, and a buffer taken for a body that declares less than half its
// size is dropped, so one oversized body pins nothing past the next
// lease on its route.
type bodyPool struct {
	free chan *[]byte
	// leased counts buffers out on lease; it is back at zero whenever
	// no request is in flight, whatever path the requests took.
	leased atomic.Int64
	// bound is wire.MaxBodyBytes outside tests.
	bound int
	// poison overwrites a body as its lease ends, so that a Server which
	// kept the slice reads garbage at once instead of another request's
	// bytes some day. Set under the race detector and by tests.
	poison bool
}

// freeBodies is how many idle buffers one bodyPool keeps: more than the
// requests one route of a paced tier has in flight at once (a lane
// delivers one batch at a time), and all an idle tier pins per route.
const freeBodies = 8

func newBodyPool() bodyPool {
	return bodyPool{free: make(chan *[]byte, freeBodies), bound: wire.MaxBodyBytes, poison: raceEnabled}
}

// read leases a buffer and reads r's body into it. On failure it answers
// the 400, ends the lease and reports false.
func (p *bodyPool) read(w http.ResponseWriter, r *http.Request) (*[]byte, bool) {
	var bp *[]byte
	select {
	case bp = <-p.free:
		if r.ContentLength >= 0 && int64(cap(*bp)) > 2*r.ContentLength {
			bp = new([]byte)
		}
	default:
		bp = new([]byte)
	}
	p.leased.Add(1)
	body, err := wire.ReadBody(*bp, r.Body, r.ContentLength, p.bound)
	if err != nil {
		p.release(bp)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	*bp = body // keeps the buffer if the read had to grow it
	return bp, true
}

// release ends a lease, keeping the buffer when the body filled at least
// half of it and the free list has room.
func (p *bodyPool) release(bp *[]byte) {
	if p.poison {
		for i := range *bp {
			(*bp)[i] = 0xA5
		}
	}
	p.leased.Add(-1)
	if cap(*bp) == 0 || 2*len(*bp) < cap(*bp) {
		return
	}
	select {
	case p.free <- bp:
	default:
	}
}

// handler is the HTTP adapter of one Server. Its body pools are its own:
// single updates and whole-round batches differ a hundredfold in size
// and would evict each other from a shared pool, as would the tiers of
// one process (a front's ciphertexts, an aggregator's plaintext rounds)
// from a package-level one.
type handler struct {
	http.Handler
	single bodyPool // /v1/update, /v1/hop
	batch  bodyPool // /v1/batch
}

// NewHandler adapts a typed Server onto net/http with the exact wire
// behaviour the pre-transport handlers had: same routes, headers,
// status codes and rejection messages. Wire-level validation that the
// typed protocol makes unrepresentable — a forged X-Mixnn-Hop on the
// participant endpoint, a malformed depth, a bad nonce encoding — lives
// here, where the wire form still exists.
func NewHandler(s Server) http.Handler {
	return newHandler(s)
}

func newHandler(s Server) *handler {
	h := &handler{
		single: newBodyPool(),
		batch:  newBodyPool(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/update", func(w http.ResponseWriter, r *http.Request) {
		if !checkProto(w, r) {
			return
		}
		if r.Header.Get(wire.HeaderHop) != "" {
			// Participants must not forge cascade depth: a forged header
			// would be stamped +1 onto every update their round emits and
			// could poison the whole round at the next hop's depth check.
			http.Error(w, wire.HeaderHop+" not allowed on the participant endpoint", http.StatusBadRequest)
			return
		}
		body, ok := h.single.read(w, r)
		if !ok {
			return
		}
		defer h.single.release(body)
		_, err := s.HandleUpdate(r.Context(), UpdateRequest{Body: *body, ClientID: r.Header.Get(wire.HeaderClient)})
		writeReceipt(w, err)
	})
	mux.HandleFunc("POST /v1/hop", func(w http.ResponseWriter, r *http.Request) {
		if !checkProto(w, r) {
			return
		}
		hop, err := wire.ParseHop(r.Header)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body, ok := h.single.read(w, r)
		if !ok {
			return
		}
		defer h.single.release(body)
		_, err = s.HandleHop(r.Context(), HopRequest{Body: *body, Hop: hop, Secret: bearerToken(r.Header)})
		writeReceipt(w, err)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		if !checkProto(w, r) {
			return
		}
		hop, err := wire.ParseHop(r.Header)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req := BatchRequest{
			Hop:    hop,
			Secret: bearerToken(r.Header),
			ID:     r.Header.Get(wire.HeaderBatch),
			Sender: r.Header.Get(wire.HeaderSender),
		}
		if seqStr := r.Header.Get(wire.HeaderBatchSeq); req.Sender != "" && seqStr != "" {
			if v, err := strconv.ParseUint(seqStr, 10, 64); err == nil {
				req.Seq, req.HasSeq = v, true
			}
		}
		body, ok := h.batch.read(w, r)
		if !ok {
			return
		}
		defer h.batch.release(body)
		req.Body = *body
		rcpt, err := s.HandleBatch(r.Context(), req)
		if err != nil {
			writeError(w, r, err)
			return
		}
		if rcpt.Duplicate {
			w.WriteHeader(http.StatusOK) // already applied; ack the duplicate
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("GET /v1/attestation", func(w http.ResponseWriter, r *http.Request) {
		if !checkProto(w, r) {
			return
		}
		nonce, err := hex.DecodeString(r.URL.Query().Get("nonce"))
		if err != nil || len(nonce) == 0 {
			http.Error(w, "missing or invalid nonce", http.StatusBadRequest)
			return
		}
		ar, err := s.HandleAttest(r.Context(), nonce)
		if err != nil {
			writeError(w, r, err)
			return
		}
		wire.WriteJSON(w, ar)
	})
	mux.HandleFunc("GET /v1/model", func(w http.ResponseWriter, r *http.Request) {
		if !checkProto(w, r) {
			return
		}
		m, err := s.HandleModel(r.Context())
		if err != nil {
			writeError(w, r, err)
			return
		}
		w.Header().Set("Content-Type", wire.ContentTypeUpdate)
		w.Header().Set(wire.HeaderRound, strconv.Itoa(m.Round))
		// Declared, so the model goes out unchunked and the fetching side
		// sizes its one buffer from the length.
		w.Header().Set("Content-Length", strconv.Itoa(len(m.Body)))
		w.Write(m.Body)
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		if !checkProto(w, r) {
			return
		}
		st, err := s.HandleStatus(r.Context())
		if err != nil {
			writeError(w, r, err)
			return
		}
		switch {
		case st.Proxy != nil:
			wire.WriteJSON(w, st.Proxy)
		case st.Server != nil:
			wire.WriteJSON(w, st.Server)
		default:
			http.Error(w, "empty status", http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /v1/discover", func(w http.ResponseWriter, r *http.Request) {
		if !checkProto(w, r) {
			return
		}
		dr, err := s.HandleDiscover(r.Context())
		if err != nil {
			writeError(w, r, err)
			return
		}
		wire.WriteJSON(w, dr)
	})
	if ms, ok := s.(MetricsSource); ok {
		// The metrics endpoint is an optional capability, not part of the
		// typed Server contract: a tier without a registry simply has no
		// route, and the adapter's mux answers 404 — the same wire shape
		// ErrNotSupported renders.
		mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
			if !checkProto(w, r) {
				return
			}
			// Render into a buffer first: a failed render must become a
			// clean error response, and headers cannot be unsent.
			var buf bytes.Buffer
			if err := ms.WriteMetrics(&buf); err != nil {
				writeError(w, r, err)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.Write(buf.Bytes())
		})
	}
	mux.HandleFunc("GET /v1/admin/topology", func(w http.ResponseWriter, r *http.Request) {
		if !checkProto(w, r) {
			return
		}
		st, err := s.HandleTopology(r.Context(), TopologyRequest{Secret: bearerToken(r.Header)})
		if err != nil {
			writeError(w, r, err)
			return
		}
		wire.WriteJSON(w, st)
	})
	mux.HandleFunc("POST /v1/admin/topology", func(w http.ResponseWriter, r *http.Request) {
		if !checkProto(w, r) {
			return
		}
		var d wire.TopologyDirective
		if err := wire.DecodeJSON(r.Body, &d); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		st, err := s.HandleTopology(r.Context(), TopologyRequest{Directive: &d, Secret: bearerToken(r.Header)})
		if err != nil {
			writeError(w, r, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		wire.WriteJSON(w, st)
	})
	h.Handler = protoStamp(mux)
	return h
}

// protoStamp tags every response with the protocol version this binary
// speaks (old clients ignore the header).
func protoStamp(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(wire.HeaderProto, strconv.Itoa(wire.ProtoV1))
		h.ServeHTTP(w, r)
	})
}

// checkProto rejects requests claiming a protocol version this binary
// cannot serve. A missing header is version 1 (old senders), so old
// peers pass untouched.
func checkProto(w http.ResponseWriter, r *http.Request) bool {
	p, err := wire.ParseProto(r.Header)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	if p > wire.ProtoV1 {
		// 426 is in the permanent 4xx class senders quarantine on: a
		// version mismatch can never succeed on retry.
		http.Error(w, "peer protocol version not supported", http.StatusUpgradeRequired)
		return false
	}
	return true
}

// writeReceipt renders an ingress acknowledgement: 202, or the typed
// rejection. It names no shard: which shard the enclave routed an update
// to is not the host's to see.
func writeReceipt(w http.ResponseWriter, err error) {
	if err != nil {
		writeError(w, nil, err)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

// writeError renders a typed rejection with the wire protocol's exact
// vocabulary: StatusError code + optional stale marker, 404 for
// operations this tier does not serve, 500 for anything else.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, ErrNotSupported) {
		if r != nil {
			http.NotFound(w, r)
		} else {
			http.Error(w, "404 page not found", http.StatusNotFound)
		}
		return
	}
	if se := AsStatus(err); se != nil {
		if se.Stale {
			w.Header().Set(wire.HeaderStale, "1")
		}
		if se.SessionUnknown {
			w.Header().Set(wire.HeaderSessionUnknown, "1")
		}
		if se.RetryAfter > 0 {
			// Delay-seconds form, rounded up: a sub-second hint must not
			// truncate to an immediate-retry 0.
			secs := int((se.RetryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		http.Error(w, se.Msg, se.Code)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}
