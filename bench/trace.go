package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"mixnn/internal/stats"
	"mixnn/internal/transport"
)

// Span kinds. A root span is one Participant.SendUpdate; tx spans are
// recorded around a sender's Transport call, rx spans around the
// receiver's Server handler; a close span marks the ack that completed
// a front's round.
const (
	spanRoot = iota
	spanTxUpdate
	spanRxUpdate
	spanTxBatch
	spanRxBatch
	spanTxHop
	spanRxHop
	spanClose
)

var spanKindNames = []string{"root", "tx.update", "rx.update", "tx.batch", "rx.batch", "tx.hop", "rx.hop", "round.close"}

// Span outcomes.
const (
	outcomeOK = iota
	outcomeBusy
	outcomeError
)

// span is one interval at a layer boundary. Sender and receiver spans of
// one message share Key: the session id and counter of an update
// ciphertext on a participant or hop leg, the idempotency id of a batch
// on a delivery leg. Those are per-message and round-scoped ids; no
// update is ever followed across a mixer.
type span struct {
	Kind    uint8
	Party   uint8 // index into tracer.parties: who recorded it
	Outcome uint8
	Root    uint32 // the SendUpdate that caused a tx.update span
	Seq     uint64 // outbox sequence number of a batch; round index of a close
	Key     [24]byte
	Start   int64
	End     int64
}

// tracer records spans from the benchmark's own decorators around
// transport.Transport and transport.Server. The decorators are part of
// a traced deployment from the start (so round counts stay aligned with
// outbox sequence numbers) and record only while on is set. A nil
// tracer decorates nothing.
type tracer struct {
	on      atomic.Bool
	parties []string
	front   []bool
	agg     int

	nextRoot atomic.Uint32

	mu    sync.Mutex
	spans []span
}

func (t *tracer) party(name string, front bool) uint8 {
	for i, n := range t.parties {
		if n == name {
			t.front[i] = t.front[i] || front
			return uint8(i)
		}
	}
	t.parties = append(t.parties, name)
	t.front = append(t.front, front)
	if name == "agg" {
		t.agg = len(t.parties) - 1
	}
	return uint8(len(t.parties) - 1)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type rootKey struct{}

// root opens the root span of one SendUpdate; the returned context
// carries its id to the client-side transport decorator.
func (t *tracer) root(ctx context.Context) (context.Context, func(ok bool)) {
	id := t.nextRoot.Add(1)
	s := span{Kind: spanRoot, Root: id, Start: nowNs()}
	return context.WithValue(ctx, rootKey{}, id), func(ok bool) {
		s.End = nowNs()
		if !ok {
			s.Outcome = outcomeError
		}
		t.add(s)
	}
}

func messageKey(body []byte) (k [24]byte) {
	// Session frames: magic(4) version(1) session-id(16) counter(8).
	if len(body) >= 29 {
		copy(k[:], body[5:29])
	}
	return k
}

func batchKey(id string) (k [24]byte) {
	copy(k[:], id)
	return k
}

func outcomeOf(err error) uint8 {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, transport.ErrBusy):
		return outcomeBusy
	}
	return outcomeError
}

// tracedTransport records a span around every data-plane send of one
// party. Control-plane calls pass through the embedded Transport.
type tracedTransport struct {
	transport.Transport
	t     *tracer
	party uint8
}

func (t *tracer) wrapTransport(inner transport.Transport, role string) transport.Transport {
	if t == nil {
		return inner
	}
	return &tracedTransport{Transport: inner, t: t, party: t.party(role, false)}
}

func (x *tracedTransport) SendUpdate(ctx context.Context, ep string, req transport.UpdateRequest) (transport.Receipt, error) {
	if !x.t.on.Load() {
		return x.Transport.SendUpdate(ctx, ep, req)
	}
	s := span{Kind: spanTxUpdate, Party: x.party, Key: messageKey(req.Body), Start: nowNs()}
	s.Root, _ = ctx.Value(rootKey{}).(uint32)
	rec, err := x.Transport.SendUpdate(ctx, ep, req)
	s.End, s.Outcome = nowNs(), outcomeOf(err)
	x.t.add(s)
	return rec, err
}

func (x *tracedTransport) Hop(ctx context.Context, ep string, req transport.HopRequest) (transport.Receipt, error) {
	if !x.t.on.Load() {
		return x.Transport.Hop(ctx, ep, req)
	}
	s := span{Kind: spanTxHop, Party: x.party, Key: messageKey(req.Body), Start: nowNs()}
	rec, err := x.Transport.Hop(ctx, ep, req)
	s.End, s.Outcome = nowNs(), outcomeOf(err)
	x.t.add(s)
	return rec, err
}

func (x *tracedTransport) SendBatch(ctx context.Context, ep string, req transport.BatchRequest) (transport.Receipt, error) {
	if !x.t.on.Load() {
		return x.Transport.SendBatch(ctx, ep, req)
	}
	s := span{Kind: spanTxBatch, Party: x.party, Key: batchKey(req.ID), Seq: req.Seq, Start: nowNs()}
	rec, err := x.Transport.SendBatch(ctx, ep, req)
	s.End, s.Outcome = nowNs(), outcomeOf(err)
	x.t.add(s)
	return rec, err
}

// tracedServer records a span around every data-plane handler of one
// party. On a front it also counts acked updates, tracing or not, and
// marks the ack that completes each round.
type tracedServer struct {
	transport.Server
	t     *tracer
	party uint8
	round int64 // front round size; 0 elsewhere
	acks  atomic.Int64
}

func (t *tracer) wrapServer(inner transport.Server, name string, front bool, round int) transport.Server {
	if t == nil {
		return inner
	}
	s := &tracedServer{Server: inner, t: t, party: t.party(name, front)}
	if front {
		s.round = int64(round)
	}
	return s
}

func (x *tracedServer) HandleUpdate(ctx context.Context, req transport.UpdateRequest) (transport.Receipt, error) {
	on := x.t.on.Load()
	s := span{Kind: spanRxUpdate, Party: x.party, Start: nowNs()}
	if on {
		s.Key = messageKey(req.Body) // before the handler takes ownership of the body
	}
	rec, err := x.Server.HandleUpdate(ctx, req)
	s.End, s.Outcome = nowNs(), outcomeOf(err)
	if on {
		x.t.add(s)
	}
	if err == nil && x.round > 0 {
		if n := x.acks.Add(1); n%x.round == 0 && on {
			// A front with one destination commits one outbox entry per
			// round, so round n/round-1 is also that entry's sequence number.
			x.t.add(span{Kind: spanClose, Party: x.party, Seq: uint64(n/x.round - 1), Start: s.End, End: s.End})
		}
	}
	return rec, err
}

func (x *tracedServer) HandleHop(ctx context.Context, req transport.HopRequest) (transport.Receipt, error) {
	if !x.t.on.Load() {
		return x.Server.HandleHop(ctx, req)
	}
	s := span{Kind: spanRxHop, Party: x.party, Key: messageKey(req.Body), Start: nowNs()}
	rec, err := x.Server.HandleHop(ctx, req)
	s.End, s.Outcome = nowNs(), outcomeOf(err)
	x.t.add(s)
	return rec, err
}

func (x *tracedServer) HandleBatch(ctx context.Context, req transport.BatchRequest) (transport.Receipt, error) {
	if !x.t.on.Load() {
		return x.Server.HandleBatch(ctx, req)
	}
	s := span{Kind: spanRxBatch, Party: x.party, Key: batchKey(req.ID), Seq: req.Seq, Start: nowNs()}
	rec, err := x.Server.HandleBatch(ctx, req)
	s.End, s.Outcome = nowNs(), outcomeOf(err)
	x.t.add(s)
	return rec, err
}

// dumpLimit bounds the span dump. The small-model workload records
// millions of spans in a run; all of them feed the metrics, the first
// dumpLimit (a few hundred rounds on any workload) go to disk.
const dumpLimit = 200_000

// dump writes the recorded spans, one JSON array per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans := t.spans[:min(len(t.spans), dumpLimit)]
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"recorded":%d,"columns":["kind","party","outcome","root","seq","key","start_ns","end_ns"],"spans":[`+"\n", len(t.spans))
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%q,%q,%d,%d,%d,\"%x\",%d,%d]%s\n",
			spanKindNames[s.Kind], t.parties[s.Party], s.Outcome, s.Root, s.Seq, s.Key[:], s.Start, s.End, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type dist []float64

func (d dist) p(p float64) float64 { return stats.Percentile(d, p) }

func us(ns int64) float64 { return float64(ns) / 1e3 }

// analyze turns the recorded spans into the span-derived per-layer
// metrics. acked and slots are the updates acked and absorbed while
// tracing was on.
func (t *tracer) analyze(acked, slots int64) map[string]float64 {
	type rootInfo struct {
		start, end int64
		ok         bool
		attempts   []span
	}
	roots := map[uint32]*rootInfo{}
	rx := map[[24]byte]span{} // handler span by message key
	for _, s := range t.spans {
		switch s.Kind {
		case spanRoot:
			roots[s.Root] = &rootInfo{start: s.Start, end: s.End, ok: s.Outcome == outcomeOK}
		case spanRxUpdate, spanRxBatch, spanRxHop:
			if s.Outcome == outcomeOK {
				rx[s.Key] = s
			}
		}
	}

	var (
		frontWait, hopWait, frontHandle, deliver dist
		hopHandleNs, aggNs                       int64
		attempts, batchAttempts                  int
		firstTry                                 = map[[2]uint64]int64{} // (party, seq) -> first delivery attempt
		closes                                   []span
	)
	for _, s := range t.spans {
		dur := s.End - s.Start
		switch s.Kind {
		case spanTxUpdate:
			if r := roots[s.Root]; r != nil {
				r.attempts = append(r.attempts, s) // recorded in completion order = attempt order per root
				attempts++
			}
			if h, ok := rx[s.Key]; ok && s.Outcome == outcomeOK && t.front[h.Party] {
				frontWait = append(frontWait, us(dur-(h.End-h.Start)))
			}
		case spanTxBatch, spanTxHop:
			if h, ok := rx[s.Key]; ok && s.Outcome == outcomeOK {
				hopWait = append(hopWait, us(dur-(h.End-h.Start)))
			}
			if s.Kind == spanTxBatch && t.front[s.Party] {
				batchAttempts++
				k := [2]uint64{uint64(s.Party), s.Seq}
				if at, seen := firstTry[k]; !seen || s.Start < at {
					firstTry[k] = s.Start
				}
				if s.Outcome == outcomeOK {
					deliver = append(deliver, us(dur))
				}
			}
		case spanRxUpdate:
			if t.front[s.Party] && s.Outcome == outcomeOK {
				frontHandle = append(frontHandle, us(dur))
			}
		case spanRxBatch, spanRxHop:
			if int(s.Party) == t.agg {
				aggNs += dur
			} else {
				hopHandleNs += dur
			}
		case spanClose:
			closes = append(closes, s)
		}
	}

	var prep, sendUs, dwell dist
	var gapNs, gaps int64
	okRoots := 0
	for _, r := range roots {
		if !r.ok || len(r.attempts) == 0 {
			continue
		}
		okRoots++
		sendUs = append(sendUs, us(r.end-r.start))
		prep = append(prep, us(r.attempts[0].Start-r.start))
		for i := 1; i < len(r.attempts); i++ {
			gapNs += r.attempts[i].Start - r.attempts[i-1].End
			gaps++
		}
	}
	// Dwell is defined where a front's round is one outbox entry: the
	// cascade fronts commit three per round, so their sequence numbers
	// do not line up with round indices.
	for _, c := range closes {
		if at, ok := firstTry[[2]uint64{uint64(c.Party), c.Seq}]; ok {
			dwell = append(dwell, max(float64(at-c.End)/1e6, 0))
		}
	}

	out := map[string]float64{
		"client.prep_us_p50":                prep.p(50),
		"client.send_us_p95":                sendUs.p(95),
		"client.send_us_p99":                sendUs.p(99),
		"transport.front_wait_us_p50":       frontWait.p(50),
		"transport.front_wait_us_p95":       frontWait.p(95),
		"transport.hop_wait_us_p50":         hopWait.p(50),
		"proxy.front_handle_us_p50":         frontHandle.p(50),
		"proxy.front_handle_us_p99":         frontHandle.p(99),
		"outbox.dwell_ms_p50":               dwell.p(50),
		"outbox.deliver_us_p50":             deliver.p(50),
		"trace.spans":                       float64(len(t.spans)),
		"client.retry_gap_us_mean":          0,
		"client.attempts_per_ack":           0,
		"proxy.hop_handle_us_per_update":    0,
		"outbox.deliver_attempts_per_batch": 0,
		"agg.absorb_us_per_update":          0,
	}
	if gaps > 0 {
		out["client.retry_gap_us_mean"] = us(gapNs) / float64(gaps)
	}
	if okRoots > 0 {
		out["client.attempts_per_ack"] = float64(attempts) / float64(okRoots)
	}
	if acked > 0 {
		out["proxy.hop_handle_us_per_update"] = us(hopHandleNs) / float64(acked)
	}
	if len(firstTry) > 0 {
		out["outbox.deliver_attempts_per_batch"] = float64(batchAttempts) / float64(len(firstTry))
	}
	if slots > 0 {
		out["agg.absorb_us_per_update"] = us(aggNs) / float64(slots)
	}
	return out
}
