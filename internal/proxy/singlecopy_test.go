package proxy

// Batteries for the single-copy delivery path: the ownership rule that
// makes its aliasing safe (an outbox entry's bytes are immutable from Put
// to Ack; a receiver only reads request bodies), the O(1) batch id's
// stability across everything that can happen between a first attempt
// and its redelivery, and the lifetime of the aggregator's pooled rows.

import (
	"context"
	"crypto/sha256"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"mixnn/internal/core"
	"mixnn/internal/enclave"
	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// batchTap sits in front of a transport.Server and records every batch
// delivery it sees. It can lose acknowledgements (the handler applies the
// batch, the sender is told 503) and take the peer down (503 without
// applying) — the two halves of "the sender cannot know".
type batchTap struct {
	transport.Server

	mu       sync.Mutex
	loseAcks int  // apply, then answer 503, this many times
	thenDown bool // go down after the last lost ack
	down     bool
	calls    []tapCall
}

type tapCall struct {
	// req is the request as handed over; its Body is kept only for its
	// address — the sender may reuse the buffer once the call returned.
	req       transport.BatchRequest
	body      []byte   // a copy of the body as it arrived
	sum       [32]byte // of the body as it arrived
	intact    bool     // body unchanged when the handler returned
	applied   bool     // the inner handler ran
	duplicate bool
	err       error
}

func (b *batchTap) HandleBatch(ctx context.Context, req transport.BatchRequest) (transport.Receipt, error) {
	call := tapCall{req: req, body: append([]byte(nil), req.Body...), sum: sha256.Sum256(req.Body)}
	b.mu.Lock()
	down, lose := b.down, !b.down && b.loseAcks > 0
	if lose {
		if b.loseAcks--; b.loseAcks == 0 && b.thenDown {
			b.down = true
		}
	}
	b.mu.Unlock()
	var rcpt transport.Receipt
	if down {
		call.err = transport.Errorf(http.StatusServiceUnavailable, "peer down")
	} else {
		rcpt, call.err = b.Server.HandleBatch(ctx, req)
		call.applied, call.duplicate = true, rcpt.Duplicate
		if lose && call.err == nil {
			call.err = transport.Errorf(http.StatusServiceUnavailable, "acknowledgement lost")
		}
	}
	call.intact = sha256.Sum256(req.Body) == call.sum
	b.mu.Lock()
	b.calls = append(b.calls, call)
	b.mu.Unlock()
	return rcpt, call.err
}

func (b *batchTap) snapshot() []tapCall {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]tapCall(nil), b.calls...)
}

func (b *batchTap) waitCalls(t *testing.T, n int) []tapCall {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if calls := b.snapshot(); len(calls) >= n {
			return calls
		}
		if time.Now().After(deadline) {
			t.Fatalf("tap saw %d batch deliveries, want %d", len(b.snapshot()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// sameID fails unless every call carries calls[0]'s idempotency id and
// sender sequence, and no handler wrote into a body.
func sameID(t *testing.T, calls []tapCall) {
	t.Helper()
	first := calls[0].req
	if first.ID == "" || first.Sender == "" || !first.HasSeq {
		t.Fatalf("first delivery carries no identity: %+v", first)
	}
	for i, c := range calls {
		if c.req.ID != first.ID || c.req.Sender != first.Sender || c.req.Seq != first.Seq {
			t.Fatalf("attempt %d: id/sender/seq = %q/%q/%d, first attempt had %q/%q/%d",
				i, c.req.ID, c.req.Sender, c.req.Seq, first.ID, first.Sender, first.Seq)
		}
		if !c.intact {
			t.Fatalf("attempt %d: the receiver modified the request body", i)
		}
	}
}

// TestDeliveryEntryImmutableAcrossRetries pins the ownership rule on the
// leg where it matters most: over Loopback the plaintext server leg's
// request body IS the outbox entry's batch tail (memoised, handed over
// without a copy), so every retry must present the very same bytes at
// the very same address — nothing between Put and Ack, on either side,
// wrote over them — and the aggregator must absorb them exactly once.
func TestDeliveryEntryImmutableAcrossRetries(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 4
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	tap := &batchTap{Server: agg, loseAcks: 2}
	lb := transport.NewLoopback()
	lb.Register("loop://agg", tap)
	px, err := NewSharded(ShardedConfig{
		Upstream: "loop://agg", K: 2, RoundSize: clients, Shards: 2, Seed: 5,
		Transport: lb, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	lb.Register("loop://front", px)

	round := perturbed(initial, clients, 0)
	for _, u := range round {
		sendTyped(t, lb, encl, "loop://front", "", u)
	}
	flushTier(t, px)
	calls := tap.waitCalls(t, 3)
	sameID(t, calls)
	for i, c := range calls {
		if c.sum != calls[0].sum || unsafe.SliceData(c.req.Body) != unsafe.SliceData(calls[0].req.Body) {
			t.Fatalf("attempt %d was sent from a different or modified buffer", i)
		}
		if want := i > 0; c.duplicate != want {
			t.Fatalf("attempt %d: duplicate = %v, want %v", i, c.duplicate, want)
		}
	}
	classic := fl.NewServer(initial)
	if err := classic.Aggregate(round); err != nil {
		t.Fatal(err)
	}
	if agg.Round() != 1 || !agg.Global().ApproxEqual(classic.Global(), 1e-9) {
		t.Fatalf("round = %d; redeliveries were absorbed or the mean moved", agg.Round())
	}
}

// TestDeliveryBatchIDStableAcrossRestart: the id of an entry on a Disk
// outbox survives the process. The first attempt is applied but its
// acknowledgement is lost, the aggregator goes away, the proxy is closed
// and a new one opened over the same directory; its redelivery carries
// the first attempt's id, and the aggregator acks it as a duplicate
// without absorbing it again.
func TestDeliveryBatchIDStableAcrossRestart(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 4
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	tap := &batchTap{Server: agg, loseAcks: 1, thenDown: true}
	lb := transport.NewLoopback()
	lb.Register("loop://agg", tap)
	cfg := ShardedConfig{
		Upstream: "loop://agg", K: 1, RoundSize: clients, Shards: 1, Seed: 9,
		OutboxDir: t.TempDir(), Transport: lb,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
	}
	px1, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("loop://front", px1)
	round := perturbed(initial, clients, 0)
	for _, u := range round {
		sendTyped(t, lb, encl, "loop://front", "", u)
	}
	before := tap.waitCalls(t, 2) // applied + lost ack, then at least one refused retry
	px1.Close()
	if st := px1.Status(); st.OutboxPending != 1 {
		t.Fatalf("closed proxy holds %d pending entries, want 1", st.OutboxPending)
	}

	px2, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px2.Close)
	tap.mu.Lock()
	tap.down = false
	tap.mu.Unlock()
	flushTier(t, px2)

	calls := tap.snapshot()
	sameID(t, calls)
	last := calls[len(calls)-1]
	if len(calls) <= len(before) || !last.applied || !last.duplicate || last.err != nil {
		t.Fatalf("redelivery after restart: %d calls (%d before), last = %+v", len(calls), len(before), last)
	}
	for i, c := range calls {
		if c.sum != calls[0].sum {
			t.Fatalf("attempt %d delivered different bytes than the first", i)
		}
	}
	classic := fl.NewServer(initial)
	if err := classic.Aggregate(round); err != nil {
		t.Fatal(err)
	}
	if agg.Round() != 1 || !agg.Global().ApproxEqual(classic.Global(), 1e-9) {
		t.Fatalf("round = %d; the redelivery was absorbed or the mean moved", agg.Round())
	}
	if st := px2.Status(); st.OutboxQuarantined != 0 || st.OutboxPending != 0 {
		t.Fatalf("after restart: quarantined/pending = %d/%d", st.OutboxQuarantined, st.OutboxPending)
	}
}

// TestDeliveryBatchIDStableAcrossHopRewrap: on a hop leg the body is the
// entry's one wrap, and a 428 throws that wrap away. The id must not go
// with it: the re-wrapped retry carries the rejected attempt's id over
// different bytes, and a replay of the accepted request is acked as a
// duplicate without being ingested.
func TestDeliveryBatchIDStableAcrossHopRewrap(t *testing.T) {
	frontPlat, frontEncl := sessionEnclave(t, enclave.Config{CodeIdentity: "front"})
	hopPlat, hopEncl := sessionEnclave(t, enclave.Config{CodeIdentity: "hop"})
	const clients = 3
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	lb := transport.NewLoopback()
	lb.Register("loop://agg", agg)
	hop, err := NewSharded(ShardedConfig{
		Upstream: "loop://agg", K: 1, RoundSize: clients, Shards: 1, Seed: 11,
		Transport: lb, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
	}, hopEncl, hopPlat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hop.Close)
	tap := &batchTap{Server: hop}
	lb.Register("loop://hop", tap)
	front, err := NewSharded(ShardedConfig{
		NextHop:    "loop://hop",
		NextHopKey: enclave.PinnedHop(hopEncl.PublicKey(), hopEncl.Measurement()),
		K:          1, RoundSize: clients, Shards: 1, Seed: 13,
		Transport: lb, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
	}, frontEncl, frontPlat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	lb.Register("loop://front", front)
	sendRound := func(offset float64) {
		t.Helper()
		for _, u := range perturbed(initial, clients, offset) {
			sendTyped(t, lb, frontEncl, "loop://front", "", u)
		}
		flushTier(t, front, hop)
	}

	sendRound(0)
	waitServerRound(t, agg, 1)
	hopEncl.ResetSessions() // the hop forgets the front's delivery session
	sendRound(100)
	waitServerRound(t, agg, 2)

	calls := tap.snapshot()
	if len(calls) != 3 {
		t.Fatalf("hop saw %d batch deliveries, want 3 (round 1, round 2 rejected, round 2 re-wrapped)", len(calls))
	}
	if calls[0].req.ID == calls[1].req.ID {
		t.Fatal("two different entries share an id")
	}
	rejected, rewrapped := calls[1], calls[2]
	if !transport.SessionRejected(rejected.err) || rewrapped.err != nil {
		t.Fatalf("round 2 attempts: %v, then %v; want a 428, then success", rejected.err, rewrapped.err)
	}
	sameID(t, calls[1:])
	if rejected.sum == rewrapped.sum {
		t.Fatal("the retry after a 428 resent the rejected ciphertext")
	}
	ingested := hop.Status().HopReceived
	rcpt, err := hop.HandleBatch(context.Background(), rewrapped.req)
	if err != nil || !rcpt.Duplicate || hop.Status().HopReceived != ingested {
		t.Fatalf("replayed delivery: receipt %+v, err %v, hop ingested %d → %d", rcpt, err, ingested, hop.Status().HopReceived)
	}
}

// poisonObserver checks, while it holds the lease, that every update it
// is shown is finite, and keeps a deep copy of the last round.
type poisonObserver struct {
	mu     sync.Mutex
	rounds int
	last   []nn.ParamSet
	bad    bool
}

func finite(ps nn.ParamSet) bool {
	for _, lp := range ps.Layers {
		for _, tn := range lp.Tensors {
			for _, v := range tn.Data() {
				if math.IsNaN(v) {
					return false
				}
			}
		}
	}
	return true
}

func (o *poisonObserver) ObserveRound(rec fl.RoundRecord) {
	kept := make([]nn.ParamSet, len(rec.Updates))
	ok := true
	for i, u := range rec.Updates {
		ok = ok && finite(u)
		kept[i] = u.Clone()
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rounds++
	o.last = kept
	o.bad = o.bad || !ok
}

// TestAggServerReleasedChunkNeverRead is the observer-lifetime contract
// under the race detector: the round's rows are filled with NaN the
// moment the round closes, while senders on both ingress paths and readers
// of the global model keep running. Anything that still referenced a
// released row — an observer's record, the disseminated model, an
// aggregate — would either trip the race detector on the poisoning write
// or surface a NaN.
func TestAggServerReleasedChunkNeverRead(t *testing.T) {
	const expect, rounds, senders = 4, 24, 4
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, expect)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := 0 // under agg.mu, like the release itself
	agg.released = func(c *core.SlabChunk) {
		poisoned++
		for r := 0; r < expect; r++ {
			row := c.Row(r)
			for i := range row {
				row[i] = math.NaN()
			}
		}
	}
	obs := &poisonObserver{}
	agg.SetObserver(obs)

	ctx := context.Background()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	var nan atomic.Bool
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m, err := agg.HandleModel(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			served, err := nn.DecodeParamSet(m.Body)
			if err != nil || !finite(served) || !finite(agg.Global()) {
				nan.Store(true)
			}
		}
	}()

	// Every sender sends the same number of updates, so rounds*expect in
	// total; half of them travel as two-update batches that straddle row
	// and round boundaries.
	updates := perturbed(initial, rounds*expect, 0)
	raws := make([][]byte, len(updates))
	for i, u := range updates {
		if raws[i], err = nn.EncodeParamSet(u); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	per := len(raws) / senders
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(mine [][]byte, batched bool) {
			defer wg.Done()
			for i := 0; i < len(mine); i += 2 {
				if !batched {
					for _, raw := range mine[i : i+2] {
						if _, err := agg.HandleUpdate(ctx, transport.UpdateRequest{Body: raw}); err != nil {
							t.Error(err)
						}
					}
					continue
				}
				// Odd offset: the items sit misaligned in the body, as
				// they do in a real batch.
				body, err := wire.BatchEnvelope{Updates: mine[i : i+2]}.Encode()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := agg.HandleBatch(ctx, transport.BatchRequest{Body: body}); err != nil {
					t.Error(err)
				}
			}
		}(raws[s*per:(s+1)*per], s%2 == 0)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if agg.Round() != rounds || poisoned != rounds {
		t.Fatalf("closed %d rounds and poisoned %d chunks, want %d of each", agg.Round(), poisoned, rounds)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.rounds != rounds || obs.bad || nan.Load() {
		t.Fatalf("observed %d rounds; observer saw poison: %v; a model reader saw poison: %v", obs.rounds, obs.bad, nan.Load())
	}
	// The global model is the mean of what the observer was shown last —
	// computed from rows that were poisoned right after.
	classic := fl.NewServer(initial)
	if err := classic.Aggregate(obs.last); err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(classic.Global(), 1e-9) {
		t.Fatal("global model != mean of the last observed round")
	}
}

// TestDeliveryIdenticalRoundsFromTwoFrontsBothCount: two fronts that mix
// byte-identical rounds in the same epoch (same seed, same updates —
// the benchmark's fillers did it) commit byte-identical entries. The id
// names the entry, not its content, so the aggregator takes the second
// for what it is: another sender's round, not a redelivery of the first.
func TestDeliveryIdenticalRoundsFromTwoFrontsBothCount(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 4
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	tap := &batchTap{Server: agg}
	lb := transport.NewLoopback()
	lb.Register("loop://agg", tap)
	round := perturbed(initial, clients, 0)
	for _, name := range []string{"loop://front-a", "loop://front-b"} {
		px, err := NewSharded(ShardedConfig{
			Upstream: "loop://agg", K: 2, RoundSize: clients, Shards: 1, Seed: 5, Transport: lb,
		}, encl, platform)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(px.Close)
		lb.Register(name, px)
		for _, u := range round {
			sendTyped(t, lb, encl, name, "", u)
		}
		flushTier(t, px)
	}
	calls := tap.waitCalls(t, 2)
	if calls[0].sum != calls[1].sum {
		t.Fatal("the two fronts did not produce byte-identical batch bodies; the test no longer tests the collision")
	}
	if calls[0].req.ID == calls[1].req.ID || calls[1].duplicate {
		t.Fatalf("second front's round was taken for a redelivery of the first (ids %q / %q)", calls[0].req.ID, calls[1].req.ID)
	}
	if agg.Round() != 2 {
		t.Fatalf("aggregator closed %d rounds, want 2", agg.Round())
	}
}
