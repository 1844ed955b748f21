// Ingress: how an update enters the tier. The three transport.Server
// entry points authorize and hand the body to ingress, the one path they
// share: it decrypts into a pooled buffer outside any lock and files each
// update into its routed shard under the round lock (p.mu); the update
// that completes a round swaps the tier to the next epoch under that same
// lock and hands the closed round to round.go.
package proxy

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// authorizeHop enforces the inter-proxy secret, the cascade depth rules
// and the body bound shared by the hop and batch ingresses, over any
// transport — all before the batch dedup claim, so a refused request
// never takes a slot in the dedup window.
func (p *ShardedProxy) authorizeHop(secret string, hop int, body []byte) (int, error) {
	if p.cfg.HopSecret != "" &&
		subtle.ConstantTimeCompare([]byte(secret), []byte(p.cfg.HopSecret)) != 1 {
		return 0, transport.Errorf(http.StatusUnauthorized, "hop endpoint requires the inter-proxy secret")
	}
	if hop < 0 {
		return 0, transport.Errorf(http.StatusBadRequest, "proxy: negative cascade depth %d", hop)
	}
	if hop == 0 {
		hop = 1 // an upstream proxy that omitted the depth is hop 1
	}
	if hop > p.cfg.MaxHops {
		return 0, transport.Errorf(http.StatusLoopDetected, "cascade depth %d exceeds limit %d", hop, p.cfg.MaxHops)
	}
	return hop, transport.CheckBody(body)
}

// HandleUpdate ingests one encrypted participant update (hop 0). It
// implements transport.Server; the acknowledgement means ACCEPTANCE
// INTO THE TIER — forwarding happens asynchronously through the outbox,
// so a downstream outage never turns into participant-visible errors
// (or lost rounds). Forged cascade depth is unrepresentable here: the
// typed participant request has no depth field, and the HTTP adapter
// rejects a raw X-Mixnn-Hop header before it reaches this method.
func (p *ShardedProxy) HandleUpdate(ctx context.Context, req transport.UpdateRequest) (transport.Receipt, error) {
	// Admission runs BEFORE any enclave work: a refusal here is cheap
	// and provably not ingested, so the sender can safely back off or
	// fail over without risking a double-count.
	if err := p.admit(req.ClientID); err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	if err := transport.CheckBody(req.Body); err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	return transport.Receipt{Shard: -1}, p.ingress(req.Body, req.ClientID, 0, false)
}

// HandleHop ingests one re-encrypted mixed update from an upstream
// proxy of the cascade. It implements transport.Server.
func (p *ShardedProxy) HandleHop(ctx context.Context, req transport.HopRequest) (transport.Receipt, error) {
	hop, err := p.authorizeHop(req.Secret, req.Hop, req.Body)
	if err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	return transport.Receipt{Shard: -1}, p.ingress(req.Body, "", hop, false)
}

// HandleBatch ingests a whole drained round from an upstream proxy: a
// BatchEnvelope wrapped for this enclave. It implements
// transport.Server, shares the hop gate and depth rules with HandleHop,
// and dedups on the sender's idempotency id so a redelivered batch
// (lost acknowledgement, crashed upstream) cannot double-count a round.
func (p *ShardedProxy) HandleBatch(ctx context.Context, req transport.BatchRequest) (transport.Receipt, error) {
	hop, err := p.authorizeHop(req.Secret, req.Hop, req.Body)
	if err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	duplicate, err := p.seen.Claim(req)
	if duplicate || err != nil {
		return transport.Receipt{Shard: -1, Duplicate: duplicate}, err
	}
	// A refused batch applied nothing (see ingress), so its id is released
	// for a future redelivery.
	err = p.ingress(req.Body, "", hop, true)
	p.seen.Finish(req, err == nil)
	return transport.Receipt{Shard: -1}, err
}

// ingress processes one request body through the enclave pipeline; a
// participant update is a batch of one. It decrypts the body once into a
// pooled buffer (body is only read: it stays the transport's, see
// enclave.DecryptTo) and takes the items: the plaintext itself, or the
// updates of the BatchEnvelope it holds. Every item is checked against
// ONE layout (the first item's: the carried layout in the steady state)
// before any is filed, so a malformed or heterogeneous batch cannot leave
// the round half-applied (the upstream quarantines rejected entries and
// must be able to trust that nothing was counted). Then each item is
// filed through ingest, every round that closed is packaged for delivery,
// and the stage instruments are recorded — none under the round lock.
func (p *ShardedProxy) ingress(body []byte, clientID string, hop int, batch bool) error {
	var lone [1]*roundClose // a lone update closes at most one round
	closes := lone[:0]
	// One clock reading per stage boundary: start opens the request and
	// its decrypt, t1 closes the decrypt and opens the layout check.
	start := time.Now()
	procErr := p.enclave.Process(func() error {
		bp, plain, t1, err := p.decryptPooled(body)
		if err != nil {
			return err
		}
		defer p.releasePlain(bp)
		decrypt := t1.Sub(start)
		items := [][]byte{plain}
		if batch {
			env, err := wire.DecodeBatchEnvelope(plain) // items alias plain
			if err != nil {
				return fmt.Errorf("proxy: %w", err)
			}
			items = env.Updates
			t1 = time.Now()
		}
		layout, err := p.slabPool.LayoutFor(items[0])
		if err != nil {
			return itemError(batch, 0, err)
		}
		for i, raw := range items[1:] {
			if err := layout.CheckWire(raw); err != nil {
				return itemError(batch, i+1, err)
			}
		}
		// A batch's one decrypt and one layout check are spread over its
		// items, so every stage mean is per filed update whatever the verb.
		n := time.Duration(len(items))
		decrypt, check := decrypt/n, time.Since(t1)/n
		var skipped int
		var firstErr error
		for i, raw := range items {
			closed, store, mix, err := p.ingest(raw, clientID, hop)
			if err != nil {
				// An item the open round's mixers reject (structure set
				// by earlier traffic of this epoch) can never be mixed at
				// this hop — rejecting the WHOLE batch here would let a
				// half-applied round masquerade as "nothing counted" when
				// the upstream quarantines it. Skip just this item, keep
				// the rest of the round.
				if skipped++; firstErr == nil {
					firstErr = itemError(batch, i, err)
				}
				continue
			}
			if closed != nil {
				closes = append(closes, closed)
			}
			p.decryptUs.Observe(micros(decrypt))
			p.storeUs.Observe(micros(check + store)) // §6.5 store stage: check + file into the lists
			p.mixUs.Observe(micros(mix))             // §6.5 mix stage: emission assembly + epoch swap
		}
		if batch && skipped > 0 { // one line per batch: the peer chooses how many items it carries
			log.Printf("proxy: batch: %d of %d updates skipped, first: %v", skipped, len(items), firstErr)
		}
		if skipped == len(items) {
			return firstErr // nothing applied; safe for the upstream to quarantine
		}
		return nil
	})
	p.processUs.Observe(micros(time.Since(start)))
	// Rounds that closed DID close — their mixers were swapped out and
	// p.closing incremented — so package them even when a later item
	// failed: skipping would leak p.closing/putEpoch and wedge SealState,
	// Flush and every future round's commit.
	for _, c := range closes {
		if err := p.packageRound(c); err != nil {
			// The round's material is retained (see packageRound) and WILL
			// be delivered with the next committed entry; it IS applied, so
			// an error response here would make the sender retry (or
			// redeliver) and double-count it.
			log.Printf("proxy: round %d outbox commit failed (material retained): %v", c.epoch, err)
		}
	}
	if procErr != nil {
		return ingressError(procErr)
	}
	return nil
}

// itemError names the item of a batch an error belongs to; a lone
// update's error needs no index.
func itemError(batch bool, i int, err error) error {
	if batch {
		return fmt.Errorf("proxy: batch update %d: %w", i, err)
	}
	return fmt.Errorf("proxy: %w", err)
}

// micros converts a stage duration to the instruments' unit.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// decryptPooled opens body (only read, see enclave.DecryptTo) into a
// buffer leased from plainPool; releasePlain ends the lease. end is the
// clock reading the decrypt finished at.
func (p *ShardedProxy) decryptPooled(body []byte) (bp *[]byte, plain []byte, end time.Time, err error) {
	bp, _ = p.plainPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if cap(*bp) < len(body) {
		*bp = make([]byte, 0, len(body)) // the plaintext is shorter than its ciphertext
	}
	plain, err = p.enclave.DecryptTo(*bp, body)
	if err != nil {
		p.plainPool.Put(bp)
		return nil, nil, time.Time{}, fmt.Errorf("proxy: decrypt: %w", err)
	}
	return bp, plain, time.Now(), nil
}

// releasePlain ends a plaintext lease: every shard copied what it filed,
// so the buffer is recycled at once.
func (p *ShardedProxy) releasePlain(bp *[]byte) {
	if p.plainReleased != nil {
		p.plainReleased((*bp)[:cap(*bp)])
	}
	p.plainPool.Put(bp)
}

// ingressError maps an enclave-pipeline failure onto the wire
// vocabulary. A session miss (the cache evicted it, or the enclave
// restarted and lost its volatile session memory) and a counter replay
// both become the TYPED 428 session rejection: in either case this
// attempt provably ingested nothing, and the sender recovers by
// re-establishing with a full wrap — a generic 4xx here would make the
// SDK treat the bytes as poison and the dispatcher quarantine a
// perfectly good round. Everything else stays the 400 the legacy
// decrypt path always answered.
func ingressError(err error) error {
	if errors.Is(err, enclave.ErrSessionUnknown) || errors.Is(err, enclave.ErrSessionReplay) {
		return &transport.StatusError{
			Code:           http.StatusPreconditionRequired,
			SessionUnknown: true,
			Msg:            err.Error(),
		}
	}
	return transport.Errorf(http.StatusBadRequest, "%s", err.Error())
}

// ingest files one encoded update into its shard's mixer and, when the
// round completes, swaps the tier to fresh mixers and returns a
// roundClose for packaging. The expensive stage (decrypt) already ran
// outside any lock in the caller; filing (a header check and one payload
// copy), mixing (layer pointer swaps) and the round accounting
// run under one mutex, which makes round closure atomic: a
// drain can never sweep in an update that belongs to the next round, and
// updates arriving an instant after the swap land in epoch N+1's fresh
// mixers while epoch N drains in the background (cross-round
// pipelining). store and mix are how long the filing and the rest took;
// the caller records them once the lock is released.
//
// The close's hop is the depth to stamp on the delivered round: one past
// the highest incoming depth seen in the current round. Buffered material
// loses its individual depth inside the mixers, so the watermark is what
// keeps depth monotone — in an accidental proxy cycle the watermark grows
// every traversal until the MaxHops check breaks the loop.
//
// The per-shard books are kept here, where the events happen: the update
// filed into shard s, and an emission if filing it swapped one out.
func (p *ShardedProxy) ingest(raw []byte, clientID string, hop int) (closed *roundClose, store, mix time.Duration, err error) {
	size := len(raw)
	p.enclave.Alloc(size)

	p.mu.Lock()
	shard := p.topo.Route(clientID, p.rst)
	p.updateBytes = size
	tAdd := time.Now()
	out, err := p.shards[shard].AddWire(raw)
	if err != nil {
		// Route already charged the shard's quota; a rejected update must
		// not consume it.
		p.rst.Load[shard]--
		p.mu.Unlock()
		p.enclave.Free(size)
		return nil, 0, 0, fmt.Errorf("shard %d mix: %w", shard, err)
	}
	t2 := time.Now()
	store = t2.Sub(tAdd)
	p.shardRecv[shard]++
	if out != nil {
		p.pending = append(p.pending, *out)
		p.shardEmit[shard]++
	}
	if hop > 0 {
		p.hopReceived++
	} else {
		p.received++
	}
	if hop > p.hopMark {
		p.hopMark = hop
	}
	p.inRound++
	if p.inRound >= p.topo.RoundSize() {
		// The epoch boundary is where the routing plane may change: any
		// staged topology (admin directive, shards-file reload) becomes
		// the next epoch's plan, applied under the same lock as the mixer
		// swap — membership changes can never tear an open round.
		nextTopo := p.planner.Advance()
		fresh, ferr := newShardSet(p.cfg, nextTopo, p.rounds+1, p.slabPool)
		if ferr != nil {
			// Unreachable for a validated topology; leave the round open
			// so the next ingest retries the close.
			p.mu.Unlock()
			return nil, store, 0, ferr
		}
		closed = &roundClose{epoch: p.rounds, hop: p.hopMark + 1, topo: p.topo, mixers: p.shards, pending: p.pending}
		p.installEpochLocked(nextTopo, fresh, p.rst.RR)
		p.pending = nil
		// Any retained (failed-commit) material just moved into this
		// close; if its commit fails too, packageRound re-counts it.
		p.retained = 0
		p.rounds++
		p.inRound = 0
		p.hopMark = 0
		p.closing++
	}
	mix = time.Since(t2)
	p.mu.Unlock()
	return closed, store, mix, nil
}
