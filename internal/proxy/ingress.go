// Ingress: how an update enters the tier. The three transport.Server
// entry points authorize, decrypt into a pooled buffer outside any lock,
// and file the plaintext into the routed shard under the round lock
// (p.mu); the update that completes a round swaps the tier to the next
// epoch under that same lock and hands the closed round to round.go.
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

// authorizeHop enforces the inter-proxy secret and the cascade depth
// rules shared by the hop and batch ingresses, over any transport.
func (p *ShardedProxy) authorizeHop(secret string, hop int) (int, error) {
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
	return hop, nil
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
	return p.ingressOne(req.Body, req.ClientID, 0, false)
}

// HandleHop ingests one re-encrypted mixed update from an upstream
// proxy of the cascade. It implements transport.Server.
func (p *ShardedProxy) HandleHop(ctx context.Context, req transport.HopRequest) (transport.Receipt, error) {
	hop, err := p.authorizeHop(req.Secret, req.Hop)
	if err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	return p.ingressOne(req.Body, "", hop, true)
}

// ingressOne processes one encrypted update through the enclave
// pipeline: decrypt into a pooled buffer, file into the routed shard,
// and — when the round closes — package the round for delivery. body is
// only read: it stays the transport's (see enclave.DecryptTo).
func (p *ShardedProxy) ingressOne(body []byte, clientID string, hop int, fromHop bool) (transport.Receipt, error) {
	if err := transport.CheckBody(body); err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	var (
		closed *roundClose
		shard  int
	)
	start := time.Now()
	procErr := p.enclave.Process(func() error {
		bp, plain, decryptDur, err := p.decryptPooled(body)
		if err != nil {
			return err
		}
		// No decode here: the wire bytes go straight to the routed shard
		// (core.Shard.AddWire).
		var kept bool
		closed, shard, kept, err = p.ingest(plain, clientID, hop, fromHop, decryptDur, 0)
		p.releasePlain(bp, kept)
		return err
	})
	p.mu.Lock()
	p.processT.add(time.Since(start))
	p.mu.Unlock()
	if procErr != nil {
		return transport.Receipt{Shard: -1}, ingressError(procErr)
	}
	if closed != nil {
		if err := p.packageRound(closed); err != nil {
			// The round's material is retained in memory (see
			// packageRound) and WILL be delivered with the next committed
			// entry, so the update is still accepted — an error response
			// here would make the sender retry and double-count it.
			log.Printf("proxy: round %d outbox commit failed (material retained): %v", closed.epoch, err)
		}
	}
	return transport.Receipt{Shard: shard}, nil
}

// decryptPooled opens body (only read, see enclave.DecryptTo) into a
// buffer leased from plainPool; releasePlain ends the lease.
func (p *ShardedProxy) decryptPooled(body []byte) (bp *[]byte, plain []byte, dur time.Duration, err error) {
	bp, _ = p.plainPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if cap(*bp) < len(body) {
		*bp = make([]byte, 0, len(body)) // the plaintext is shorter than its ciphertext
	}
	t0 := time.Now()
	plain, err = p.enclave.DecryptTo(*bp, body)
	dur = time.Since(t0)
	p.observeDecrypt(dur)
	if err != nil {
		p.plainPool.Put(bp)
		return nil, nil, dur, fmt.Errorf("proxy: decrypt: %w", err)
	}
	return bp, plain, dur, nil
}

// releasePlain ends a plaintext lease: the buffer is recycled at once,
// unless a shard kept (part of) it — then that shard's round owns it and
// only the lease's box returns to the pool.
func (p *ShardedProxy) releasePlain(bp *[]byte, kept bool) {
	if kept {
		*bp = nil
	} else if p.plainReleased != nil {
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

// HandleBatch ingests a whole drained round from an upstream proxy: a
// BatchEnvelope wrapped for this enclave. It implements
// transport.Server, shares the hop gate and depth rules with HandleHop,
// and dedups on the sender's idempotency id so a redelivered batch
// (lost acknowledgement, crashed upstream) cannot double-count a round.
func (p *ShardedProxy) HandleBatch(ctx context.Context, req transport.BatchRequest) (transport.Receipt, error) {
	hop, err := p.authorizeHop(req.Secret, req.Hop)
	if err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	if err := transport.CheckBody(req.Body); err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	duplicate, err := p.seen.Claim(req)
	if duplicate || err != nil {
		return transport.Receipt{Shard: -1, Duplicate: duplicate}, err
	}
	var closes []*roundClose
	start := time.Now()
	procErr := p.enclave.Process(func() error {
		bp, plain, decryptDur, err := p.decryptPooled(req.Body)
		if err != nil {
			return err
		}
		kept := false
		defer func() { p.releasePlain(bp, kept) }()
		env, err := wire.DecodeBatchEnvelope(plain) // items alias plain
		if err != nil {
			return fmt.Errorf("proxy: %w", err)
		}
		// Check every item against ONE layout (the first item's: the
		// carried layout in the steady state) before filing any, so a
		// malformed or heterogeneous batch cannot leave the round
		// half-applied (the upstream quarantines rejected entries and must
		// be able to trust that nothing was counted).
		t1 := time.Now()
		layout, err := p.slabPool.LayoutFor(env.Updates[0])
		if err != nil {
			return fmt.Errorf("proxy: batch update 0: %w", err)
		}
		for i, raw := range env.Updates[1:] {
			if err := layout.CheckWire(raw); err != nil {
				return fmt.Errorf("proxy: batch update %d: %w", i+1, err)
			}
		}
		checkDur := time.Since(t1)
		// Spread the one decrypt/check over the items so per-update stage
		// means stay comparable with the single-update path.
		n := time.Duration(len(env.Updates))
		var skipped int
		var firstErr error
		for i, raw := range env.Updates {
			closed, _, k, err := p.ingest(raw, "", hop, true, decryptDur/n, checkDur/n)
			kept = kept || k
			if err != nil {
				// An item the open round's mixers reject (structure set
				// by earlier traffic of this epoch) can never be mixed at
				// this hop — rejecting the WHOLE batch here would let a
				// half-applied round masquerade as "nothing counted" when
				// the upstream quarantines it. Skip just this item, keep
				// the rest of the round.
				if skipped++; firstErr == nil {
					firstErr = fmt.Errorf("proxy: batch update %d: %w", i, err)
				}
				continue
			}
			if closed != nil {
				closes = append(closes, closed)
			}
		}
		if skipped > 0 { // one line per batch: the peer chooses how many items it carries
			log.Printf("proxy: batch: %d of %d updates skipped, first: %v", skipped, len(env.Updates), firstErr)
		}
		if skipped == len(env.Updates) {
			return firstErr // nothing applied; safe for the upstream to quarantine
		}
		return nil
	})
	p.mu.Lock()
	p.processT.add(time.Since(start))
	p.mu.Unlock()
	// Rounds that closed DID close — their mixers were swapped out and
	// p.closing incremented — so package them even when a later item
	// failed: skipping would leak p.closing/putEpoch and wedge SealState,
	// Flush and every future round's commit.
	for _, c := range closes {
		if err := p.packageRound(c); err != nil {
			// Retained in p.pending (see packageRound); the material IS
			// applied, so this is not the sender's problem — an error
			// response would trigger a redelivery that double-counts.
			log.Printf("proxy: round %d outbox commit failed (material retained): %v", c.epoch, err)
		}
	}
	if procErr != nil {
		// Nothing was applied (structure check failures precede any ingest,
		// and the all-items-failed path mixes nothing), so release the id
		// for a future redelivery.
		p.seen.Finish(req, false)
		return transport.Receipt{Shard: -1}, ingressError(procErr)
	}
	p.seen.Finish(req, true)
	return transport.Receipt{Shard: -1}, nil
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
// pipelining).
//
// The close's hop is the depth to stamp on the delivered round: one past
// the highest incoming depth seen in the current round. Buffered material
// loses its individual depth inside the mixers, so the watermark is what
// keeps depth monotone — in an accidental proxy cycle the watermark grows
// every traversal until the MaxHops check breaks the loop.
//
// keptWire reports whether the shard still references raw after the
// call (core.Shard.RetainsWire); otherwise the caller may reuse it.
func (p *ShardedProxy) ingest(raw []byte, clientID string, hop int, fromHop bool, decryptDur, checkDur time.Duration) (closed *roundClose, shard int, keptWire bool, err error) {
	size := len(raw)
	p.enclave.Alloc(size)

	p.mu.Lock()
	shard = p.topo.Route(clientID, p.rst)
	p.decryptT.add(decryptDur)
	p.updateBytes = size
	tAdd := time.Now()
	out, err := p.shards[shard].AddWire(raw)
	keptWire = err == nil && p.shards[shard].RetainsWire()
	p.storeT.add(checkDur + time.Since(tAdd)) // §6.5 store stage: check + file into the lists
	if err != nil {
		// Route already charged the shard's quota; a rejected update must
		// not consume it.
		p.rst.Load[shard]--
		p.mu.Unlock()
		p.enclave.Free(size)
		return nil, shard, false, fmt.Errorf("proxy: shard %d mix: %w", shard, err)
	}
	t2 := time.Now()
	if out != nil {
		p.pending = append(p.pending, *out)
	}
	if fromHop {
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
			p.mixT.add(time.Since(t2))
			p.mu.Unlock()
			return nil, shard, keptWire, ferr
		}
		closed = &roundClose{epoch: p.rounds, hop: p.hopMark + 1, topo: p.topo, mixers: p.shards, pending: p.pending}
		// Roll the retired mixers' counters into the cumulative ledger
		// HERE, under the same lock as the swap, so per-shard Received
		// never appears to regress in a concurrently-polled Status. The
		// drain's emissions land later (see packageRound/emitBase).
		closed.emitBase = make([]int, len(closed.mixers))
		for s, m := range closed.mixers {
			p.shardRecv[s] += m.Received()
			closed.emitBase[s] = m.Emitted()
			p.shardEmit[s] += closed.emitBase[s]
		}
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
	p.mixT.add(time.Since(t2)) // §6.5 mix stage: emission assembly + epoch swap
	p.mu.Unlock()
	return closed, shard, keptWire, nil
}
