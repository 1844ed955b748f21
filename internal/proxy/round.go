// Round packaging: a closed round's way from its retired shards to the
// outbox. The drain and encode run outside the round lock (p.mu); the
// lock is taken for the epoch-ordered commit turn and to account for
// (or re-file) what failed to commit.
package proxy

import (
	"log"
	"runtime"
	"time"

	"mixnn/internal/core"
	"mixnn/internal/nn"
	"mixnn/internal/outbox"
	"mixnn/internal/route"
)

// roundClose carries everything a completed round needs on its way to
// the outbox: the epoch, the topology it closed under (which shards are
// remote, and the version delivery is keyed by), the hop depth to stamp
// (watermark + 1), the retired shard slots (still holding the round's
// buffered material) and the mid-round emissions.
type roundClose struct {
	epoch   int
	hop     int
	topo    *route.Topology
	mixers  []core.Shard
	pending []nn.ParamSet
}

// destEntry is one destination's share of a closed round on its way to
// the outbox: the tier's ordinary downstream (dest == "", the mixed
// material) or a remote shard address (the material its relay buffered).
// Either way the updates are views of slab rows, encoded into the entry.
type destEntry struct {
	dest    string
	updates []nn.ParamSet
}

// cut returns the end of the longest run of the share's updates from lo
// whose entry stays within limit bytes, and the run's encoded size. A run
// takes at least one update: one that alone exceeds the bound cannot be
// made smaller here, and the receiver's refusal quarantines its entry
// with the reason in the log.
func (de destEntry) cut(lo, limit int) (hi, size int) {
	for hi = lo; hi < len(de.updates); hi++ {
		n := nn.EncodedSize(de.updates[hi])
		if hi > lo && outbox.EntrySize(de.dest, hi-lo+1, size+n) > limit {
			break
		}
		size += n
	}
	return hi, size
}

// resizeLedger maps a cumulative per-shard ledger onto a new shard count:
// unchanged when P stays, otherwise the total is preserved and spread
// evenly (per-shard exactness is not meaningful across a membership
// change).
func resizeLedger(old []int, pPrime int) []int {
	if len(old) == pPrime {
		return old
	}
	total := 0
	for _, v := range old {
		total += v
	}
	out := make([]int, pPrime)
	for s := 0; s < pPrime; s++ {
		out[s] = total / pPrime
		if s < total%pPrime {
			out[s]++
		}
	}
	return out
}

// installEpochLocked makes (topo, shards) the epoch being ingested: the
// install half of every epoch swap — round close, an idle-applied staged
// plan, a restore. Caller holds p.mu and has already taken what it needs
// from the outgoing shards.
func (p *ShardedProxy) installEpochLocked(topo *route.Topology, shards []core.Shard, rr int) {
	// A membership change resizes the cumulative per-shard ledgers
	// sum-preservingly: per-shard exactness is not meaningful when the
	// shards themselves changed.
	p.shardRecv = resizeLedger(p.shardRecv, topo.P())
	p.shardEmit = resizeLedger(p.shardEmit, topo.P())
	p.topo = topo
	// The per-round quota loads reset, but the round-robin cursor carries
	// across epochs (as the pre-topology tier's did), so which shards take
	// a non-divisible round's extra updates rotates instead of always
	// starving the last shard.
	p.rst = topo.NewState()
	p.rst.RR = rr % topo.P()
	p.shards = shards
}

// packageRound drains a closed round's retired shard slots and commits
// the round to the outbox in epoch order: one sealed entry for the
// downstream (mid-round emissions plus every local shard's drain) and, in
// a multi-process topology, one sealed entry per remote shard holding the
// material routed to it (relayed to that shard's enclave by the delivery
// dispatcher). A share with no material commits nothing, and a share too
// large for one request body is cut into several entries (see maxEntry),
// each a complete entry with its own sequence number and batch id. It
// runs outside p.mu (and outside the enclave's constant-time gate), so
// ingest of the next epoch proceeds concurrently. On a commit failure the
// material is retained — downstream material in p.pending, remote
// material back in the live relay shard for its address when one exists
// — so nothing mixed (or relayed) is ever dropped.
func (p *ShardedProxy) packageRound(rc *roundClose) error {
	entries := []destEntry{{dest: "", updates: rc.pending}}
	drained := make([]int, len(rc.mixers))
	for s, m := range rc.mixers {
		updates := m.Drain()
		drained[s] = len(updates)
		if addr := rc.topo.Spec(s).Addr; addr != "" {
			if len(updates) > 0 {
				entries = append(entries, destEntry{dest: addr, updates: updates})
			}
			continue
		}
		entries[0].updates = append(entries[0].updates, updates...)
	}
	// Encode everything before taking the epoch's commit turn. Each
	// update is append-encoded straight into its entry — the buffer the
	// queue will hold and the request body the receiver will read, built
	// in an acked entry's spare when the queue has one that fits — so a
	// round's bytes are written once on their way to the outbox.
	type rawEntry struct {
		destEntry
		raw   []byte
		bytes int
	}
	raws := make([]rawEntry, 0, len(entries))
	var encErr error
pack:
	for _, share := range entries {
		for lo := 0; lo < len(share.updates); {
			hi, size := share.cut(lo, p.maxEntry)
			de := destEntry{dest: share.dest, updates: share.updates[lo:hi]}
			lo = hi
			b, err := p.dlv.box.NewEntry(outbox.Envelope{
				Epoch:       uint64(rc.epoch),
				TopoVersion: rc.topo.Version(),
				Hop:         rc.hop,
				Dest:        de.dest,
			}, outbox.EntrySize(de.dest, len(de.updates), size))
			for i := 0; err == nil && i < len(de.updates); i++ {
				err = b.Append(func(buf []byte) ([]byte, error) { return nn.AppendParamSet(buf, de.updates[i]) })
			}
			if err != nil {
				encErr = err
				break pack
			}
			raws = append(raws, rawEntry{destEntry: de, raw: b.Finish(), bytes: size})
		}
	}
	// Ordered commit: take this epoch's turn even when there is nothing
	// to Put — the epoch chain must advance by exactly one per close or
	// every later commit (and SealState/Flush) waits forever.
	p.mu.Lock()
	for p.putEpoch != rc.epoch {
		p.cond.Wait()
	}
	p.mu.Unlock()
	var failed []destEntry
	committed := 0
	err := encErr
	if encErr != nil {
		failed = entries
	} else {
		for _, re := range raws {
			// A short retry absorbs transient commit failures (disk
			// hiccups) here, while the epoch's commit turn is held: a
			// round retained past this point only re-commits at the NEXT
			// round close, which on a quiescent tier may never come.
			var putErr error
			for attempt := 0; ; attempt++ {
				if _, putErr = p.dlv.box.Put(re.raw); putErr == nil || attempt >= 2 {
					break
				}
				time.Sleep(100 * time.Millisecond)
			}
			if putErr != nil {
				failed = append(failed, re.destEntry)
				if err == nil {
					err = putErr
				}
				continue
			}
			p.enclave.Free(re.bytes)
			committed += re.bytes
		}
	}

	p.mu.Lock()
	// The drain emitted what each retired shard still held, whatever the
	// commit outcome (the books describe mixing history, not delivery).
	// The ledger may have been resized by a concurrent membership change.
	for s, n := range drained {
		p.shardEmit[s%len(p.shardEmit)] += n
	}
	for _, de := range failed {
		if de.dest != "" {
			// Remote-destined material must NOT fall back to the
			// downstream: it is unmixed participant material whose mixing
			// hop is a mixing enclave, and delivering it raw would hand
			// the server individually-linkable updates. Return it to the
			// live relay shard for the same address when the current
			// topology still has one; otherwise file it into the current
			// epoch's shard 0 — a local mixer absorbs it into the open
			// round (over-full buffers stay conservative), a relay slot
			// relays it to that shard's enclave. Either way it is mixed
			// before it travels, is covered by SealState, and rides the
			// next round close.
			s := p.relayShardLocked(de.dest)
			if s < 0 {
				s = 0
				log.Printf("proxy: remote shard %s left the topology with %d uncommitted updates; re-filing them into shard 0 of the current epoch", de.dest, len(de.updates))
			}
			// Re-filed updates were counted when ingest first filed them;
			// the books do not count them again.
			for i, u := range de.updates {
				if rerr := p.shards[s].RestoreEntry(u); rerr != nil {
					// Structurally incompatible with the open round (model
					// changed between epochs) — the only escape left is
					// the pending buffer; it reaches the server mixed with
					// nothing, so be loud about the privacy downgrade.
					log.Printf("proxy: re-file update into shard %d failed (%v); %d updates will deliver downstream UNMIXED", s, rerr, len(de.updates)-i)
					p.pending = append(append([]nn.ParamSet{}, de.updates[i:]...), p.pending...)
					break
				}
			}
			// Both halves await the next round close (re-filed head in a
			// shard, incompatible tail in pending), so both count as
			// retained: Flush must keep failing until they move.
			p.retained += len(de.updates)
			continue
		}
		// Downstream material is already mixed; retain it in memory and
		// it joins the next downstream entry (and any SealState blob
		// taken before then).
		p.pending = append(append([]nn.ParamSet{}, de.updates...), p.pending...)
		p.retained += len(de.updates)
	}
	p.putEpoch = rc.epoch + 1
	p.closing--
	p.cond.Broadcast()
	p.mu.Unlock()
	if err == nil {
		// The whole round is sealed in the outbox: every emission and
		// drained update was copied into the committed entries, so nothing
		// references the retired shards' slab rows any more — recycle the
		// chunks for a future epoch's shards. On a failed commit the
		// retained material still aliases the slabs, so we skip this and
		// let the GC reclaim them instead.
		for _, m := range rc.mixers {
			if sm, ok := m.(interface{ ReleaseSlab() }); ok {
				sm.ReleaseSlab()
			}
		}
	}
	// What did commit travels now, whatever failed beside it.
	if committed > 0 {
		p.dlv.disp.Wake()
		if committed >= handOffBytes {
			runtime.Gosched()
		}
	}
	return err
}

// handOffBytes is the round size from which the goroutine that closed a
// round yields its core to the delivery goroutines Wake just readied:
// the entry it wrote is still in this core's cache and the aggregator
// waits for the round more than one sender waits for its ack, whereas on
// saturated cores a readied goroutine otherwise queues behind the
// senders' own hand-offs. A yield costs a scheduling round trip whatever
// the round holds, so small rounds keep going: mlp_cascade_closed
// commits ≈20KB a round and paid 1.5µs of CPU per update for yielding,
// conv_closed commits 2.7MB and sheds a quarter of its absorb lag
// (DESIGN §11).
const handOffBytes = 256 << 10

// relayShardLocked returns the index of the live relay shard for addr,
// -1 when the current topology has none. Caller holds p.mu.
func (p *ShardedProxy) relayShardLocked(addr string) int {
	for s := 0; s < p.topo.P(); s++ {
		if p.topo.Spec(s).Addr == addr {
			return s
		}
	}
	return -1
}
