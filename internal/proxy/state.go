// Durable state: sealing the tier's open round under the enclave's
// identity-bound keys and restoring it into a replacement, under the
// sealed topology or resharded into the replacement's own.
package proxy

import (
	"encoding/json"
	"fmt"

	"mixnn/internal/core"
	"mixnn/internal/route"
)

// shardStateLabel domain-separates the tier's durable state from other
// sealed material; each shard's section is additionally sealed under a
// per-shard derived key (see sectionLabel).
const shardStateLabel = "mixnn/sharded-state/v1"

func sectionLabel(shard int) string {
	switch shard {
	case core.PendingSection:
		return shardStateLabel + "/pending"
	case core.TrustSection:
		return shardStateLabel + "/trust"
	}
	return fmt.Sprintf("%s/shard/%d", shardStateLabel, shard)
}

// SealState exports the whole tier's durable state — every shard's
// buffered layers, the pending (emitted but not yet committed) updates,
// the per-shard ledgers, routing metadata and the round ledger — sealed
// under the enclave's identity-bound keys, so a proxy crash mid-round
// loses no participant material and leaks none to the untrusted host
// (§2.5 sealing applied to the §4.3 lists, tier-wide). Outbox entries are
// NOT in the blob: they are already durable (and sealed) on disk.
// SealState is safe to call concurrently with ingress: it waits for
// in-flight round commits (so no material sits between mixers and the
// outbox) and snapshots under the same mutex that serialises mixing, so
// the blob is always round-consistent.
func (p *ShardedProxy) SealState() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.closing > 0 {
		p.cond.Wait()
	}
	shardRecv := make([]int, len(p.shards))
	shardEmit := make([]int, len(p.shards))
	for s, m := range p.shards {
		shardRecv[s] = p.shardRecv[s] + m.Received()
		shardEmit[s] = p.shardEmit[s] + m.Emitted()
	}
	load := make([]int, len(p.rst.Load))
	copy(load, p.rst.Load)
	// Remote-shard trust material rides the blob (sealed under its own
	// derived key — it carries inter-proxy secrets) so the replacement
	// tier can re-attest its relay peers without an admin directive.
	var trustBlob []byte
	if trust := p.dlv.trust(); len(trust) > 0 {
		var err error
		if trustBlob, err = json.Marshal(trust); err != nil {
			return nil, fmt.Errorf("proxy: marshal remote trust: %w", err)
		}
	}
	forwarded, _ := p.dlv.counters()
	raw, err := core.SealShardedState(p.shards, core.ShardedStateMeta{
		Routing:       core.RoutingMode(p.topo.Mode()),
		RRCursor:      p.rst.RR,
		InRound:       p.inRound,
		Rounds:        p.rounds,
		HopMark:       p.hopMark,
		Received:      p.received,
		HopReceived:   p.hopReceived,
		Forwarded:     forwarded,
		ShardReceived: shardRecv,
		ShardEmitted:  shardEmit,
		Pending:       p.pending,
		ShardLoad:     load,
		Topo:          p.topo.Marshal(),
		RemoteTrust:   trustBlob,
	}, func(s int, plain []byte) ([]byte, error) {
		return p.enclave.SealLabeled(sectionLabel(s), plain)
	})
	if err != nil {
		return nil, fmt.Errorf("proxy: export tier state: %w", err)
	}
	blob, err := p.enclave.SealLabeled(shardStateLabel, raw)
	if err != nil {
		return nil, fmt.Errorf("proxy: seal tier state: %w", err)
	}
	return blob, nil
}

// RestoreState loads a SealState blob into a freshly-constructed tier
// (same enclave identity and platform).
//
// With AdoptSealedTopology set, the tier comes back under
// EXACTLY the topology it was sealed under — routing mode, shard
// weights, remote placement, quota loads and topology version — so a
// crash-restart lands mid-round with the routing plane intact, whatever
// the replacement's static flags said.
//
// Otherwise the blob's material is resharded into THIS tier's configured
// topology: buffered material is redistributed across the new shards
// with the round's layer-wise aggregate unchanged, so an operator can
// crash a P-shard proxy and bring up a P′-shard replacement mid-round.
// Per-shard mixer ledgers restore exactly for an unchanged shard count
// and as a sum-preserving redistribution otherwise; pending emissions
// restore into the pending buffer and ride the next round's outbox
// entry.
func (p *ShardedProxy) RestoreState(blob []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.received != 0 || p.hopReceived != 0 {
		return fmt.Errorf("proxy: RestoreState on a proxy that already processed updates")
	}
	raw, err := p.enclave.UnsealLabeled(shardStateLabel, blob)
	if err != nil {
		return fmt.Errorf("proxy: unseal tier state: %w", err)
	}
	// Restore into fresh mixers so a failed restore cannot leave the
	// serving tier half-populated. The mixers continue the sealed tier's
	// epoch, so their rand streams don't replay an earlier epoch's.
	epoch, err := core.ShardedStateRounds(raw)
	if err != nil {
		return fmt.Errorf("proxy: restore tier state: %w", err)
	}
	topo := p.topo
	adopted := false
	if p.cfg.AdoptSealedTopology {
		topoBlob, err := core.ShardedStateTopo(raw)
		if err != nil {
			return fmt.Errorf("proxy: restore tier state: %w", err)
		}
		if topoBlob != nil {
			if topo, err = route.Parse(topoBlob); err != nil {
				return fmt.Errorf("proxy: sealed topology: %w", err)
			}
			adopted = true
		}
	}
	fresh, err := newShardSet(p.cfg, topo, epoch, p.slabPool)
	if err != nil {
		return err
	}
	meta, err := core.RestoreShardedState(raw, fresh, func(s int, sealed []byte) ([]byte, error) {
		return p.enclave.UnsealLabeled(sectionLabel(s), sealed)
	})
	if err != nil {
		return fmt.Errorf("proxy: restore tier state: %w", err)
	}
	// Every remote shard of the adopted topology needs either an
	// already-registered key or sealed trust material to re-attest from;
	// with neither the relay leg could never
	// deliver, so refuse the restore up front.
	sealedTrust := make(map[string]RemoteTrust)
	if meta.RemoteTrust != nil {
		if err := json.Unmarshal(meta.RemoteTrust, &sealedTrust); err != nil {
			return fmt.Errorf("proxy: sealed remote trust: %w", err)
		}
	}
	if adopted {
		for _, addr := range topo.Remotes() {
			if _, ok := p.dlv.remote(addr); ok {
				continue
			}
			if _, ok := sealedTrust[addr]; !ok {
				return fmt.Errorf("proxy: sealed topology names remote shard %q but no attested key is registered (RemoteShards) and the blob carries no trust material for it", addr)
			}
		}
	}
	if meta.Routing < core.RoutingHashRR || meta.Routing > core.RoutingHashQuota {
		return fmt.Errorf("proxy: sealed state uses unknown routing mode %d", meta.Routing)
	}
	if meta.InRound >= topo.RoundSize() {
		return fmt.Errorf("proxy: sealed in-round progress %d does not fit round size %d", meta.InRound, topo.RoundSize())
	}
	p.installEpochLocked(topo, fresh, meta.RRCursor)
	p.planner.Reset(topo)
	if adopted && meta.ShardLoad != nil && len(meta.ShardLoad) == topo.P() {
		copy(p.rst.Load, meta.ShardLoad)
	} else {
		// Resharded restore: the sealed per-shard loads describe shards
		// that no longer exist. Spread the open round's routed count
		// round-robin — approximate, but quota enforcement only needs the
		// totals to add up.
		for i := 0; i < meta.InRound; i++ {
			p.rst.Load[i%topo.P()]++
		}
	}
	p.inRound = meta.InRound
	p.rounds = meta.Rounds
	p.putEpoch = meta.Rounds
	p.hopMark = meta.HopMark
	p.received = meta.Received
	p.hopReceived = meta.HopReceived
	p.pending = meta.Pending
	p.restoredFrom = meta.SealedShards
	p.shardRecv, p.shardEmit = restoredLedgers(meta, fresh)
	p.dlv.restore(meta.Forwarded, sealedTrust)
	return nil
}

// restoredLedgers maps the sealed per-shard mixer ledgers onto the
// restoring tier. With an unchanged shard count the mapping is exact
// (each mixer already re-counted its restored entries; the carry is the
// history beyond them). Across a reshard the totals are preserved and
// spread evenly — per-shard exactness is not meaningful when the shards
// themselves changed.
func restoredLedgers(meta core.ShardedStateMeta, mixers []core.Shard) (recv, emit []int) {
	pPrime := len(mixers)
	recv = make([]int, pPrime)
	emit = make([]int, pPrime)
	if pPrime == meta.SealedShards {
		for s := range mixers {
			if recv[s] = meta.ShardReceived[s] - mixers[s].Received(); recv[s] < 0 {
				recv[s] = 0
			}
			emit[s] = meta.ShardEmitted[s]
		}
		return recv, emit
	}
	totalRecv, totalEmit, restored := 0, 0, 0
	for _, v := range meta.ShardReceived {
		totalRecv += v
	}
	for _, v := range meta.ShardEmitted {
		totalEmit += v
	}
	for _, m := range mixers {
		restored += m.Received()
	}
	carry := totalRecv - restored
	if carry < 0 {
		carry = 0
	}
	for s := 0; s < pPrime; s++ {
		recv[s] = carry / pPrime
		if s < carry%pPrime {
			recv[s]++
		}
		emit[s] = totalEmit / pPrime
		if s < totalEmit%pPrime {
			emit[s]++
		}
	}
	return recv, emit
}
