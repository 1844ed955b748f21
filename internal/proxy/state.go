// Durable state: sealing the tier's open round under the enclave's
// identity-bound keys and restoring it into a replacement under the
// topology it was sealed under.
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
	raw, err := core.SealShardedState(p.shards, core.ShardedStateMeta{
		Routing:       uint8(p.topo.Mode()),
		RRCursor:      p.rst.RR,
		InRound:       p.inRound,
		Rounds:        p.rounds,
		HopMark:       p.hopMark,
		Received:      p.received,
		HopReceived:   p.hopReceived,
		Forwarded:     int(p.dlv.forwarded.Value()),
		ShardReceived: p.shardRecv,
		ShardEmitted:  p.shardEmit,
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
// (same enclave identity and platform). The tier comes back under EXACTLY
// the topology it was sealed under — routing mode, shard weights, remote
// placement, quota loads and topology version — whatever shape this tier
// was constructed with: an open round's shard membership fixes its
// anonymity sets and quotas, so the round finishes under the plan it
// opened under. A different shape is a directive like any other
// (StageTopology after the restore): promoted at once when the restored
// tier is idle, at the next round close otherwise. The per-shard books
// restore exactly; pending emissions restore into the pending buffer and
// ride the next round's outbox entry.
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
	// Parse the blob once. What the fresh shard set needs comes first — the
	// sealed epoch, so the mixers' rand streams continue it instead of
	// replaying an earlier one, and the topology, which says which shards
	// are mixers and which relays — and the held sections are filed once
	// it exists. Filing into fresh shards means a failed restore cannot
	// leave the serving tier half-populated.
	opened, err := core.OpenShardedState(raw, func(s int, sealed []byte) ([]byte, error) {
		return p.enclave.UnsealLabeled(sectionLabel(s), sealed)
	})
	if err != nil {
		return fmt.Errorf("proxy: restore tier state: %w", err)
	}
	meta := opened.Meta
	if meta.Topo == nil {
		return fmt.Errorf("proxy: restore tier state: the blob carries no topology section to restore under")
	}
	topo, err := route.Parse(meta.Topo)
	if err != nil {
		return fmt.Errorf("proxy: sealed topology: %w", err)
	}
	fresh, err := newShardSet(p.cfg, topo, meta.Rounds, p.slabPool)
	if err != nil {
		return err
	}
	// Every remote shard of the sealed topology needs either an
	// already-registered key or sealed trust material to re-attest from;
	// with neither the relay leg could never deliver, so refuse the
	// restore up front.
	trust := make(map[string]RemoteTrust)
	if meta.RemoteTrust != nil {
		if err := json.Unmarshal(meta.RemoteTrust, &trust); err != nil {
			return fmt.Errorf("proxy: sealed remote trust: %w", err)
		}
	}
	for _, addr := range topo.Remotes() {
		if _, ok := p.dlv.remote(addr); ok {
			continue
		}
		if _, ok := trust[addr]; !ok {
			return fmt.Errorf("proxy: sealed topology names remote shard %q but no attested key is registered (RemoteShards) and the blob carries no trust material for it", addr)
		}
	}
	if meta.InRound >= topo.RoundSize() {
		return fmt.Errorf("proxy: sealed in-round progress %d does not fit round size %d", meta.InRound, topo.RoundSize())
	}
	if err := opened.FileInto(fresh); err != nil {
		return fmt.Errorf("proxy: restore tier state: %w", err)
	}
	p.installEpochLocked(topo, fresh, meta.RRCursor)
	p.planner.Reset(topo)
	copy(p.rst.Load, meta.ShardLoad)
	p.inRound = meta.InRound
	p.rounds = meta.Rounds
	p.putEpoch = meta.Rounds
	p.hopMark = meta.HopMark
	p.received = meta.Received
	p.hopReceived = meta.HopReceived
	p.pending = meta.Pending
	p.restoredFrom = meta.SealedShards
	p.shardRecv, p.shardEmit = meta.ShardReceived, meta.ShardEmitted
	p.dlv.restore(meta.Forwarded, trust)
	return nil
}
