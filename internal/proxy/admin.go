// Topology administration: the HTTP surface (and Go API) through which
// an operator reshapes the mixing tier's routing plane at run time —
// growing or shrinking the shard set, switching the routing policy,
// reweighting quotas, and attaching remote shards (peer proxies with
// their own enclaves). Directives are STAGED: they take effect at the
// next round close, the same atomic swap that rotates the per-epoch
// mixers, so membership changes never tear an open round. A directive
// staged while the tier is idle (no open round) applies immediately.
package proxy

import (
	"context"
	"crypto/subtle"
	"fmt"
	"log"
	"net/http"

	"mixnn/internal/enclave"
	"mixnn/internal/route"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// Topology returns the routing plan of the epoch currently being
// ingested.
func (p *ShardedProxy) Topology() *route.Topology {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.topo
}

// StageTopology validates a directive, attests any new remote shards
// (resolving their trust material), and stages the resulting topology
// for the next epoch. When the tier is idle (no update of the current
// round ingested, no round close in flight) the staged topology applies
// immediately; otherwise it applies at the next round close.
//
// With d.SyncPeers set, each remote shard's OWN round size is driven to
// its new quota in the same step: the proxy posts a RoundSize directive
// to every remote peer's admin plane before promoting the staged plan,
// so one directive reshapes both ends of every relay leg in the same
// epoch. Peers must run with an inter-proxy secret (their admin POST is
// gated on it); the secret used is the one registered for the shard.
// SyncPeers requires a QUIESCENT tier (no open round, no round close in
// flight, empty delivery outbox): a peer applies its round-size change
// as soon as it is idle, so reshaping it while this tier still has an
// old-quota round open (or queued) would deliver q_old updates into a
// round sized q_new — stalling the peer's round or splitting an epoch
// across two of its rounds. The directive fails cleanly instead; retry
// between rounds.
func (p *ShardedProxy) StageTopology(ctx context.Context, d wire.TopologyDirective) (*route.Topology, error) {
	mode, err := route.ParseMode(d.Mode)
	if err != nil {
		return nil, err
	}
	if d.SyncPeers {
		if err := p.requireQuiesced(); err != nil {
			return nil, fmt.Errorf("proxy: sync_peers: %w", err)
		}
	}
	if d.Mode == "" {
		mode = 0 // keep the current mode
	}
	rd := route.Directive{Mode: mode, RoundSize: d.RoundSize}
	if d.Shards != nil {
		rd.Shards = make([]route.ShardSpec, len(d.Shards))
		for i, s := range d.Shards {
			rd.Shards[i] = route.ShardSpec{Addr: s.Addr, Weight: s.Weight}
			if s.Addr == "" {
				continue
			}
			if err := p.dlv.ensureRemote(ctx, s); err != nil {
				return nil, fmt.Errorf("proxy: remote shard %s: %w", s.Addr, err)
			}
		}
	}
	next, err := p.planner.Stage(rd)
	if err != nil {
		return nil, err
	}
	if d.SyncPeers {
		if err := p.syncPeerRoundSizes(ctx, next); err != nil {
			// The directive is all-or-nothing: a plan whose peers were
			// not (all) resized must not auto-promote at the next round
			// close — that would relay new-quota shares into old-size
			// peer rounds. syncPeerRoundSizes already rolled back any
			// peer it had resized; discard the staged plan too.
			p.planner.Unstage()
			return nil, err
		}
	}
	p.applyStagedIfIdle()
	return next, nil
}

// requireQuiesced fails unless the tier has no open round, no round
// close in flight, no material retained from a failed outbox commit, and
// an empty delivery outbox — the precondition for
// reshaping both ends of a relay leg atomically. Advisory: an update
// racing in between this check and the staged plan's promotion narrows
// but cannot fully close the window; the systematic mid-round skew is
// what it prevents.
func (p *ShardedProxy) requireQuiesced() error {
	p.mu.Lock()
	inRound, closing, retained := p.inRound, p.closing, p.retained
	p.mu.Unlock()
	if inRound != 0 || closing != 0 {
		return fmt.Errorf("tier is mid-round (%d updates in, %d closes in flight); retry between rounds", inRound, closing)
	}
	if retained != 0 {
		return fmt.Errorf("%d updates retained from a failed outbox commit ride the next round close; retry once that round has committed and delivered", retained)
	}
	if n := p.dlv.box.Len(); n != 0 {
		return fmt.Errorf("delivery outbox still holds %d entries routed under the current quotas; retry after it drains", n)
	}
	return nil
}

// syncPeerRoundSizes drives every remote shard's round size to its
// quota under the staged topology, via the peer's typed admin plane.
// It is as close to atomic as a cross-process config change gets
// without two-phase commit: every peer's admin plane is PROBED (an
// authenticated read, recording its current round size) before any
// peer is mutated — so the common failures, an unreachable or
// misauthenticated peer, abort with nothing changed — and if a resize
// still fails mid-way, the peers already resized are rolled back to
// the round size the probe recorded.
func (p *ShardedProxy) syncPeerRoundSizes(ctx context.Context, next *route.Topology) error {
	type peerSync struct {
		addr   string
		secret string
		quota  int
		oldRS  int
	}
	var peers []peerSync
	for s := 0; s < next.P(); s++ {
		if !next.IsRemote(s) {
			continue
		}
		addr := next.Spec(s).Addr
		rs, _ := p.dlv.remote(addr)
		st, err := p.dlv.tr.Topology(ctx, addr, transport.TopologyRequest{Secret: rs.Secret})
		if err != nil {
			return fmt.Errorf("proxy: probe peer %s admin plane before resizing any peer: %w", addr, err)
		}
		peers = append(peers, peerSync{addr: addr, secret: rs.Secret, quota: next.Quota(s), oldRS: st.RoundSize})
	}
	for i, ps := range peers {
		_, err := p.dlv.tr.Topology(ctx, ps.addr, transport.TopologyRequest{
			Directive: &wire.TopologyDirective{RoundSize: ps.quota},
			Secret:    ps.secret,
		})
		if err == nil {
			continue
		}
		// Roll the already-resized peers back to their probed round
		// sizes; a rollback that itself fails needs the operator (the
		// caller also unstages, so nothing promotes meanwhile).
		for _, done := range peers[:i] {
			if _, rerr := p.dlv.tr.Topology(ctx, done.addr, transport.TopologyRequest{
				Directive: &wire.TopologyDirective{RoundSize: done.oldRS},
				Secret:    done.secret,
			}); rerr != nil {
				log.Printf("proxy: rollback of peer %s round size to %d failed (operator must reconcile): %v", done.addr, done.oldRS, rerr)
			}
		}
		return fmt.Errorf("proxy: sync peer %s round size to quota %d: %w", ps.addr, ps.quota, err)
	}
	return nil
}

// applyStagedIfIdle promotes a staged topology right away when no round
// is open: the current mixers are empty, so the swap loses nothing and
// the operator sees the change without waiting for traffic.
func (p *ShardedProxy) applyStagedIfIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inRound != 0 || p.closing != 0 || p.planner.Staged() == nil {
		return
	}
	// inRound == 0 does not guarantee empty shards: packageRound re-files
	// failed-commit remote material into the live shards without touching
	// the round counter. Swapping those shards out would drop mixed
	// updates; leave the plan staged for the next round close instead.
	for _, sh := range p.shards {
		if sh.Buffered() != 0 {
			return
		}
	}
	nextTopo := p.planner.Advance()
	fresh, err := newShardSet(p.cfg, nextTopo, p.rounds, p.slabPool)
	if err != nil {
		// Unreachable for a validated topology; the staged plan was
		// already consumed, so fall back to keeping the current shards.
		return
	}
	p.installEpochLocked(nextTopo, fresh, p.rst.RR)
}

// ResolveRemoteShardOver resolves a remote shard spec's trust material
// and runs the hop-attestation handshake against it over tr, returning
// the key material a ShardedConfig (or RegisterRemote) needs. mixnn-proxy
// uses it to bring up a -shards-file topology before serving.
func ResolveRemoteShardOver(ctx context.Context, s wire.TopologyShardSpec, tr transport.Transport) (RemoteShard, error) {
	if s.Addr == "" {
		return RemoteShard{}, fmt.Errorf("proxy: remote shard spec without an address")
	}
	rs, err := resolveRemoteShard(ctx, s, tr)
	if err != nil {
		return RemoteShard{}, fmt.Errorf("proxy: remote shard %s: %w", s.Addr, err)
	}
	return rs, nil
}

// resolveRemoteShard resolves a shard spec's trust material — inline
// material wins; a trust file (the bundle mixnn-proxy writes at startup)
// is the file-based alternative used by -shards-file — and attests,
// recording the bundle inside the RemoteShard so the tier can seal it (a
// restarted replacement re-attests the peer from the blob alone).
func resolveRemoteShard(ctx context.Context, s wire.TopologyShardSpec, tr transport.Transport) (RemoteShard, error) {
	bundle := enclave.TrustBundle{AuthorityPubDER: s.AuthorityPubDER, MeasurementHex: s.MeasurementHex}
	if bundle.AuthorityPubDER == nil && s.TrustFile != "" {
		var err error
		if bundle, err = enclave.ReadTrustBundle(s.TrustFile); err != nil {
			return RemoteShard{}, err
		}
	}
	if bundle.AuthorityPubDER == nil {
		return RemoteShard{}, fmt.Errorf("no trust material (authority_pub_der+measurement or trust_file) for a new remote shard")
	}
	return attestRemote(ctx, tr, s.Addr, RemoteTrust{TrustBundle: bundle, Secret: s.Secret})
}

// attestRemote runs the hop attestation handshake against addr under rt
// and returns the pinned key with the trust it was pinned under.
func attestRemote(ctx context.Context, tr transport.Transport, addr string, rt RemoteTrust) (RemoteShard, error) {
	authority, measurement, err := rt.Parse()
	if err != nil {
		return RemoteShard{}, err
	}
	key, err := AttestHopOver(ctx, tr, addr, authority, measurement)
	if err != nil {
		return RemoteShard{}, fmt.Errorf("attest: %w", err)
	}
	return RemoteShard{Key: key, Secret: rt.Secret, Trust: &rt}, nil
}

// TopologyStatus snapshots the routing plane for the admin endpoint.
func (p *ShardedProxy) TopologyStatus() wire.TopologyStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := wire.TopologyStatus{
		Version:   p.topo.Version(),
		Mode:      p.topo.Mode().String(),
		RoundSize: p.topo.RoundSize(),
		Epoch:     p.rounds,
		Shards:    topoShards(p.topo, p.rst.Load),
	}
	if staged := p.planner.Staged(); staged != nil {
		st.Staged = &wire.TopologyStaged{
			Version:   staged.Version(),
			Mode:      staged.Mode().String(),
			RoundSize: staged.RoundSize(),
			Shards:    topoShards(staged, nil),
		}
	}
	return st
}

func topoShards(t *route.Topology, load []int) []wire.TopologyShard {
	out := make([]wire.TopologyShard, t.P())
	for s := range out {
		spec := t.Spec(s)
		out[s] = wire.TopologyShard{Shard: s, Addr: spec.Addr, Weight: spec.Weight, Quota: t.Quota(s)}
		if load != nil {
			out[s].Load = load[s]
		}
	}
	return out
}

// HandleTopology implements transport.Server: the admin plane. A nil
// directive reads the routing plane; a non-nil one stages it for the
// next round close. Both sides are gated on the inter-proxy secret —
// and staging over the network requires the proxy to HAVE one:
// reshaping the tier is privacy-critical either way (a forged directive
// could shrink the anonymity set to one shard, or attach an
// attacker-attested "remote shard" that receives raw pre-mix updates).
// Operators without a secret still have -shards-file and the Go API.
func (p *ShardedProxy) HandleTopology(ctx context.Context, req transport.TopologyRequest) (wire.TopologyStatus, error) {
	if req.Directive != nil && p.cfg.HopSecret == "" {
		return wire.TopologyStatus{}, transport.Errorf(http.StatusForbidden,
			"topology admin POST requires the proxy to be started with an inter-proxy secret (-hop-secret)")
	}
	if p.cfg.HopSecret != "" &&
		subtle.ConstantTimeCompare([]byte(req.Secret), []byte(p.cfg.HopSecret)) != 1 {
		return wire.TopologyStatus{}, transport.Errorf(http.StatusUnauthorized, "topology admin requires the inter-proxy secret")
	}
	if req.Directive != nil {
		if _, err := p.StageTopology(ctx, *req.Directive); err != nil {
			return wire.TopologyStatus{}, transport.Errorf(http.StatusUnprocessableEntity, "%s", err.Error())
		}
	}
	return p.TopologyStatus(), nil
}
