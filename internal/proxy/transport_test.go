package proxy

// End-to-end batteries for the typed transport layer and the
// participant SDK: Loopback-vs-HTTP equivalence, participant failover,
// remote-shard re-attestation from the seal blob, and the SyncPeers
// admin directive.

import (
	"context"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/nn"
	"mixnn/internal/route"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// testNet serves typed servers over one shared Loopback (loop=true) or
// over httptest listeners (loop=false) inside one test case, shared by
// the fuzz batteries' transport dimension.
type testNet struct {
	t  *testing.T
	lb *transport.Loopback
}

func newTestNet(t *testing.T, loop bool) *testNet {
	tn := &testNet{t: t}
	if loop {
		tn.lb = transport.NewLoopback()
	}
	return tn
}

// tr returns the transport senders should use.
func (tn *testNet) tr() transport.Transport {
	if tn.lb != nil {
		return tn.lb
	}
	return transport.NewHTTP(nil)
}

// cfgTransport returns the ShardedConfig.Transport value (nil = the
// tier's default HTTP transport).
func (tn *testNet) cfgTransport() transport.Transport {
	if tn.lb != nil {
		return tn.lb
	}
	return nil
}

// serve exposes a typed server and returns its endpoint: the given name
// over Loopback, a listener URL over HTTP.
func (tn *testNet) serve(name string, s transport.Server) string {
	if tn.lb != nil {
		tn.lb.Register(name, s)
		return name
	}
	srv := httptest.NewServer(transport.NewHandler(s))
	tn.t.Cleanup(srv.Close)
	return srv.URL
}

// sendTyped encrypts one update for the enclave and sends it through
// the given transport — the typed-counterpart of sendRaw, usable over
// Loopback as well as HTTP.
func sendTyped(t *testing.T, tr transport.Transport, encl *enclave.Enclave, ep, clientID string, ps nn.ParamSet) {
	t.Helper()
	raw, err := nn.EncodeParamSet(ps)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := enclave.Encrypt(encl.PublicKey(), raw)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := tr.SendUpdate(ctx, ep, transport.UpdateRequest{Body: ct, ClientID: clientID}); err != nil {
		t.Fatalf("typed send: %v", err)
	}
}

// sendSessionTyped is the session-crypto twin of sendTyped: the update
// travels as session ciphertext (establish on the session's first wrap,
// cheap GCM data messages after).
func sendSessionTyped(t *testing.T, tr transport.Transport, sess *enclave.Session, ep, clientID string, ps nn.ParamSet) {
	t.Helper()
	raw, err := nn.EncodeParamSet(ps)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sess.Wrap(raw)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := tr.SendUpdate(ctx, ep, transport.UpdateRequest{Body: ct, ClientID: clientID}); err != nil {
		t.Fatalf("session send: %v", err)
	}
}

// deployTier stands up an agg server + front proxy over either
// transport kind and returns the agg, the proxy and the endpoints
// participants should use.
func deployTier(t *testing.T, kind string, encl *enclave.Enclave, platform *enclave.Platform, clients, shards int, seed int64) (*AggServer, *ShardedProxy, transport.Transport, string, string) {
	t.Helper()
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), clients)
	if err != nil {
		t.Fatal(err)
	}
	var tr transport.Transport
	var aggEP, frontEP string
	var cfgTransport transport.Transport
	switch kind {
	case "loopback":
		lb := transport.NewLoopback()
		lb.Register("loop://agg", agg)
		tr, cfgTransport, aggEP, frontEP = lb, lb, "loop://agg", "loop://front"
	case "http":
		aggSrv := httptest.NewServer(agg.Handler())
		t.Cleanup(aggSrv.Close)
		tr, aggEP = transport.NewHTTP(nil), aggSrv.URL
	default:
		t.Fatalf("unknown transport kind %q", kind)
	}
	px, err := NewSharded(ShardedConfig{
		Upstream: aggEP, K: 2, RoundSize: clients, Shards: shards, Seed: seed,
		Transport: cfgTransport,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	if kind == "loopback" {
		tr.(*transport.Loopback).Register("loop://front", px)
	} else {
		pxSrv := httptest.NewServer(px.Handler())
		t.Cleanup(pxSrv.Close)
		frontEP = pxSrv.URL
	}
	return agg, px, tr, frontEP, aggEP
}

// TestTransportLoopbackEquivalence runs the identical round — same
// seeds, same client ids, same updates — through an HTTP tier and a
// Loopback tier and requires both aggregates to equal the classic
// FedAvg mean at 1e-9: the transport is a pure codec, invisible to the
// pipeline's numerics.
func TestTransportLoopbackEquivalence(t *testing.T) {
	platform, _ := fixtures(t)
	const clients, shards = 6, 2
	initial := testArch().New(1).SnapshotParams()
	updates := make([]nn.ParamSet, clients)
	for i := range updates {
		u := initial.Clone()
		u.Layers[0].Tensors[0].Apply(func(v float64) float64 { return v + float64(i+1) })
		updates[i] = u
	}
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	globals := map[string]nn.ParamSet{}
	for _, kind := range []string{"http", "loopback"} {
		encl, err := enclave.New(enclave.Config{CodeIdentity: "equiv-" + kind}, platform)
		if err != nil {
			t.Fatal(err)
		}
		agg, px, tr, frontEP, aggEP := deployTier(t, kind, encl, platform, clients, shards, 99)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		for i, u := range updates {
			part, err := client.New(client.Config{
				Proxies: []string{frontEP}, Server: aggEP, Transport: tr,
				ClientID: fmt.Sprintf("c%d", i),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := part.Attest(ctx, platform.AttestationPublicKey(), encl.Measurement()); err != nil {
				t.Fatalf("%s attest: %v", kind, err)
			}
			if err := part.SendUpdate(ctx, u); err != nil {
				t.Fatalf("%s send %d: %v", kind, i, err)
			}
		}
		flushTier(t, px)
		if agg.Round() != 1 {
			t.Fatalf("%s tier: round = %d, want 1", kind, agg.Round())
		}
		if !agg.Global().ApproxEqual(want, 1e-9) {
			t.Fatalf("%s tier aggregate diverged from classic FedAvg", kind)
		}
		globals[kind] = agg.Global()
		cancel()
	}
	if !globals["http"].ApproxEqual(globals["loopback"], 1e-9) {
		t.Fatal("HTTP and Loopback tiers disagree at 1e-9")
	}
}

// TestParticipantFailoverExactlyOnce: two front proxies feed one
// aggregation server; the first goes down mid-round, the SDK fails over
// to the second, and the server closes exactly one round whose mean is
// the classic FedAvg of all four updates — nothing lost, nothing
// double-absorbed (the batch dedup watermark sees two distinct senders,
// one batch each).
func TestParticipantFailoverExactlyOnce(t *testing.T) {
	platform, _ := fixtures(t)
	const clients = 4
	initial := testArch().New(1).SnapshotParams()

	lb := transport.NewLoopback()
	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("loop://agg", agg)

	// Both proxies run RoundSize 2: each closes (and delivers) a
	// half-round of the server's expected 4.
	proxies := make([]*ShardedProxy, 2)
	enclaves := make([]*enclave.Enclave, 2)
	for i := range proxies {
		encl, err := enclave.New(enclave.Config{CodeIdentity: fmt.Sprintf("failover-%d", i)}, platform)
		if err != nil {
			t.Fatal(err)
		}
		px, err := NewSharded(ShardedConfig{
			Upstream: "loop://agg", K: 1, RoundSize: 2, Shards: 1, Seed: int64(i + 5),
			Transport: lb,
		}, encl, platform)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(px.Close)
		lb.Register(fmt.Sprintf("loop://px-%d", i), px)
		proxies[i], enclaves[i] = px, encl
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	updates := make([]nn.ParamSet, clients)
	parts := make([]*client.Participant, clients)
	for i := range parts {
		u := initial.Clone()
		u.Layers[0].Tensors[0].Apply(func(v float64) float64 { return v + float64(i+1) })
		updates[i] = u
		var err error
		parts[i], err = client.New(client.Config{
			Proxies: []string{"loop://px-0", "loop://px-1"}, Server: "loop://agg", Transport: lb,
		})
		if err != nil {
			t.Fatal(err)
		}
		// One attestation call pins both proxies' enclave keys; with a
		// proxy down it would pin lazily at failover time instead. Both
		// proxies run the same code identity? No — each has its own
		// measurement, so attest against the one the update may land on.
		if err := parts[i].Attest(ctx, platform.AttestationPublicKey(), enclaves[0].Measurement()); err != nil {
			t.Fatal(err)
		}
	}

	// First half-round lands on the primary and reaches the server.
	for i := 0; i < 2; i++ {
		if err := parts[i].SendUpdate(ctx, updates[i]); err != nil {
			t.Fatalf("send %d via primary: %v", i, err)
		}
	}
	flushTier(t, proxies[0])

	// Primary goes down mid-round (the server's round is still open).
	lb.Unregister("loop://px-0")

	// The failover proxy has a different enclave identity, so the
	// remaining participants must be able to attest it during failover:
	// re-pin trust at the second proxy's measurement.
	for i := 2; i < clients; i++ {
		// Attest succeeds because px-1 is reachable (px-0, being down,
		// keeps its stale key — which is exactly what forces the send
		// below through the failover path).
		if err := parts[i].Attest(ctx, platform.AttestationPublicKey(), enclaves[1].Measurement()); err != nil {
			t.Fatalf("attest against the failover proxy: %v", err)
		}
		if err := parts[i].SendUpdate(ctx, updates[i]); err != nil {
			t.Fatalf("send %d after failover: %v", i, err)
		}
	}
	flushTier(t, proxies[1])

	waitServerRound(t, agg, 1)
	if agg.Round() != 1 {
		t.Fatalf("server closed %d rounds, want exactly 1", agg.Round())
	}
	st, err := parts[0].ServerStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.UpdatesInRound != 0 {
		t.Fatalf("server buffered %d stray updates after the round — duplicate absorption", st.UpdatesInRound)
	}
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("failover round aggregate != classic FedAvg mean (lost or duplicated update)")
	}
}

// trustSpecFor builds an inline-trust shard spec for a remote peer.
func trustSpecFor(t *testing.T, platform *enclave.Platform, encl *enclave.Enclave, addr, secret string, weight int) wire.TopologyShardSpec {
	t.Helper()
	der, err := x509.MarshalPKIXPublicKey(platform.AttestationPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	meas := encl.Measurement()
	return wire.TopologyShardSpec{
		Addr: addr, Weight: weight,
		AuthorityPubDER: der, MeasurementHex: hex.EncodeToString(meas[:]),
		Secret: secret,
	}
}

// TestReattestRemotesFromSealBlob is the one restart that needs every
// recovery a tier has. A front with a remote shard is sealed MID-ROUND
// and replaced by a tier handed no RemoteShards key material at all,
// while SDK participants still hold their pre-crash sessions and the
// relay peer has itself been restarted (fresh enclave key). The
// replacement restores the blob under its sealed plan, re-attests the
// peer from the sealed trust — ReattestRemotes, no admin directive, no
// shards-file reload — and every participant's next send is rejected 428
// and re-established on the same endpoint without surfacing. A
// replacement's first relay delivery is necessarily an establish frame,
// so the relay leg's 428 is provoked by the peer losing its sessions once
// more after that leg delivered: the lane's retry re-establishes. Every
// round's aggregate equals the classic mean; nothing is quarantined.
func TestReattestRemotesFromSealBlob(t *testing.T) {
	platform, _ := fixtures(t)
	const clients = 4
	initial := testArch().New(1).SnapshotParams()

	lb := transport.NewLoopback()
	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("loop://agg", agg)

	newPeer := func(seed int64) (*enclave.Enclave, *ShardedProxy) {
		t.Helper()
		encl, err := enclave.New(enclave.Config{CodeIdentity: "reattest-peer"}, platform)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := NewSharded(ShardedConfig{
			Upstream: "loop://agg", K: 1, RoundSize: 2, Shards: 1, Seed: seed, Transport: lb,
		}, encl, platform)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(peer.Close)
		lb.Register("loop://peer", peer)
		return encl, peer
	}
	peerEncl, peer := newPeer(11)

	frontEncl, err := enclave.New(enclave.Config{CodeIdentity: "reattest-front"}, platform)
	if err != nil {
		t.Fatal(err)
	}
	frontCfg := ShardedConfig{
		Upstream: "loop://agg", K: 1, RoundSize: clients, Shards: 1, Seed: 12,
		Transport: lb, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}
	front1Cfg := frontCfg
	front1Cfg.Routing = route.ModeHashQuota
	front1, err := NewSharded(front1Cfg, frontEncl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front1.Close)
	// Attach the remote shard through the directive path, which records
	// its trust material for sealing (the tier is idle, so it applies
	// immediately).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := front1.StageTopology(ctx, wire.TopologyDirective{
		Mode: "hash-quota",
		Shards: []wire.TopologyShardSpec{
			{Weight: 1},
			trustSpecFor(t, platform, peerEncl, "loop://peer", "", 1),
		},
	}); err != nil {
		t.Fatal(err)
	}
	lb.Register("loop://front", front1)

	// One SDK session per participant for the whole test: what they pin
	// and establish before the crash is what they hold after it.
	parts := make([]*client.Participant, clients)
	for i := range parts {
		if parts[i], err = client.New(client.Config{
			Proxies: []string{"loop://front"}, Server: "loop://agg", Transport: lb,
			ClientID: fmt.Sprintf("c%d", i),
		}); err != nil {
			t.Fatal(err)
		}
		if err := parts[i].Attest(ctx, platform.AttestationPublicKey(), frontEncl.Measurement()); err != nil {
			t.Fatal(err)
		}
	}
	rounds := make([][]nn.ParamSet, 3)
	for e := range rounds {
		rounds[e] = perturbed(initial, clients, float64(100*e))
	}
	send := func(epoch, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := parts[i].SendUpdate(ctx, rounds[epoch][i]); err != nil {
				t.Fatalf("round %d participant %d: %v", epoch, i, err)
			}
		}
	}
	closed := func(epoch int, tiers ...*ShardedProxy) {
		t.Helper()
		for _, px := range tiers {
			flushTier(t, px)
		}
		waitServerRound(t, agg, epoch+1)
		classic, err := nn.Average(rounds[epoch])
		if err != nil {
			t.Fatal(err)
		}
		if !agg.Global().ApproxEqual(classic, 1e-9) {
			t.Fatalf("round %d's aggregate diverged from classic FedAvg", epoch)
		}
		for _, px := range tiers {
			if st := px.Status(); st.OutboxQuarantined != 0 {
				t.Fatalf("round %d: a tier quarantined %d entries", epoch, st.OutboxQuarantined)
			}
		}
	}
	send(0, 0, clients)
	closed(0, front1, peer)

	// Crash the front half-way into round 1 and lose what a restart
	// loses: the enclave's volatile session cache (the Enclave object's key
	// pair stands in for the sealed identity that survives).
	send(1, 0, clients/2)
	blob, err := front1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	lb.Unregister("loop://front")
	front1.Close()
	frontEncl.ResetSessions()
	// The peer restarts too — idle, between its rounds — and comes back
	// with a fresh enclave key: the key front1 pinned is worthless now.
	peer.Close()
	peerEncl, peer = newPeer(15)

	// The replacement gets NO RemoteShards — everything it knows about
	// loop://peer must come from the blob.
	front2, err := NewSharded(frontCfg, frontEncl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front2.Close)
	if err := front2.RestoreState(blob); err != nil {
		t.Fatalf("restore with sealed trust material: %v", err)
	}
	if got := front2.Topology().Remotes(); len(got) != 1 || got[0] != "loop://peer" {
		t.Fatalf("restored topology remotes = %v", got)
	}
	if st := front2.Status(); st.InRound != clients/2 {
		t.Fatalf("restored in_round = %d, want %d", st.InRound, clients/2)
	}
	// A tier sealed BEFORE re-attestation (the peer could still be down)
	// must carry the restored trust forward: its own blob has to remain
	// restorable, or one restart during a peer outage would strand the
	// state file.
	blob2, err := front2.SealState()
	if err != nil {
		t.Fatal(err)
	}
	front2b, err := NewSharded(frontCfg, frontEncl, platform)
	if err != nil {
		t.Fatal(err)
	}
	if err := front2b.RestoreState(blob2); err != nil {
		t.Fatalf("re-seal before re-attestation lost the remote trust: %v", err)
	}
	front2b.Close()
	if err := front2.ReattestRemotes(ctx); err != nil {
		t.Fatalf("re-attest from seal blob: %v", err)
	}
	lb.Register("loop://front", front2)

	// The rest of round 1: pre-crash SDK sessions meet an enclave that no
	// longer holds them, and the restored relay leg delivers under the
	// peer's new key.
	send(1, clients/2, clients)
	closed(1, front2, peer)
	if st := frontEncl.Stats(); st.SessionMisses < clients/2 {
		t.Fatalf("front saw %d session misses, want one per pre-crash SDK session used (%d)", st.SessionMisses, clients/2)
	}
	if st := peerEncl.Stats(); st.SessionsEstablished != 1 || st.SessionMisses != 0 {
		t.Fatalf("restarted peer established/misses = %d/%d, want the re-attested leg's one establish", st.SessionsEstablished, st.SessionMisses)
	}

	// The peer loses its sessions once more (a restart that kept its
	// sealed identity): the relay leg's next delivery is a data frame for
	// a session the peer no longer holds.
	peerEncl.ResetSessions()
	send(2, 0, clients)
	closed(2, front2, peer)
	if st := peerEncl.Stats(); st.SessionMisses < 1 || st.SessionsEstablished < 2 {
		t.Fatalf("peer misses/established = %d/%d, want the relay lane's retry to re-establish (>=1/>=2)", st.SessionMisses, st.SessionsEstablished)
	}
}

// TestSyncPeersDirective: one admin directive reshapes the front tier's
// quota AND the remote peer's own round size in the same epoch, through
// the admin sub-client. Without the sync, the operator would have to
// reconfigure the peer by hand before its rounds could ever close under
// the new quota.
func TestSyncPeersDirective(t *testing.T) {
	platform, _ := fixtures(t)
	const clients = 6
	initial := testArch().New(1).SnapshotParams()

	lb := transport.NewLoopback()
	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("loop://agg", agg)

	peerEncl, err := enclave.New(enclave.Config{CodeIdentity: "sync-peer"}, platform)
	if err != nil {
		t.Fatal(err)
	}
	// The peer starts with a WRONG round size (5): under the staged
	// topology its quota will be 3, and without SyncPeers its rounds
	// would never close.
	peer, err := NewSharded(ShardedConfig{
		Upstream: "loop://agg", K: 1, RoundSize: 5, Shards: 1, Seed: 21,
		HopSecret: "peer-secret", Transport: lb,
	}, peerEncl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(peer.Close)
	lb.Register("loop://peer", peer)

	frontEncl, err := enclave.New(enclave.Config{CodeIdentity: "sync-front"}, platform)
	if err != nil {
		t.Fatal(err)
	}
	front, err := NewSharded(ShardedConfig{
		Upstream: "loop://agg", K: 1, RoundSize: clients, Shards: 1, Seed: 22,
		Routing: route.ModeHashQuota, HopSecret: "front-secret", Transport: lb,
	}, frontEncl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	lb.Register("loop://front", front)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A directive whose peer sync CANNOT succeed (wrong inter-proxy
	// secret) must be all-or-nothing: probe-first means the peer is
	// never resized, and the staged plan is discarded instead of
	// auto-promoting a half-applied reshape at the next round close.
	admin := client.NewAdmin(lb, "loop://front", "front-secret")
	if _, err := admin.Stage(ctx, wire.TopologyDirective{
		Mode: "hash-quota",
		Shards: []wire.TopologyShardSpec{
			{Weight: 1},
			trustSpecFor(t, platform, peerEncl, "loop://peer", "WRONG-secret", 1),
		},
		SyncPeers: true,
	}); err == nil {
		t.Fatal("sync_peers with an unauthenticated peer must fail")
	}
	if staged := front.planner.Staged(); staged != nil {
		t.Fatal("failed sync_peers directive left a plan staged (would auto-promote half-applied)")
	}
	if got := peer.Topology().RoundSize(); got != 5 {
		t.Fatalf("failed sync_peers directive resized the peer to %d", got)
	}

	// ONE directive through the admin sub-client: attach the remote
	// shard at weight 1 (quota 3 of 6) and drive the peer's round size
	// to that quota in the same step.
	st, err := admin.Stage(ctx, wire.TopologyDirective{
		Mode: "hash-quota",
		Shards: []wire.TopologyShardSpec{
			{Weight: 1},
			trustSpecFor(t, platform, peerEncl, "loop://peer", "peer-secret", 1),
		},
		SyncPeers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("front topology after directive: %+v", st)
	}
	if got := peer.Topology().RoundSize(); got != 3 {
		t.Fatalf("peer round size = %d, want 3 (the shard's quota) in the same epoch", got)
	}

	// The reshaped tier closes a full round end to end.
	updates := make([]nn.ParamSet, clients)
	for i := range updates {
		u := initial.Clone()
		u.Layers[0].Tensors[0].Apply(func(v float64) float64 { return v + float64(i+1) })
		updates[i] = u
		part, err := client.New(client.Config{
			Proxies: []string{"loop://front"}, Server: "loop://agg", Transport: lb,
			ClientID: fmt.Sprintf("c%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := part.Attest(ctx, platform.AttestationPublicKey(), frontEncl.Measurement()); err != nil {
			t.Fatal(err)
		}
		if err := part.SendUpdate(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	flushTier(t, front, peer)
	waitServerRound(t, agg, 1)
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("synced-quota round diverged from classic FedAvg")
	}

	// A sync_peers directive against a MID-ROUND tier must be rejected:
	// the peer would apply its new round size immediately while this
	// tier still owes it old-quota material.
	sendTyped(t, lb, frontEncl, "loop://front", "c0", updates[0])
	if _, err := admin.Stage(ctx, wire.TopologyDirective{
		Shards: []wire.TopologyShardSpec{
			{Weight: 2},
			trustSpecFor(t, platform, peerEncl, "loop://peer", "peer-secret", 1),
		},
		SyncPeers: true,
	}); err == nil {
		t.Fatal("mid-round sync_peers directive must be rejected (quiescence precondition)")
	}
}
