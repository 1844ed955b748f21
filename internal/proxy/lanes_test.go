package proxy

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/nn"
	"mixnn/internal/route"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// gatedRemoteShard is remoteShardFixture with a gatedServer in front of
// the peer's handler, so a test can take ONE peer of a multi-shard
// topology offline while the rest of the tier keeps running. Attestation
// happens before the caller closes the gate (the gate only blocks POSTs,
// and the handshake is a GET, but the ordering keeps the fixture honest).
func gatedRemoteShard(t *testing.T, platform *enclave.Platform, upstream string, roundSize int, seed int64) (*ShardedProxy, *gatedServer, string, RemoteShard) {
	t.Helper()
	encl, err := enclave.New(enclave.Config{CodeIdentity: fmt.Sprintf("shard-enclave-%d", seed)}, platform)
	if err != nil {
		t.Fatal(err)
	}
	px, err := NewSharded(ShardedConfig{
		Upstream: upstream, K: 1, RoundSize: roundSize, Shards: 1, Seed: seed,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	gate := &gatedServer{next: px.Handler()}
	srv := httptest.NewServer(gate)
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	key, err := AttestHopOver(ctx, transport.NewHTTP(nil), srv.URL, platform.AttestationPublicKey(), encl.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	return px, gate, srv.URL, RemoteShard{Key: key}
}

func laneStatus(st wire.ShardedProxyStatus, dest string) (wire.OutboxLaneStatus, bool) {
	for _, ls := range st.OutboxLanes {
		if ls.Dest == dest {
			return ls, true
		}
	}
	return wire.OutboxLaneStatus{}, false
}

// TestDeliveryLaneIsolationDeadPeer is the acceptance e2e of the
// per-destination lane split: one remote peer of a three-shard tier is
// down for N rounds while the aggregation-server lane and the healthy
// peer's lane keep delivering within normal backoff time. The old single
// ordered queue wedged ALL of them behind the dead peer's first entry.
// After the peer recovers, the parked backlog drains and the aggregate
// still equals the classic mean at 1e-9 — degradation, not loss.
func TestDeliveryLaneIsolationDeadPeer(t *testing.T) {
	const c, epochs = 6, 3
	platform, encl := fixtures(t)
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, c)
	if err != nil {
		t.Fatal(err)
	}
	obs := &roundObserver{}
	agg.SetObserver(obs)
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	// Three shards, quota 2 each: local, a healthy peer, a doomed peer.
	pxHealthy, addrHealthy, rsHealthy := remoteShardFixture(t, platform, aggSrv.URL, 2, 201)
	_, gate, addrDead, rsDead := gatedRemoteShard(t, platform, aggSrv.URL, 2, 202)
	gate.SetDown(true)

	front, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: c, Seed: 203,
		Routing:    route.ModeHashQuota,
		ShardSpecs: []route.ShardSpec{{}, {Addr: addrHealthy}, {Addr: addrDead}},
		RemoteShards: map[string]RemoteShard{
			addrHealthy: rsHealthy,
			addrDead:    rsDead,
		},
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
		DeliveryWorkers: 3,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	frontSrv := httptest.NewServer(front.Handler())
	t.Cleanup(frontSrv.Close)

	// N full rounds ingest while the peer is dead: every epoch commits one
	// entry per destination, and the dead peer's entries sit BETWEEN the
	// healthy ones in global sequence order.
	var sent []nn.ParamSet
	for e := 0; e < epochs; e++ {
		updates := perturbed(initial, c, float64(300+40*e))
		sent = append(sent, updates...)
		for i, u := range updates {
			resp := sendRaw(t, encl, frontSrv.URL, fmt.Sprintf("lane-%d-%d", e, i), u)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("epoch %d send %d: %s", e, i, resp.Status)
			}
		}
	}

	// The healthy lanes must complete while the dead peer is STILL down:
	// agg + healthy-peer deliveries for all N epochs, the dead lane
	// holding its full backlog. 10s against millisecond backoffs is
	// "normal backoff time" with an enormous margin.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := front.Status()
		deadLane, _ := laneStatus(st, addrDead)
		aggLane, _ := laneStatus(st, "")
		healthyLane, _ := laneStatus(st, addrHealthy)
		if aggLane.Pending == 0 && aggLane.Delivered == epochs &&
			healthyLane.Pending == 0 && healthyLane.Delivered == epochs &&
			pxHealthy.Status().HopReceived == 2*epochs {
			if deadLane.Pending != epochs {
				t.Fatalf("dead lane pending = %d, want %d (one entry per epoch)", deadLane.Pending, epochs)
			}
			if deadLane.Failures == 0 || deadLane.BackoffMs <= 0 {
				t.Fatalf("dead lane stat %+v, want recorded failures and a backoff", deadLane)
			}
			if aggLane.BackoffMs != 0 || healthyLane.BackoffMs != 0 {
				t.Fatalf("healthy lanes report backoff (agg %v, peer %v), want 0", aggLane.BackoffMs, healthyLane.BackoffMs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthy lanes did not deliver during the peer outage: status %+v", st.OutboxLanes)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Peer recovers: the parked lane drains and every update lands
	// exactly once. Rounds at the server recompose across lanes, so the
	// invariant is conservation + the overall layer-wise mean (mixing
	// preserves the multiset of layers, hence the mean).
	gate.SetDown(false)
	flushTier(t, front, pxHealthy)
	waitServerRound(t, agg, epochs)

	obs.mu.Lock()
	var delivered []nn.ParamSet
	for r, rec := range obs.recs {
		if len(rec.Updates) != c {
			obs.mu.Unlock()
			t.Fatalf("server round %d carried %d updates, want %d (lost or duplicated)", r, len(rec.Updates), c)
		}
		delivered = append(delivered, rec.Updates...)
	}
	obs.mu.Unlock()
	if len(delivered) != epochs*c {
		t.Fatalf("server saw %d updates, want %d", len(delivered), epochs*c)
	}
	wantMean, err := nn.Average(sent)
	if err != nil {
		t.Fatal(err)
	}
	gotMean, err := nn.Average(delivered)
	if err != nil {
		t.Fatal(err)
	}
	if !gotMean.ApproxEqual(wantMean, 1e-9) {
		t.Fatal("layer-wise mean diverged across the dead-peer outage and recovery")
	}
}

// TestDeliveryLaneCrashRestartProgress proves a relay lane is
// exactly-once across a lost acknowledgement AND a crash: the peer
// applies the lane's batch but the ack is lost, the agg lane completes,
// the proxy crashes; the restarted proxy redelivers the entry left on
// disk under the id the first attempt carried, the peer dedups it
// instead of re-mixing, and the round closes with the classic mean.
func TestDeliveryLaneCrashRestartProgress(t *testing.T) {
	const c = 4
	platform, encl := fixtures(t)
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, c)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	// The peer applies the first POST but its answer never reaches the
	// sender; every later POST fails outright until the gate reopens.
	peerEncl, err := enclave.New(enclave.Config{CodeIdentity: "shard-enclave-210"}, platform)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: 2, Shards: 1, Seed: 210,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, peerEncl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(peer.Close)
	var (
		mu       sync.Mutex
		applied  int
		gateOpen bool
	)
	peerGate := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			open, first := gateOpen, applied == 0
			if !open && first {
				applied++
			}
			mu.Unlock()
			if !open {
				if first {
					peer.Handler().ServeHTTP(httptest.NewRecorder(), r)
				}
				http.Error(w, "peer outage", http.StatusServiceUnavailable)
				return
			}
		}
		peer.Handler().ServeHTTP(w, r)
	})
	peerSrv := httptest.NewServer(peerGate)
	t.Cleanup(peerSrv.Close)
	actx, acancel := context.WithTimeout(context.Background(), 30*time.Second)
	key, err := AttestHopOver(actx, transport.NewHTTP(nil), peerSrv.URL, platform.AttestationPublicKey(), peerEncl.Measurement())
	acancel()
	if err != nil {
		t.Fatal(err)
	}

	outboxDir := filepath.Join(t.TempDir(), "outbox")
	cfg := ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: c, Seed: 211,
		Routing:      route.ModeHashQuota,
		ShardSpecs:   []route.ShardSpec{{}, {Addr: peerSrv.URL}},
		RemoteShards: map[string]RemoteShard{peerSrv.URL: {Key: key}},
		OutboxDir:    outboxDir,
		RetryBase:    time.Millisecond, RetryMax: 5 * time.Millisecond,
	}
	px1, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	px1Srv := httptest.NewServer(px1.Handler())
	updates := perturbed(initial, c, 500)
	for i, u := range updates {
		resp := sendRaw(t, encl, px1Srv.URL, fmt.Sprintf("cr-%d", i), u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}

	// Wait until the independent lanes reach the crash point: the agg
	// lane fully delivered, the peer lane's batch applied by the peer but
	// still pending at the sender.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := px1.Status()
		aggLane, _ := laneStatus(st, "")
		peerLane, _ := laneStatus(st, peerSrv.URL)
		hr := peer.Status().HopReceived
		if aggLane.Pending == 0 && aggLane.Delivered == 1 && peerLane.Pending == 1 && hr == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lanes did not reach the crash point: %+v, peer ingested %d", st.OutboxLanes, hr)
		}
		time.Sleep(time.Millisecond)
	}

	// Crash. On disk: only the peer entry remains — the agg lane's entry
	// was acked and removed.
	px1Srv.Close()
	px1.Close()
	ents, err := filepath.Glob(filepath.Join(outboxDir, "*.ent"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("crash left entries %v, want exactly the peer lane's", ents)
	}

	// Restart over the same outbox; the peer recovers. The redelivered
	// batch carries the first attempt's id, so the peer acknowledges it
	// as a duplicate instead of mixing its two updates a second time.
	mu.Lock()
	gateOpen = true
	mu.Unlock()
	px2, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px2.Close)
	flushTier(t, px2, peer)
	waitServerRound(t, agg, 1)
	if hr := peer.Status().HopReceived; hr != 2 {
		t.Fatalf("peer ingested %d hop updates, want 2 (the redelivery must dedup)", hr)
	}
	if st := px2.Status(); st.OutboxPending != 0 || st.OutboxQuarantined != 0 {
		t.Fatalf("restarted proxy pending/quarantined = %d/%d, want 0/0", st.OutboxPending, st.OutboxQuarantined)
	}
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("aggregate diverged across the per-lane crash-resume")
	}
}

// TestDeliveryNeverTakesRoundLock pins the delivery lock domain: with the
// round lock (px.mu) held by the test, both queued lanes — the downstream
// entry and a relay entry — must still resolve their targets, deliver and
// account for the acknowledgement. A delivery worker that touched px.mu
// anywhere on that path would sit behind the test until the deadline.
func TestDeliveryNeverTakesRoundLock(t *testing.T) {
	const c = 4
	platform, encl := fixtures(t)
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, c/2)
	if err != nil {
		t.Fatal(err)
	}
	lb := transport.NewLoopback()
	t.Cleanup(lb.Close)
	const aggEP, frontEP = "loop://agg", "loop://front"
	lb.Register(aggEP, agg)
	peer, addr, rs := remoteShardFixtureOver(t, platform, lb, aggEP, c/2, 211)

	// One local and one remote shard, quota 2 each.
	px, err := NewSharded(ShardedConfig{
		Upstream: aggEP, K: 1, RoundSize: c, Seed: 212,
		Routing:      route.ModeHashQuota,
		ShardSpecs:   []route.ShardSpec{{}, {Addr: addr}},
		RemoteShards: map[string]RemoteShard{addr: rs},
		RetryBase:    time.Millisecond, RetryMax: 5 * time.Millisecond,
		Transport: lb,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	lb.Register(frontEP, px)

	// Close a round while both destinations are down: one entry per lane
	// sits queued, retrying.
	lb.Unregister(aggEP)
	lb.Unregister(addr)
	for i, u := range perturbed(initial, c, 500) {
		sendTyped(t, lb, encl, frontEP, fmt.Sprintf("rl-%d", i), u)
	}
	if st := px.Status(); st.OutboxPending != 2 {
		t.Fatalf("outbox holds %d entries with both destinations down, want 2", st.OutboxPending)
	}

	px.mu.Lock()
	lb.Register(aggEP, agg)
	lb.Register(addr, peer)
	px.dlv.disp.Wake()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = px.dlv.disp.Flush(ctx)
	px.mu.Unlock() // Status below takes the round lock; the acks were counted without it
	if err != nil {
		t.Fatalf("delivery did not drain while the round lock was held: %v", err)
	}
	if agg.Round() < 1 {
		t.Fatal("the downstream lane drained but the server has no round")
	}
	if hr := peer.Status().HopReceived; hr != c/2 {
		t.Fatalf("peer ingested %d relayed updates, want %d", hr, c/2)
	}
	if st := px.Status(); st.Forwarded != c || st.BatchesSent != 2 {
		t.Fatalf("delivery acknowledged %d updates in %d batches, want %d in 2", st.Forwarded, st.BatchesSent, c)
	}
}
