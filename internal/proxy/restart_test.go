package proxy

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/nn"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// TestProxyRestartMidRound is the failure-injection test for the sealed
// mixer state: a proxy dies after buffering half a round; a replacement
// proxy (same enclave) restores the sealed state and finishes the round.
// The server must still receive every participant's material exactly once
// (aggregation equivalence across the crash).
func TestProxyRestartMidRound(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 6

	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), clients)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	cfg := ShardedConfig{Upstream: aggSrv.URL, K: 3, RoundSize: clients, Seed: 9}
	px1, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px1.Close)
	px1Srv := httptest.NewServer(px1.Handler())

	ctx := context.Background()
	arch := testArch()
	updates := make([]nn.ParamSet, clients)
	for i := range updates {
		updates[i] = arch.New(int64(100 + i)).SnapshotParams()
	}

	send := func(url string, u nn.ParamSet) error {
		p := newParticipant(t, url, aggSrv.URL)
		if err := p.Attest(ctx, platform.AttestationPublicKey(), encl.Measurement()); err != nil {
			return err
		}
		return p.SendUpdate(ctx, u)
	}

	// First half of the round through proxy 1.
	for i := 0; i < 3; i++ {
		if err := send(px1Srv.URL, updates[i]); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	// Crash: seal state, kill the proxy.
	blob, err := px1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	px1Srv.Close()

	// Replacement proxy restores the sealed buffer.
	px2, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px2.Close)
	if err := px2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if got := px2.Status().Shards[0].Buffered; got != 3 {
		t.Fatalf("restored buffer = %d, want 3", got)
	}
	px2Srv := httptest.NewServer(px2.Handler())
	t.Cleanup(px2Srv.Close)

	// Second half through the replacement.
	for i := 3; i < clients; i++ {
		if err := send(px2Srv.URL, updates[i]); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	flushTier(t, px2)
	if agg.Round() != 1 {
		t.Fatalf("server round = %d, want 1 (round incomplete after restart)", agg.Round())
	}
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("aggregate wrong after proxy restart (material lost or duplicated)")
	}
}

func TestRestoreStateRejectsForeignBlob(t *testing.T) {
	platform, encl := fixtures(t)
	srv := httptest.NewServer(nil)
	t.Cleanup(srv.Close)
	px, err := NewSharded(ShardedConfig{Upstream: srv.URL, K: 2, RoundSize: 4, Seed: 1}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	if err := px.RestoreState([]byte("garbage")); err == nil {
		t.Fatal("garbage blob accepted")
	}

	// A blob sealed by a DIFFERENT enclave identity must not restore:
	// sealing keys are measurement-bound, so a compromised host cannot
	// graft one proxy's buffered round onto another.
	other, err := enclave.New(enclave.Config{CodeIdentity: "other-proxy"}, platform)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := NewSharded(ShardedConfig{Upstream: srv.URL, K: 2, RoundSize: 4, Shards: 2, Seed: 2}, other, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(foreign.Close)
	blob, err := foreign.SealState()
	if err != nil {
		t.Fatal(err)
	}
	if err := px.RestoreState(blob); err == nil {
		t.Fatal("blob sealed by a different enclave identity accepted")
	}
}

// TestShardedCrashRestartReshardE2E is the crash-restart battery's
// centrepiece over the real wire protocol: a cascade tier (participants →
// sharded front proxy → hop proxy → aggregation server) loses its 2-shard
// front proxy after half the round. The replacement is configured for
// THREE shards: it restores under the sealed plan and stages its own, so
// the open round finishes on the two shards it opened on — the server-side
// aggregate equals the classic-FL mean, nothing lost, nothing
// double-counted — and the 3-shard plan is live one round close later,
// for a second round that aggregates exactly too.
func TestShardedCrashRestartReshardE2E(t *testing.T) {
	platform, frontEncl := fixtures(t)
	hopEncl, err := enclave.New(enclave.Config{CodeIdentity: "mixnn-proxy-restart-hop"}, platform)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 6
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	obs := &roundObserver{}
	agg.SetObserver(obs)
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	hopPx, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 3, RoundSize: clients, Seed: 21,
		HopSecret: "restart-secret",
	}, hopEncl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hopPx.Close)
	hopSrv := httptest.NewServer(hopPx.Handler())
	t.Cleanup(hopSrv.Close)

	ctx := context.Background()
	hopKey, err := AttestHopOver(ctx, transport.NewHTTP(nil), hopSrv.URL, platform.AttestationPublicKey(), hopEncl.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	frontCfg := ShardedConfig{
		NextHop: hopSrv.URL, NextHopKey: hopKey, NextHopSecret: "restart-secret",
		K: 2, RoundSize: clients, Shards: 2, Seed: 22,
	}
	front1, err := NewSharded(frontCfg, frontEncl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front1.Close)
	// An idle directive first, so the sealed plan is not the one either
	// tier's config describes: version 1, hash-quota.
	if _, err := front1.StageTopology(ctx, wire.TopologyDirective{Mode: "hash-quota"}); err != nil {
		t.Fatal(err)
	}
	front1Srv := httptest.NewServer(front1.Handler())

	rounds := [][]nn.ParamSet{perturbed(initial, clients, 0), perturbed(initial, clients, 500)}
	send := func(url string, u nn.ParamSet) {
		t.Helper()
		p := newParticipant(t, url, aggSrv.URL)
		if err := p.Attest(ctx, platform.AttestationPublicKey(), frontEncl.Measurement()); err != nil {
			t.Fatal(err)
		}
		if err := p.SendUpdate(ctx, u); err != nil {
			t.Fatal(err)
		}
	}

	// First half of the round through the 2-shard front.
	for _, u := range rounds[0][:clients/2] {
		send(front1Srv.URL, u)
	}

	// Crash: seal the tier, kill the proxy.
	sealed := front1.Status()
	blob, err := front1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	front1Srv.Close()

	// The replacement is configured for THREE sticky shards. It restores,
	// then asks for its own shape the way every reshape is asked for.
	reshardCfg := frontCfg
	reshardCfg.Shards = 3
	front2, err := NewSharded(reshardCfg, frontEncl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front2.Close)
	if err := front2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := front2.StageTopology(ctx, wire.TopologyDirective{
		Mode: "sticky", Shards: make([]wire.TopologyShardSpec, 3),
	}); err != nil {
		t.Fatal(err)
	}
	st := front2.Status()
	if st.RestoredFrom != 2 || len(st.Shards) != 2 || st.RoutingMode != "hash-quota" {
		t.Fatalf("restored_from=%d shards=%d mode=%s, want the sealed 2-shard hash-quota plan", st.RestoredFrom, len(st.Shards), st.RoutingMode)
	}
	if st.TopoVersion != sealed.TopoVersion || st.StagedTopoVersion != sealed.TopoVersion+1 {
		t.Fatalf("topo_version=%d staged=%d, want the sealed %d with %d staged behind the open round",
			st.TopoVersion, st.StagedTopoVersion, sealed.TopoVersion, sealed.TopoVersion+1)
	}
	if st.InRound != clients/2 {
		t.Fatalf("restored in_round = %d, want %d", st.InRound, clients/2)
	}
	for s, sh := range st.Shards {
		if sh.Buffered != sealed.Shards[s].Buffered || sh.Load != sealed.Shards[s].Load {
			t.Fatalf("shard %d restored buffered/load %d/%d, sealed %d/%d", s, sh.Buffered, sh.Load, sealed.Shards[s].Buffered, sealed.Shards[s].Load)
		}
	}
	front2Srv := httptest.NewServer(front2.Handler())
	t.Cleanup(front2Srv.Close)

	// Second half through the replacement: the round closes under the
	// plan it opened under.
	for _, u := range rounds[0][clients/2:] {
		send(front2Srv.URL, u)
	}
	flushTier(t, front2, hopPx)
	waitServerRound(t, agg, 1)
	assertRoundMean(t, obs, 0, rounds[0])

	// One round close later the replacement's own plan is live.
	st = front2.Status()
	if len(st.Shards) != 3 || st.RoutingMode != "sticky" || st.TopoVersion != sealed.TopoVersion+1 || st.StagedTopoVersion != 0 {
		t.Fatalf("after the round close: shards=%d mode=%s topo_version=%d staged=%d, want 3 sticky shards at version %d, nothing staged",
			len(st.Shards), st.RoutingMode, st.TopoVersion, st.StagedTopoVersion, sealed.TopoVersion+1)
	}
	if st.RestoredFrom != 2 {
		t.Fatalf("restored_from = %d after the reshape, want 2", st.RestoredFrom)
	}
	for _, u := range rounds[1] {
		send(front2Srv.URL, u)
	}
	flushTier(t, front2, hopPx)
	waitServerRound(t, agg, 2)
	assertRoundMean(t, obs, 1, rounds[1])

	if hopSt := hopPx.Status(); hopSt.HopReceived != 2*clients {
		t.Fatalf("hop received %d cascade updates, want %d", hopSt.HopReceived, 2*clients)
	}
	for _, sh := range front2.Status().Shards {
		if sh.Buffered != 0 {
			t.Fatalf("shard %d still buffers %d after round close", sh.Shard, sh.Buffered)
		}
	}
}

// TestSealStateConcurrentWithIngress runs the sealer against live
// traffic under the race detector: SealState must snapshot a
// round-consistent tier while concurrent /v1/update requests mix, and
// the round must still close with exact aggregation equivalence.
func TestSealStateConcurrentWithIngress(t *testing.T) {
	platform, encl := fixtures(t)
	const clients, shards = 24, 3
	agg, px, proxyURL, _ := shardedDeployment(t, clients, 2, shards)

	base := testArch().New(1).SnapshotParams()
	updates := make([]nn.ParamSet, clients)
	for i := range updates {
		u := base.Clone()
		u.Layers[0].Tensors[0].AddScalar(float64(i + 1))
		updates[i] = u
	}

	done := make(chan struct{})
	var sealWG sync.WaitGroup
	sealWG.Add(1)
	go func() {
		defer sealWG.Done()
		for {
			select {
			case <-done:
				return
			// Yield between snapshots: each iteration is crypto-heavy
			// (seal + probe restore), and a flat-out loop can starve the
			// senders' dials when sibling test binaries saturate the CPU.
			case <-time.After(time.Millisecond):
			}
			blob, err := px.SealState()
			if err != nil {
				t.Errorf("concurrent SealState: %v", err)
				return
			}
			// Every snapshot must be round-consistent: it restores into
			// a fresh tier, and the restored buffer matches the sealed
			// ledger (ingested minus forwarded), never a torn view.
			probe, err := NewSharded(ShardedConfig{
				Upstream: "http://unused", K: 2, RoundSize: clients, Shards: shards, Seed: 43,
			}, encl, platform)
			if err != nil {
				t.Errorf("probe tier: %v", err)
				return
			}
			if err := probe.RestoreState(blob); err != nil {
				probe.Close()
				t.Errorf("mid-traffic blob failed to restore: %v", err)
				return
			}
			st := probe.Status()
			probe.Close()
			buffered := 0
			for _, sh := range st.Shards {
				buffered += sh.Buffered
			}
			// forwarded lags emission (it counts after the upstream post,
			// outside the mixing mutex), so in-flight material makes this
			// an inequality: buffered can never EXCEED ingested minus
			// forwarded without double-counting.
			if buffered > st.Received+st.HopReceived-st.Forwarded {
				t.Errorf("torn snapshot: buffered %d, ledger in %d out %d",
					buffered, st.Received+st.HopReceived, st.Forwarded)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := sendRaw(t, encl, proxyURL, fmt.Sprintf("client-%d", i), updates[i])
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("participant %d: %s", i, resp.Status)
			}
		}(i)
	}
	wg.Wait()
	close(done)
	sealWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	flushTier(t, px)
	if agg.Round() != 1 {
		t.Fatalf("server round = %d, want 1", agg.Round())
	}
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("concurrent sealing broke aggregation equivalence")
	}
}

// TestSealedMidTrafficBlobRestores seals a tier that is mid-round (not
// at a quiescent point) and proves the snapshot is usable: it restores
// into a fresh tier whose buffer matches the sealed ledger.
func TestSealedMidTrafficBlobRestores(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 8
	_, px, proxyURL, _ := shardedDeployment(t, clients, 2, 2)

	for i := 0; i < 5; i++ {
		resp := sendRaw(t, encl, proxyURL, "", testArch().New(int64(30+i)).SnapshotParams())
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}
	blob, err := px.SealState()
	if err != nil {
		t.Fatal(err)
	}
	st := px.Status()

	restored, err := NewSharded(ShardedConfig{
		Upstream: "http://unused", K: 2, RoundSize: clients, Shards: 4, Seed: 5,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	if err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	rst := restored.Status()
	if rst.InRound != st.InRound || rst.Received != st.Received || rst.Forwarded != st.Forwarded {
		t.Fatalf("restored ledger %+v does not match sealed %+v", rst, st)
	}
	var sealedBuf, restoredBuf int
	for _, sh := range st.Shards {
		sealedBuf += sh.Buffered
	}
	for _, sh := range rst.Shards {
		restoredBuf += sh.Buffered
	}
	if sealedBuf != restoredBuf {
		t.Fatalf("restored buffer %d, sealed %d", restoredBuf, sealedBuf)
	}
}

// TestSingleProxyRejectsForgedHopHeader is the regression test for the
// pre-consolidation drift: the single proxy used to accept forged
// X-Mixnn-Hop headers on /v1/update because the check lived only on the
// sharded path. As a Shards=1 wrapper it now shares the sharded ingress.
func TestSingleProxyRejectsForgedHopHeader(t *testing.T) {
	_, encl := fixtures(t)
	_, _, proxyURL, _ := testDeployment(t, 4, 2)

	raw, err := nn.EncodeParamSet(testArch().New(2).SnapshotParams())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := enclave.Encrypt(encl.PublicKey(), raw)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, proxyURL+"/v1/update", bytes.NewReader(ct))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(wire.HeaderHop, "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged hop header on single proxy returned %s, want 400", resp.Status)
	}

	// Without the forged header the same ciphertext is accepted.
	resp, err = http.Post(proxyURL+"/v1/update", wire.ContentTypeUpdate, bytes.NewReader(ct))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("clean update returned %s, want 202", resp.Status)
	}
}

func TestRestoreStateRejectsAfterTraffic(t *testing.T) {
	_, encl := fixtures(t)
	_, px, proxyURL, _ := shardedDeployment(t, 4, 2, 2)
	blob, err := px.SealState()
	if err != nil {
		t.Fatal(err)
	}
	resp := sendRaw(t, encl, proxyURL, "", testArch().New(3).SnapshotParams())
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("send: %s", resp.Status)
	}
	if err := px.RestoreState(blob); err == nil {
		t.Fatal("restore into a proxy that already processed updates accepted")
	}
}
