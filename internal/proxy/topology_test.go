package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/nn"
	"mixnn/internal/route"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// topoFixture stands up an aggregation server + sharded front tier and
// returns everything a routing-plane test needs.
type topoFixture struct {
	agg      *AggServer
	obs      *roundObserver
	aggSrv   *httptest.Server
	px       *ShardedProxy
	pxSrv    *httptest.Server
	platform *enclave.Platform
	encl     *enclave.Enclave
}

func newTopoFixture(t *testing.T, cfg ShardedConfig) *topoFixture {
	t.Helper()
	platform, encl := fixtures(t)
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), cfg.RoundSize)
	if err != nil {
		t.Fatal(err)
	}
	obs := &roundObserver{}
	agg.SetObserver(obs)
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)
	if cfg.Upstream == "" {
		cfg.Upstream = aggSrv.URL
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = 5 * time.Millisecond
	}
	px, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)
	return &topoFixture{agg: agg, obs: obs, aggSrv: aggSrv, px: px, pxSrv: pxSrv, platform: platform, encl: encl}
}

// sendRound drives one full round of identified participants through the
// front tier and returns the updates sent.
func (f *topoFixture) sendRound(t *testing.T, c int, offset float64) []nn.ParamSet {
	t.Helper()
	updates := perturbed(testArch().New(1).SnapshotParams(), c, offset)
	for i, u := range updates {
		resp := sendRaw(t, f.encl, f.pxSrv.URL, fmt.Sprintf("client-%d", i), u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}
	return updates
}

// assertRoundMean checks that the observer's round r saw exactly the
// classic mean of sent.
func assertRoundMean(t *testing.T, obs *roundObserver, r int, sent []nn.ParamSet) {
	t.Helper()
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.recs) <= r {
		t.Fatalf("observer saw %d rounds, want > %d", len(obs.recs), r)
	}
	rec := obs.recs[r]
	if len(rec.Updates) != len(sent) {
		t.Fatalf("round %d delivered %d updates, want %d", r, len(rec.Updates), len(sent))
	}
	want, err := nn.Average(sent)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nn.Average(rec.Updates)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEqual(want, 1e-9) {
		t.Fatalf("round %d delivered mean != classic mean", r)
	}
}

// TestTopologyAdminEndpoint drives the admin surface over HTTP: an idle
// tier applies a directive immediately, the version bumps, quotas follow
// the weights, and the status endpoints surface the routing plane.
func TestTopologyAdminEndpoint(t *testing.T) {
	f := newTopoFixture(t, ShardedConfig{RoundSize: 8, Shards: 2, Seed: 31, HopSecret: "adm1n"})
	adminPost := func(body []byte) *http.Response {
		req, err := http.NewRequest(http.MethodPost, f.pxSrv.URL+"/v1/admin/topology", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer adm1n")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	adminGet := func() *http.Response {
		req, err := http.NewRequest(http.MethodGet, f.pxSrv.URL+"/v1/admin/topology", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer adm1n")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	var st wire.TopologyStatus
	resp := adminGet()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Version != 0 || st.Mode != "sticky" || len(st.Shards) != 2 {
		t.Fatalf("initial topology = %+v", st)
	}

	directive, _ := json.Marshal(wire.TopologyDirective{
		Mode: "hash-quota",
		Shards: []wire.TopologyShardSpec{
			{Weight: 1}, {Weight: 1}, {Weight: 2},
		},
	})
	resp = adminPost(directive)
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("directive: %s", resp.Status)
	}
	// The tier was idle, so the plan applied immediately.
	if st.Version != 1 || st.Mode != "hash-quota" || len(st.Shards) != 3 || st.Staged != nil {
		t.Fatalf("post-directive topology = %+v", st)
	}
	if st.Shards[2].Quota != 4 || st.Shards[0].Quota != 2 {
		t.Fatalf("quotas = %+v, want weight-proportional [2 2 4]", st.Shards)
	}
	pst := f.px.Status()
	if pst.TopoVersion != 1 || pst.RoutingMode != "hash-quota" || len(pst.Shards) != 3 {
		t.Fatalf("proxy status routing plane = v%d %s %d shards", pst.TopoVersion, pst.RoutingMode, len(pst.Shards))
	}

	// A bad directive fails loudly and changes nothing.
	resp = adminPost([]byte(`{"shards":[{},{},{},{},{},{},{},{},{}]}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("oversized shard set: %s, want 422", resp.Status)
	}
	if got := f.px.Topology().Version(); got != 1 {
		t.Fatalf("failed directive bumped the topology to v%d", got)
	}
}

// TestTopologyAdminGatedBySecret: with an inter-proxy secret configured,
// the admin surface requires it.
func TestTopologyAdminGatedBySecret(t *testing.T) {
	f := newTopoFixture(t, ShardedConfig{RoundSize: 4, Shards: 1, Seed: 32, HopSecret: "s3cret"})
	resp, err := http.Get(f.pxSrv.URL + "/v1/admin/topology")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated admin GET: %s, want 401", resp.Status)
	}
	req, _ := http.NewRequest(http.MethodGet, f.pxSrv.URL+"/v1/admin/topology", nil)
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated admin GET: %s", resp.Status)
	}
}

// TestTopologyAdminPostRequiresConfiguredSecret: with NO inter-proxy
// secret configured, the state-changing POST surface must not exist —
// an unauthenticated reshape could shrink the anonymity set or attach
// an attacker-attested "remote shard" receiving raw pre-mix updates.
func TestTopologyAdminPostRequiresConfiguredSecret(t *testing.T) {
	f := newTopoFixture(t, ShardedConfig{RoundSize: 4, Shards: 2, Seed: 35})
	resp, err := http.Post(f.pxSrv.URL+"/v1/admin/topology", "application/json",
		bytes.NewReader([]byte(`{"mode":"hash-quota","shards":[{}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("secretless admin POST: %s, want 403", resp.Status)
	}
	if got := f.px.Topology(); got.Version() != 0 || got.P() != 2 {
		t.Fatal("secretless POST changed the topology")
	}
}

// TestTopologyAppliesAtRoundBoundary stages a directive while a round is
// OPEN: the open round finishes under the old plan, the next round runs
// under the new one, and both rounds aggregate exactly.
func TestTopologyAppliesAtRoundBoundary(t *testing.T) {
	f := newTopoFixture(t, ShardedConfig{RoundSize: 6, Shards: 2, Seed: 33})

	// Half a round in, then stage P=3 hash-quota.
	updates := perturbed(testArch().New(1).SnapshotParams(), 12, 0)
	for i := 0; i < 3; i++ {
		resp := sendRaw(t, f.encl, f.pxSrv.URL, fmt.Sprintf("client-%d", i), updates[i])
		resp.Body.Close()
	}
	if _, err := f.px.StageTopology(context.Background(), wire.TopologyDirective{
		Mode:   "hash-quota",
		Shards: []wire.TopologyShardSpec{{}, {}, {}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := f.px.Topology().Version(); got != 0 {
		t.Fatalf("open round adopted the staged topology early (v%d)", got)
	}
	if st := f.px.Status(); st.StagedTopoVersion != 1 {
		t.Fatalf("staged version = %d, want 1", st.StagedTopoVersion)
	}
	for i := 3; i < 6; i++ {
		resp := sendRaw(t, f.encl, f.pxSrv.URL, fmt.Sprintf("client-%d", i), updates[i])
		resp.Body.Close()
	}
	flushTier(t, f.px)
	waitServerRound(t, f.agg, 1)
	topo := f.px.Topology()
	if topo.Version() != 1 || topo.P() != 3 || topo.Mode() != route.ModeHashQuota {
		t.Fatalf("post-close topology = v%d P=%d %s", topo.Version(), topo.P(), topo.Mode())
	}
	assertRoundMean(t, f.obs, 0, updates[:6])

	// The next round runs under the new plan.
	for i := 6; i < 12; i++ {
		resp := sendRaw(t, f.encl, f.pxSrv.URL, fmt.Sprintf("client-%d", i), updates[i])
		resp.Body.Close()
	}
	flushTier(t, f.px)
	waitServerRound(t, f.agg, 2)
	assertRoundMean(t, f.obs, 1, updates[6:])
	st := f.px.Status()
	if len(st.Shards) != 3 {
		t.Fatalf("status shards = %d, want 3", len(st.Shards))
	}
}

// TestTopologyCrashRestartAdoptsSealedPlan is the v3 crash-restart e2e:
// a hash-quota tier with weighted shards is sealed mid-round; the
// replacement proxy is configured with a completely different static
// shape, and must come back under EXACTLY the sealed plan — mode, shard count, quotas, loads — then finish the round
// with the aggregate unchanged.
func TestTopologyCrashRestartAdoptsSealedPlan(t *testing.T) {
	const c = 8
	platform, encl := fixtures(t)
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), c)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	px1, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 2, RoundSize: c, Seed: 43,
		Routing:    route.ModeHashQuota,
		ShardSpecs: []route.ShardSpec{{Weight: 3}, {Weight: 1}},
		RetryBase:  time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px1.Close)
	srv1 := httptest.NewServer(px1.Handler())
	updates := perturbed(testArch().New(1).SnapshotParams(), c, 70)
	for i := 0; i < 5; i++ {
		resp := sendRaw(t, encl, srv1.URL, fmt.Sprintf("q-%d", i), updates[i])
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}
	sealedLoads := make([]int, 2)
	for s, sh := range px1.Status().Shards {
		sealedLoads[s] = sh.Load
	}
	blob, err := px1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	// The replacement's flags say 4 sticky shards — but it adopts the
	// sealed plan.
	px2, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 2, RoundSize: c, Shards: 4, Seed: 44,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px2.Close)
	if err := px2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	topo := px2.Topology()
	if topo.Mode() != route.ModeHashQuota || topo.P() != 2 {
		t.Fatalf("restored topology = %s P=%d, want hash-quota P=2 (the sealed plan)", topo.Mode(), topo.P())
	}
	if topo.Quota(0) != 6 || topo.Quota(1) != 2 {
		t.Fatalf("restored quotas = [%d %d], want the sealed [6 2]", topo.Quota(0), topo.Quota(1))
	}
	st := px2.Status()
	for s, sh := range st.Shards {
		if sh.Load != sealedLoads[s] {
			t.Fatalf("restored shard %d load = %d, want the sealed %d", s, sh.Load, sealedLoads[s])
		}
	}
	if st.InRound != 5 {
		t.Fatalf("restored in-round = %d, want 5", st.InRound)
	}

	srv2 := httptest.NewServer(px2.Handler())
	t.Cleanup(srv2.Close)
	for i := 5; i < c; i++ {
		resp := sendRaw(t, encl, srv2.URL, fmt.Sprintf("q-%d", i), updates[i])
		resp.Body.Close()
	}
	flushTier(t, px2)
	waitServerRound(t, agg, 1)
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("aggregate diverged across the v3 crash-restart")
	}
}

// remoteShardFixture builds one peer shard proxy with its OWN enclave
// (the multi-process deployment unit) whose round size is the quota the
// front tier will route to it.
func remoteShardFixture(t *testing.T, platform *enclave.Platform, upstream string, roundSize int, seed int64) (*ShardedProxy, string, RemoteShard) {
	return remoteShardFixtureOver(t, platform, nil, upstream, roundSize, seed)
}

// remoteShardFixtureOver is remoteShardFixture over an explicit
// transport: registered in lb when non-nil, served over httptest
// otherwise.
func remoteShardFixtureOver(t *testing.T, platform *enclave.Platform, lb *transport.Loopback, upstream string, roundSize int, seed int64) (*ShardedProxy, string, RemoteShard) {
	t.Helper()
	encl, err := enclave.New(enclave.Config{CodeIdentity: fmt.Sprintf("shard-enclave-%d", seed), RSABits: 1024}, platform)
	if err != nil {
		t.Fatal(err)
	}
	var cfgTr transport.Transport
	if lb != nil {
		cfgTr = lb
	}
	px, err := NewSharded(ShardedConfig{
		Upstream: upstream, K: 1, RoundSize: roundSize, Shards: 1, Seed: seed,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
		Transport: cfgTr,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	var addr string
	var tr transport.Transport
	if lb != nil {
		addr = fmt.Sprintf("loop://rshard-%d", seed)
		lb.Register(addr, px)
		tr = lb
	} else {
		srv := httptest.NewServer(px.Handler())
		t.Cleanup(srv.Close)
		addr, tr = srv.URL, transport.NewHTTP(nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	key, err := AttestHopOver(ctx, tr, addr, platform.AttestationPublicKey(), encl.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	return px, addr, RemoteShard{Key: key}
}

// TestTopologyRemoteShardEndToEnd: a front tier with one local and one
// remote shard (its own enclave) closes a round at the aggregation
// server with the classic mean — the first true multi-process tier.
func TestTopologyRemoteShardEndToEnd(t *testing.T) {
	const c = 6
	platform, encl := fixtures(t)
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), c)
	if err != nil {
		t.Fatal(err)
	}
	obs := &roundObserver{}
	agg.SetObserver(obs)
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	// Local shard weight 1, remote shard weight 1 → quotas [3 3].
	_, addr, rs := remoteShardFixture(t, platform, aggSrv.URL, 3, 91)
	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: c, Seed: 92,
		Routing:      route.ModeHashQuota,
		ShardSpecs:   []route.ShardSpec{{}, {Addr: addr}},
		RemoteShards: map[string]RemoteShard{addr: rs},
		RetryBase:    time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	updates := perturbed(testArch().New(1).SnapshotParams(), c, 110)
	for i, u := range updates {
		resp := sendRaw(t, encl, pxSrv.URL, fmt.Sprintf("rm-%d", i), u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}
	waitServerRound(t, agg, 1)
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("aggregate diverged with a remote shard in the tier")
	}
	st := px.Status()
	if st.Shards[1].Addr != addr {
		t.Fatalf("status does not surface the remote placement: %+v", st.Shards)
	}
	if st.Shards[1].Received != 3 {
		t.Fatalf("remote shard relayed %d updates, want its quota 3", st.Shards[1].Received)
	}
}

// TestTopologyRemoteKeyMissingStallsNotLoses: an entry addressed to a
// remote shard whose key is gone (e.g. restart without re-registration)
// must stay queued — retried, not quarantined — until the key returns.
func TestTopologyRemoteKeyMissingStallsNotLoses(t *testing.T) {
	const c = 4
	platform, encl := fixtures(t)
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), c)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)
	shardPx, addr, rs := remoteShardFixture(t, platform, aggSrv.URL, 2, 93)

	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: c, Seed: 94,
		Routing:      route.ModeHashQuota,
		ShardSpecs:   []route.ShardSpec{{}, {Addr: addr}},
		RemoteShards: map[string]RemoteShard{addr: rs},
		RetryBase:    time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	// Sabotage: drop the key before any traffic, so the relay entry has
	// no target material.
	px.dlv.mu.Lock()
	delete(px.dlv.remotes, addr)
	px.dlv.mu.Unlock()

	updates := perturbed(testArch().New(1).SnapshotParams(), c, 130)
	for i, u := range updates {
		resp := sendRaw(t, encl, pxSrv.URL, fmt.Sprintf("rk-%d", i), u)
		resp.Body.Close()
	}
	// The relay entry must neither deliver nor quarantine.
	time.Sleep(50 * time.Millisecond)
	if q := px.Status().OutboxQuarantined; q != 0 {
		t.Fatalf("missing key quarantined %d entries (material lost)", q)
	}
	if pending := px.Status().OutboxPending; pending == 0 {
		t.Fatal("relay entry vanished without a key")
	}
	// Re-register: delivery resumes and the round closes.
	if err := px.RegisterRemote(addr, rs); err != nil {
		t.Fatal(err)
	}
	flushTier(t, px, shardPx)
	waitServerRound(t, agg, 1)
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("aggregate diverged after key re-registration")
	}
}

// TestDedupWindowAgedOutStale pins aged-redelivery rejection: an id
// that aged out of the batch-dedup FIFO is rejected with 409 (+ stale
// marker) via the sender sequence watermark instead of being silently
// re-absorbed, while a lost-ack redelivery of the sender's LAST applied
// entry still acks 200.
func TestDedupWindowAgedOutStale(t *testing.T) {
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), 100)
	if err != nil {
		t.Fatal(err)
	}
	agg.seen.cap = 1
	srv := httptest.NewServer(agg.Handler())
	t.Cleanup(srv.Close)

	post := func(id, sender string, seq int, body []byte) *http.Response {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentTypeBatch)
		req.Header.Set(wire.HeaderBatch, id)
		if sender != "" {
			req.Header.Set(wire.HeaderSender, sender)
			req.Header.Set(wire.HeaderBatchSeq, fmt.Sprintf("%d", seq))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	batch := func(i int) []byte {
		raw, err := nn.EncodeParamSet(perturbed(testArch().New(1).SnapshotParams(), 1, float64(i*10))[0])
		if err != nil {
			t.Fatal(err)
		}
		enc, err := wire.BatchEnvelope{Updates: [][]byte{raw}}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}

	b1, b2, b3 := batch(1), batch(2), batch(3)
	if resp := post("id1", "s1", 1, b1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first delivery: %s", resp.Status)
	}
	if resp := post("id2", "s1", 2, b2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second delivery: %s", resp.Status)
	}
	// id1 aged out (window=1) and seq 1 < watermark 2 → stale 409.
	resp := post("id1", "s1", 1, b1)
	if resp.StatusCode != http.StatusConflict || resp.Header.Get(wire.HeaderStale) == "" {
		t.Fatalf("aged-out redelivery: %s (stale=%q), want 409 + stale marker", resp.Status, resp.Header.Get(wire.HeaderStale))
	}
	// id2 still in the window → plain duplicate ack.
	if resp := post("id2", "s1", 2, b2); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-window redelivery: %s, want 200", resp.Status)
	}
	// Another sender evicts id2 from the window...
	if resp := post("id3", "s2", 1, b3); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other sender: %s", resp.Status)
	}
	// ...but redelivering s1's LAST applied entry (lost ack) still acks.
	if resp := post("id2", "s1", 2, b2); resp.StatusCode != http.StatusOK {
		t.Fatalf("lost-ack redelivery at the watermark: %s, want 200", resp.Status)
	}
	// Exactly 3 distinct updates were absorbed.
	var sst wire.ServerStatus
	sresp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&sst); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sst.UpdatesInRound != 3 {
		t.Fatalf("server absorbed %d updates, want exactly 3", sst.UpdatesInRound)
	}
}

// TestOutboxQuarantinedSurfaced pins the operator-surface satellite:
// .bad files left by a previous process are counted into the status.
func TestOutboxQuarantinedSurfaced(t *testing.T) {
	platform, encl := fixtures(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ob-0000000000000001.ent.bad"), []byte("junk"), 0o600); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	t.Cleanup(srv.Close)
	px, err := NewSharded(ShardedConfig{
		Upstream: srv.URL, K: 1, RoundSize: 2, Shards: 1, Seed: 63, OutboxDir: dir,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	if got := px.Status().OutboxQuarantined; got != 1 {
		t.Fatalf("OutboxQuarantined = %d, want 1 (the leftover .bad file)", got)
	}
}

// FuzzTopologyEquivalence is the routing plane's acceptance property:
// for arbitrary shard counts P→P′ across an epoch-boundary reshard,
// hash-quota vs sticky routing, and local vs remote shard
// placement, every round's delivered mean equals the classic FedAvg mean
// of its inputs at 1e-9.
func FuzzTopologyEquivalence(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(0), uint8(3), false, int64(1), false)
	f.Add(uint8(2), uint8(3), uint8(1), uint8(4), false, int64(2), true)
	f.Add(uint8(3), uint8(1), uint8(2), uint8(5), true, int64(3), false)
	f.Add(uint8(2), uint8(2), uint8(2), uint8(0), true, int64(4), true)
	f.Fuzz(func(t *testing.T, pRaw, pPrimeRaw, modeRaw, cRaw uint8, remote bool, seed int64, loop bool) {
		p := int(pRaw)%4 + 1
		pPrime := int(pPrimeRaw)%4 + 1
		modes := []route.Mode{route.ModeSticky, route.ModeHashQuota}
		mode := modes[int(modeRaw)%len(modes)]
		if remote && mode == route.ModeSticky {
			// Remote placement requires a quota-enforcing mode (the
			// topology constructor rejects sticky+remote).
			mode = route.ModeHashQuota
		}
		nextMode := modes[(int(modeRaw)+1)%len(modes)]
		c := maxInt(p, pPrime) + int(cRaw)%7
		platform, encl := fixtures(t)
		initial := testArch().New(1).SnapshotParams()

		agg, err := NewAggServer(initial, c)
		if err != nil {
			t.Fatal(err)
		}
		obs := &roundObserver{}
		agg.SetObserver(obs)
		// Transport dimension: the reshard equivalence must hold over
		// the in-process Loopback exactly as over HTTP.
		tn := newTestNet(t, loop)
		aggEP := tn.serve("loop://agg", agg)

		// Round-1 topology: P shards; optionally the last one remote (its
		// own enclave, reached over the hop leg).
		cfg := ShardedConfig{
			Upstream: aggEP, K: 1, RoundSize: c, Seed: seed,
			Routing:   mode,
			RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
			Transport: tn.cfgTransport(),
		}
		specs := make([]route.ShardSpec, p)
		if remote && p >= 2 {
			quotaTopo, err := route.New(0, mode, c, specs)
			if err != nil {
				t.Fatal(err)
			}
			_, addr, rs := remoteShardFixtureOver(t, platform, tn.lb, aggEP, quotaTopo.Quota(p-1), seed+1000)
			specs[p-1].Addr = addr
			cfg.RemoteShards = map[string]RemoteShard{addr: rs}
		}
		cfg.ShardSpecs = specs
		px, err := NewSharded(cfg, encl, platform)
		if err != nil {
			t.Fatal(err)
		}
		defer px.Close()
		pxEP := tn.serve("loop://front", px)

		send := func(sent []nn.ParamSet) {
			for i, u := range sent {
				sendTyped(t, tn.tr(), encl, pxEP, fmt.Sprintf("fz-%d", i), u)
			}
		}
		round0 := perturbed(initial, c, 10)
		send(round0)
		waitServerRound(t, agg, 1)

		// Epoch-boundary reshard: P→P′ and a different routing mode.
		if _, err := px.StageTopology(context.Background(), wire.TopologyDirective{
			Mode:   nextMode.String(),
			Shards: make([]wire.TopologyShardSpec, pPrime),
		}); err != nil {
			t.Fatal(err)
		}
		round1 := perturbed(initial, c, 2000)
		send(round1)
		waitServerRound(t, agg, 2)
		if got := px.Topology().P(); got != pPrime {
			t.Fatalf("post-reshard P = %d, want %d", got, pPrime)
		}

		assertRoundMean(t, obs, 0, round0)
		assertRoundMean(t, obs, 1, round1)
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
