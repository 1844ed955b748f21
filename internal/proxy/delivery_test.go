package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/outbox"
	"mixnn/internal/route"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// gatedServer wraps an AggServer so tests can take the downstream
// offline (POSTs return 503) and bring it back — the outage half of the
// delivery pipeline's failure model.
type gatedServer struct {
	mu   sync.Mutex
	down bool
	next http.Handler
}

func (g *gatedServer) SetDown(down bool) {
	g.mu.Lock()
	g.down = down
	g.mu.Unlock()
}

func (g *gatedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	down := g.down
	g.mu.Unlock()
	if down && r.Method == http.MethodPost {
		http.Error(w, "downstream outage", http.StatusServiceUnavailable)
		return
	}
	g.next.ServeHTTP(w, r)
}

// perturbed returns C recognisable updates derived from base.
func perturbed(base nn.ParamSet, c int, offset float64) []nn.ParamSet {
	updates := make([]nn.ParamSet, c)
	for i := range updates {
		u := base.Clone()
		u.Layers[0].Tensors[0].AddScalar(offset + float64(i+1))
		u.Layers[len(u.Layers)-1].Tensors[0].AddScalar(-(offset + float64(i+1)) / 2)
		updates[i] = u
	}
	return updates
}

// waitServerRound polls the aggregation server until it reaches round
// want (delivery is asynchronous even after Flush on multi-hop paths).
func waitServerRound(t *testing.T, agg *AggServer, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for agg.Round() < want {
		if time.Now().After(deadline) {
			t.Fatalf("server round = %d, want %d", agg.Round(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDeliveryExactlyOnceAcrossOutageAndRestart is the acceptance e2e of
// the delivery pipeline: the downstream dies mid-drain, the proxy is
// crashed (sealed) and restarted over the same outbox directory, the
// downstream comes back — and the aggregated global model still equals
// the classic-FL mean at 1e-9, with no duplicate or lost updates.
func TestDeliveryExactlyOnceAcrossOutageAndRestart(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 4
	initial := testArch().New(1).SnapshotParams()

	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	obs := &roundObserver{}
	agg.SetObserver(obs)
	gate := &gatedServer{next: agg.Handler()}
	aggSrv := httptest.NewServer(gate)
	t.Cleanup(aggSrv.Close)

	outboxDir := t.TempDir()
	cfg := ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: clients, Shards: 2, Seed: 31,
		OutboxDir: outboxDir, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}
	px1, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	px1Srv := httptest.NewServer(px1.Handler())

	// Round 1 flows normally.
	round1 := perturbed(initial, clients, 0)
	for i, u := range round1 {
		resp := sendRaw(t, encl, px1Srv.URL, "", u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round 1 send %d: %s", i, resp.Status)
		}
	}
	flushTier(t, px1)
	if agg.Round() != 1 {
		t.Fatalf("round 1 did not close: %d", agg.Round())
	}

	// Downstream outage. Round 2 is still fully ingested — ingress never
	// blocks on the downstream — and the drained round commits to the
	// sealed outbox where delivery keeps retrying.
	gate.SetDown(true)
	round2 := perturbed(initial, clients, 100)
	for i, u := range round2 {
		resp := sendRaw(t, encl, px1Srv.URL, "", u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round 2 send %d during outage: %s", i, resp.Status)
		}
	}
	st := px1.Status()
	if st.OutboxPending != 1 || st.Epoch != 2 {
		t.Fatalf("outage status pending/epoch = %d/%d, want 1/2", st.OutboxPending, st.Epoch)
	}

	// Crash the proxy mid-outage: seal, stop, restart over the SAME
	// outbox directory (the entry on disk is the round's durability).
	blob, err := px1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	px1Srv.Close()
	px1.Close()

	px2, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px2.Close)
	if err := px2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if got := px2.Status().OutboxPending; got != 1 {
		t.Fatalf("restarted proxy indexes %d outbox entries, want 1", got)
	}

	// Downstream recovers; the restarted dispatcher delivers round 2
	// exactly once.
	gate.SetDown(false)
	flushTier(t, px2)
	waitServerRound(t, agg, 2)
	if agg.Round() != 2 {
		t.Fatalf("server round = %d, want 2", agg.Round())
	}

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.recs) != 2 {
		t.Fatalf("observer saw %d rounds, want 2", len(obs.recs))
	}
	for r, rec := range obs.recs {
		if len(rec.Updates) != clients {
			t.Fatalf("round %d carried %d updates, want %d (lost or duplicated)", r, len(rec.Updates), clients)
		}
	}
	classic := fl.NewServer(initial)
	if err := classic.Aggregate(round2); err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(classic.Global(), 1e-9) {
		t.Fatal("global model != classic FL mean after outage + crash + restart")
	}
}

// TestDeliveryPipelinedEpochs: with the downstream offline, the tier
// keeps ingesting — round N+1 lands in fresh mixers while rounds ≤ N sit
// in the outbox — and once the downstream recovers the backlog delivers
// in epoch order with per-round aggregation equivalence intact.
func TestDeliveryPipelinedEpochs(t *testing.T) {
	platform, encl := fixtures(t)
	const clients, epochs = 4, 3
	initial := testArch().New(1).SnapshotParams()

	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	obs := &roundObserver{}
	agg.SetObserver(obs)
	gate := &gatedServer{next: agg.Handler()}
	gate.SetDown(true)
	aggSrv := httptest.NewServer(gate)
	t.Cleanup(aggSrv.Close)

	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: clients, Shards: 2, Seed: 37,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	sent := make([][]nn.ParamSet, epochs)
	for e := 0; e < epochs; e++ {
		sent[e] = perturbed(initial, clients, float64(e*1000))
		for i, u := range sent[e] {
			resp := sendRaw(t, encl, pxSrv.URL, "", u)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("epoch %d send %d: %s", e, i, resp.Status)
			}
		}
	}
	st := px.Status()
	if st.Epoch != epochs || st.OutboxPending != epochs || st.Received != epochs*clients {
		t.Fatalf("pipelined status epoch/pending/received = %d/%d/%d, want %d/%d/%d",
			st.Epoch, st.OutboxPending, st.Received, epochs, epochs, epochs*clients)
	}

	gate.SetDown(false)
	flushTier(t, px)
	waitServerRound(t, agg, epochs)

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.recs) != epochs {
		t.Fatalf("observer saw %d rounds, want %d", len(obs.recs), epochs)
	}
	for e, rec := range obs.recs {
		classic := fl.NewServer(initial)
		if err := classic.Aggregate(sent[e]); err != nil {
			t.Fatal(err)
		}
		got, err := nn.Average(rec.Updates)
		if err != nil {
			t.Fatal(err)
		}
		if !got.ApproxEqual(classic.Global(), 1e-9) {
			t.Fatalf("epoch %d delivered out of order or corrupted (round mean mismatch)", e)
		}
	}
}

// TestDeliveryOutboxGarbageRobustness plants truncated, bit-flipped and
// foreign-enclave entries in a proxy's outbox directory: all three are
// quarantined (renamed .bad, kept as evidence) and the queue keeps
// draining real rounds.
func TestDeliveryOutboxGarbageRobustness(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 4
	initial := testArch().New(1).SnapshotParams()

	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	// Plant garbage BEFORE the proxy opens the directory, as a corrupted
	// disk (or meddling host) would leave it.
	dir := t.TempDir()
	plant := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	plant("ob-0000000000000000.ent", []byte{0x01, 0x02}) // truncated
	// A well-formed sealed entry from a DIFFERENT enclave identity: the
	// open hook must reject it (sealing keys are measurement-bound).
	other, err := enclave.New(enclave.Config{CodeIdentity: "other-outbox"}, platform)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.SealLabeled(outboxLabel, []byte("MXOB-foreign"))
	if err != nil {
		t.Fatal(err)
	}
	plant("ob-0000000000000001.ent", foreign)

	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 2, RoundSize: clients, Shards: 2, Seed: 41,
		OutboxDir: dir, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	// Bit-flip a third entry AFTER sealing by corrupting a real one: run
	// a round while the downstream briefly rejects, flip the committed
	// entry, then let delivery continue — the flipped entry must be
	// quarantined, not looped on.
	for i, u := range perturbed(initial, clients, 0) {
		resp := sendRaw(t, encl, pxSrv.URL, "", u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}
	flushTier(t, px)
	waitServerRound(t, agg, 1)
	if agg.Round() != 1 {
		t.Fatalf("round did not survive the garbage: %d", agg.Round())
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bad, live int
	for _, de := range entries {
		switch {
		case strings.HasSuffix(de.Name(), ".bad"):
			bad++
		case strings.HasSuffix(de.Name(), ".ent"):
			live++
		}
	}
	if bad != 2 {
		t.Fatalf("%d quarantined entries, want 2 (truncated + foreign)", bad)
	}
	if live != 0 {
		t.Fatalf("%d entries still queued after flush", live)
	}
}

// TestDeliveryBatchEndpointForgedHop is the /v1/batch regression mirror
// of the /v1/hop hardening: the inter-proxy secret gates it, forged
// excess depth is rejected with 508 before any material is touched, and
// malformed depth is a plain 400.
func TestDeliveryBatchEndpointForgedHop(t *testing.T) {
	platform, encl := fixtures(t)
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), 8)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)
	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, RoundSize: 8, Shards: 2, Seed: 43, HopSecret: "s3cret",
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	// A legitimate batch body, wrapped for the enclave.
	raw, err := nn.EncodeParamSet(testArch().New(3).SnapshotParams())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := wire.BatchEnvelope{Updates: [][]byte{raw, raw}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := enclave.Encrypt(encl.PublicKey(), enc)
	if err != nil {
		t.Fatal(err)
	}
	post := func(auth, hop string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, pxSrv.URL+"/v1/batch", bytes.NewReader(ct))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		if hop != "" {
			req.Header.Set(wire.HeaderHop, hop)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("", "1"); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated batch returned %d, want 401", code)
	}
	if code := post("Bearer wrong", "1"); code != http.StatusUnauthorized {
		t.Fatalf("wrong-secret batch returned %d, want 401", code)
	}
	if code := post("Bearer s3cret", fmt.Sprint(DefaultMaxHops+1)); code != http.StatusLoopDetected {
		t.Fatalf("over-deep batch returned %d, want 508", code)
	}
	if code := post("Bearer s3cret", "-2"); code != http.StatusBadRequest {
		t.Fatalf("malformed hop batch returned %d, want 400", code)
	}
	if got := px.Status().HopReceived; got != 0 {
		t.Fatalf("rejected batches still counted %d updates", got)
	}
	if code := post("Bearer s3cret", "2"); code != http.StatusAccepted {
		t.Fatalf("authorized batch returned %d, want 202", code)
	}
	if got := px.Status().HopReceived; got != 2 {
		t.Fatalf("hop_received = %d, want 2 (both batch items)", got)
	}
	// Garbage bodies on the gated endpoint are a plain 400.
	req, _ := http.NewRequest(http.MethodPost, pxSrv.URL+"/v1/batch", strings.NewReader("junk"))
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage batch returned %s, want 400", resp.Status)
	}
}

// TestDeliveryBatchRedeliveryDedup: both receivers (aggregation server
// and cascade proxy) must treat a redelivered batch id as already
// applied — that is what turns at-least-once retry into exactly-once
// rounds.
func TestDeliveryBatchRedeliveryDedup(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 4
	initial := testArch().New(1).SnapshotParams()

	t.Run("aggserver", func(t *testing.T) {
		agg, err := NewAggServer(initial, clients)
		if err != nil {
			t.Fatal(err)
		}
		aggSrv := httptest.NewServer(agg.Handler())
		t.Cleanup(aggSrv.Close)

		updates := perturbed(initial, clients, 0)
		payloads := make([][]byte, clients)
		for i, u := range updates {
			if payloads[i], err = nn.EncodeParamSet(u); err != nil {
				t.Fatal(err)
			}
		}
		enc, err := wire.BatchEnvelope{Updates: payloads}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		post := func() int {
			req, err := http.NewRequest(http.MethodPost, aggSrv.URL+"/v1/batch", bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(wire.HeaderBatch, "batch-under-test")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
		if code := post(); code != http.StatusAccepted {
			t.Fatalf("first delivery returned %d, want 202", code)
		}
		// The same batch redelivered (lost ack) is acknowledged without
		// starting a second round.
		if code := post(); code != http.StatusOK {
			t.Fatalf("redelivery returned %d, want 200 (already applied)", code)
		}
		if agg.Round() != 1 {
			t.Fatalf("server round = %d, want 1 (duplicate batch double-counted)", agg.Round())
		}
		want, err := nn.Average(updates)
		if err != nil {
			t.Fatal(err)
		}
		if !agg.Global().ApproxEqual(want, 1e-9) {
			t.Fatal("redelivery skewed the aggregate")
		}
	})

	t.Run("proxy", func(t *testing.T) {
		agg, err := NewAggServer(initial, 2*clients)
		if err != nil {
			t.Fatal(err)
		}
		aggSrv := httptest.NewServer(agg.Handler())
		t.Cleanup(aggSrv.Close)
		px, err := NewSharded(ShardedConfig{
			Upstream: aggSrv.URL, RoundSize: 2 * clients, Shards: 2, Seed: 47,
		}, encl, platform)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(px.Close)
		pxSrv := httptest.NewServer(px.Handler())
		t.Cleanup(pxSrv.Close)

		raw, err := nn.EncodeParamSet(initial)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := wire.BatchEnvelope{Updates: [][]byte{raw, raw}}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		ct, err := enclave.Encrypt(encl.PublicKey(), enc)
		if err != nil {
			t.Fatal(err)
		}
		post := func() int {
			req, err := http.NewRequest(http.MethodPost, pxSrv.URL+"/v1/batch", bytes.NewReader(ct))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(wire.HeaderHop, "1")
			req.Header.Set(wire.HeaderBatch, "proxy-batch-under-test")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
		if code := post(); code != http.StatusAccepted {
			t.Fatalf("first delivery returned %d, want 202", code)
		}
		if code := post(); code != http.StatusOK {
			t.Fatalf("redelivery returned %d, want 200", code)
		}
		if got := px.Status().HopReceived; got != 2 {
			t.Fatalf("hop_received = %d, want 2 (redelivery must not re-ingest)", got)
		}
	})
}

// TestDeliveryCountersSurviveSealRestore is the PR 2 follow-up: per-shard
// mixer counters (received/emitted) restore with the tier instead of
// resetting, exactly for an unchanged shard count and sum-preserving
// across a reshard — and the pending (emitted-but-uncommitted) updates
// survive too, so the finished round still matches classic FL.
func TestDeliveryCountersSurviveSealRestore(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 6
	initial := testArch().New(1).SnapshotParams()

	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	// K=1 over 2 shards: the 4 pre-crash sends produce mid-round
	// emissions, so the pending buffer is non-empty at seal time.
	cfg := ShardedConfig{Upstream: aggSrv.URL, K: 1, RoundSize: clients, Shards: 2, Seed: 59}
	px1, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px1.Close)
	px1Srv := httptest.NewServer(px1.Handler())
	updates := perturbed(initial, clients, 0)
	for i := 0; i < 4; i++ {
		resp := sendRaw(t, encl, px1Srv.URL, fmt.Sprintf("client-%d", i), updates[i])
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}
	sealedSt := px1.Status()
	var sealedEmitted int
	for _, sh := range sealedSt.Shards {
		sealedEmitted += sh.Emitted
	}
	if sealedEmitted == 0 {
		t.Fatal("test setup: no emissions before seal; counters not exercised")
	}
	blob, err := px1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	px1Srv.Close()

	// Same-shape restore: per-shard counters are exact.
	same, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(same.Close)
	if err := same.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	sameSt := same.Status()
	for s, sh := range sameSt.Shards {
		if sh.Received != sealedSt.Shards[s].Received || sh.Emitted != sealedSt.Shards[s].Emitted {
			t.Fatalf("shard %d counters %d/%d after restore, sealed %d/%d",
				s, sh.Received, sh.Emitted, sealedSt.Shards[s].Received, sealedSt.Shards[s].Emitted)
		}
	}

	// Resharded restore (2 → 3): totals are preserved.
	reshardCfg := cfg
	reshardCfg.Shards = 3
	resharded, err := NewSharded(reshardCfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(resharded.Close)
	if err := resharded.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	var wantRecv, wantEmit, gotRecv, gotEmit int
	for _, sh := range sealedSt.Shards {
		wantRecv += sh.Received
		wantEmit += sh.Emitted
	}
	for _, sh := range resharded.Status().Shards {
		gotRecv += sh.Received
		gotEmit += sh.Emitted
	}
	if gotRecv != wantRecv || gotEmit != wantEmit {
		t.Fatalf("resharded counter totals %d/%d, sealed %d/%d", gotRecv, gotEmit, wantRecv, wantEmit)
	}

	// Finish the round on the same-shape restore; the pending emissions
	// must ride along — equivalence proves nothing was dropped.
	sameSrv := httptest.NewServer(same.Handler())
	t.Cleanup(sameSrv.Close)
	for i := 4; i < clients; i++ {
		resp := sendRaw(t, encl, sameSrv.URL, fmt.Sprintf("client-%d", i), updates[i])
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}
	flushTier(t, same)
	waitServerRound(t, agg, 1)
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("restored pending emissions lost: aggregate != classic mean")
	}
}

// TestDeliveryPermanentRejectQuarantines: a downstream that definitively
// rejects a batch (4xx) must not be retried forever — the entry is
// quarantined and the queue keeps moving.
func TestDeliveryPermanentRejectQuarantines(t *testing.T) {
	platform, encl := fixtures(t)
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "schema mismatch", http.StatusBadRequest)
	}))
	t.Cleanup(reject.Close)

	dir := t.TempDir()
	px, err := NewSharded(ShardedConfig{
		Upstream: reject.URL, K: 1, RoundSize: 2, Shards: 1, Seed: 67,
		OutboxDir: dir, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	for i := 0; i < 2; i++ {
		resp := sendRaw(t, encl, pxSrv.URL, "", testArch().New(int64(70+i)).SnapshotParams())
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: %s", i, resp.Status)
		}
	}
	// The rejected entry leaves the queue (Flush returns) without ever
	// being counted as forwarded, and the evidence lands in a .bad file.
	flushTier(t, px)
	st := px.Status()
	if st.OutboxPending != 0 || st.Forwarded != 0 {
		t.Fatalf("pending/forwarded = %d/%d, want 0/0 (quarantined, not delivered)", st.OutboxPending, st.Forwarded)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), ".bad") {
			bad++
		}
	}
	if bad != 1 {
		t.Fatalf("%d quarantined entries, want 1", bad)
	}
}

// TestOversizedShareSplits: a share whose batch body would exceed the
// receiver's read bound is cut into several complete entries — own
// sequence number, own batch id — instead of leaving the batch protocol.
// With the bound lowered to two updates per entry, a downstream share and
// a relay share of four updates each arrive as two batches; a piece whose
// acknowledgement is lost is redelivered under its id and deduped; a
// piece whose outbox commit fails is re-filed alone (its sibling already
// travels) and rides the next round; every update counts exactly once.
func TestOversizedShareSplits(t *testing.T) {
	const c = 8
	platform, encl := fixtures(t)
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, 2*c)
	if err != nil {
		t.Fatal(err)
	}
	lb := transport.NewLoopback()
	t.Cleanup(lb.Close)
	aggTap := &batchTap{Server: agg, loseAcks: 1}
	lb.Register("loop://agg", aggTap)
	shardPx, addr, rs := remoteShardFixtureOver(t, platform, lb, "loop://agg", c/2, 97)
	relayTap := &batchTap{Server: shardPx}
	lb.Register(addr, relayTap)
	px, err := NewSharded(ShardedConfig{
		Upstream: "loop://agg", K: 1, RoundSize: c, Seed: 98,
		Routing:      route.ModeHashQuota,
		ShardSpecs:   []route.ShardSpec{{}, {Addr: addr}},
		RemoteShards: map[string]RemoteShard{addr: rs},
		Transport:    lb, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	px.maxEntry = outbox.EntrySize(addr, 2, 2*nn.EncodedSize(initial))
	// The relay share's first piece commits; its second is refused.
	box := &refusingSeal{lane: addr, failing: true, skip: 1}
	installQueue(t, px, box)
	lb.Register("loop://front", px)

	updates := perturbed(initial, 2*c, 300)
	send := func(batch []nn.ParamSet, tag string) {
		for i, u := range batch {
			sendTyped(t, lb, encl, "loop://front", fmt.Sprintf("%s-%d", tag, i), u)
		}
	}
	send(updates[:c], "a")
	// Downstream share: piece 1 applied with its ack lost, redelivered
	// and deduped, then piece 2 under an id of its own. (The remote shard
	// sends the aggregator nothing yet: its round of four is half full.)
	down := aggTap.waitCalls(t, 3)
	sameID(t, down[:2])
	if !down[0].applied || down[0].duplicate || !down[1].duplicate || down[2].duplicate {
		t.Fatalf("downstream pieces: duplicate flags %v/%v/%v, want false/true/false", down[0].duplicate, down[1].duplicate, down[2].duplicate)
	}
	if down[2].req.ID == down[0].req.ID || down[2].req.Seq == down[0].req.Seq {
		t.Fatalf("the two downstream pieces share an identity: %q/%d and %q/%d", down[0].req.ID, down[0].req.Seq, down[2].req.ID, down[2].req.Seq)
	}
	for i, call := range down {
		env, err := wire.DecodeBatchEnvelope(call.body)
		if err != nil || len(env.Updates) != 2 {
			t.Fatalf("downstream delivery %d: %v, %d updates, want a complete batch of 2", i, err, len(env.Updates))
		}
	}
	// Relay share: only the committed piece travelled; the refused one —
	// and nothing else — sits in the live relay shard again.
	relayTap.waitCalls(t, 1)
	st := px.Status()
	if box.refused == 0 || st.Shards[1].Buffered != 2 || st.Rounds != 1 {
		t.Fatalf("after the refused piece: %d refusals, relay buffers %d, %d rounds; want only the refused piece's 2 updates re-filed",
			box.refused, st.Shards[1].Buffered, st.Rounds)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := px.Flush(ctx); err == nil {
		t.Fatal("Flush reported success with a share piece retained")
	}
	cancel()
	if got := shardPx.Status().HopReceived; got != 2 {
		t.Fatalf("remote shard ingested %d updates, want the committed piece's 2", got)
	}

	box.mu.Lock()
	box.failing = false
	box.mu.Unlock()
	send(updates[c:], "b")
	flushTier(t, px, shardPx)
	waitServerRound(t, agg, 1)
	// Round two's relay share is the re-filed piece plus four fresh
	// updates: three more pieces, four relay batches in all, no id twice.
	relayed := relayTap.snapshot()
	ids := make(map[string]bool)
	for _, call := range relayed {
		if call.duplicate || ids[call.req.ID] {
			t.Fatalf("relay batch %q delivered twice", call.req.ID)
		}
		ids[call.req.ID] = true
	}
	if len(relayed) != 4 {
		t.Fatalf("front sent %d relay batches, want 4", len(relayed))
	}
	if got := shardPx.Status().HopReceived; got != c {
		t.Fatalf("remote shard mixed %d updates, want all %d routed to it over both rounds", got, c)
	}
	st = px.Status()
	if st.Forwarded != 2*c || st.OutboxPending != 0 || st.OutboxQuarantined != 0 {
		t.Fatalf("forwarded/pending/quarantined = %d/%d/%d, want %d/0/0", st.Forwarded, st.OutboxPending, st.OutboxQuarantined, 2*c)
	}
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("aggregate diverged across split shares")
	}
}

// TestRelayOnlyFrontCommitsNoEmptyEntry: a front whose shards are all
// remote has no downstream material at round close, and commits no
// downstream entry for it — the epoch chain still advances, so the next
// round commits and Flush returns.
func TestRelayOnlyFrontCommitsNoEmptyEntry(t *testing.T) {
	const c, rounds = 4, 2
	platform, encl := fixtures(t)
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, c)
	if err != nil {
		t.Fatal(err)
	}
	lb := transport.NewLoopback()
	t.Cleanup(lb.Close)
	lb.Register("loop://agg", agg)
	shardPx, addr, rs := remoteShardFixtureOver(t, platform, lb, "loop://agg", c, 99)
	px, err := NewSharded(ShardedConfig{
		Upstream: "loop://agg", K: 1, RoundSize: c, Seed: 100,
		Routing:      route.ModeHashQuota,
		ShardSpecs:   []route.ShardSpec{{Addr: addr}},
		RemoteShards: map[string]RemoteShard{addr: rs},
		Transport:    lb, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	box := &refusingSeal{}
	installQueue(t, px, box)
	lb.Register("loop://front", px)

	for r := 0; r < rounds; r++ {
		for _, u := range perturbed(initial, c, float64(400+100*r)) {
			sendTyped(t, lb, encl, "loop://front", "", u)
		}
	}
	flushTier(t, px, shardPx)
	waitServerRound(t, agg, rounds)
	box.mu.Lock()
	defer box.mu.Unlock()
	if box.puts[""] != 0 || box.puts[addr] != rounds {
		t.Fatalf("outbox commits per lane = %v, want %d on the relay lane and none downstream", box.puts, rounds)
	}
	st := px.Status()
	if st.Rounds != rounds || st.Forwarded != rounds*c {
		t.Fatalf("rounds/forwarded = %d/%d, want %d/%d", st.Rounds, st.Forwarded, rounds, rounds*c)
	}
	if lane, ok := laneStatus(st, ""); ok && lane.Delivered != 0 {
		t.Fatalf("the downstream lane delivered %d entries, want none", lane.Delivered)
	}
}

// TestRelayRefusesForeignStructure: a relay shard files rows of its
// round's model structure, so a participant update of another
// architecture routed to it is refused at ingress. Acked instead, it
// would ride the relay entry, the peer's one-layout batch check would
// refuse that entry (a permanent 400) and the front would quarantine the
// honest updates relayed beside it.
func TestRelayRefusesForeignStructure(t *testing.T) {
	const c = 4
	platform, encl := fixtures(t)
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, c)
	if err != nil {
		t.Fatal(err)
	}
	lb := transport.NewLoopback()
	t.Cleanup(lb.Close)
	lb.Register("loop://agg", agg)
	shardPx, addr, rs := remoteShardFixtureOver(t, platform, lb, "loop://agg", c, 98)
	px, err := NewSharded(ShardedConfig{
		Upstream: "loop://agg", K: 1, RoundSize: c, Seed: 101,
		Routing:      route.ModeHashQuota,
		ShardSpecs:   []route.ShardSpec{{Addr: addr}},
		RemoteShards: map[string]RemoteShard{addr: rs},
		Transport:    lb, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	lb.Register("loop://front", px)

	honest := perturbed(initial, c, 500)
	for _, u := range honest[:2] {
		sendTyped(t, lb, encl, "loop://front", "", u)
	}
	other, err := nn.EncodeParamSet(nn.NewMLP("other", 3, []int{2}, 2).New(1).SnapshotParams())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := enclave.Encrypt(encl.PublicKey(), other)
	if err != nil {
		t.Fatal(err)
	}
	_, err = lb.SendUpdate(context.Background(), "loop://front", transport.UpdateRequest{Body: ct, ClientID: "other"})
	var se *transport.StatusError
	if !errors.As(err, &se) || se.Code < 400 || se.Code >= 500 {
		t.Fatalf("an update of another structure routed to a relay got %v, want a 4xx refusal", err)
	}
	for _, u := range honest[2:] {
		sendTyped(t, lb, encl, "loop://front", "", u)
	}
	flushTier(t, px, shardPx)
	waitServerRound(t, agg, 1)
	if st := px.Status(); st.OutboxQuarantined != 0 || st.Received != c || st.Forwarded != c {
		t.Fatalf("quarantined/received/forwarded = %d/%d/%d, want 0/%d/%d", st.OutboxQuarantined, st.Received, st.Forwarded, c, c)
	}
	want, err := nn.Average(honest)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("the aggregate is not the classic mean of the honest updates")
	}
}

// TestDeliveryBatchIncompatibleWithOpenRound: a batch whose items cannot
// be mixed into the epoch's established model structure is rejected
// whole (nothing counted), so the upstream can safely quarantine it.
func TestDeliveryBatchIncompatibleWithOpenRound(t *testing.T) {
	platform, encl := fixtures(t)
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), 8)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)
	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, RoundSize: 8, Shards: 1, Seed: 73,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	// Establish the epoch's structure with one participant update.
	resp := sendRaw(t, encl, pxSrv.URL, "", testArch().New(2).SnapshotParams())
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed update: %s", resp.Status)
	}

	// A batch of a DIFFERENT architecture: every item fails to mix.
	other, err := nn.EncodeParamSet(nn.NewMLP("other", 3, []int{2}, 2).New(1).SnapshotParams())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := wire.BatchEnvelope{Updates: [][]byte{other, other}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := enclave.Encrypt(encl.PublicKey(), enc)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, pxSrv.URL+"/v1/batch", bytes.NewReader(ct))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(wire.HeaderHop, "1")
	req.Header.Set(wire.HeaderBatch, "incompatible-batch")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("incompatible batch returned %s, want 400", resp2.Status)
	}
	st := px.Status()
	if st.HopReceived != 0 || st.InRound != 1 {
		t.Fatalf("hop_received/in_round = %d/%d, want 0/1 (nothing from the batch counted)", st.HopReceived, st.InRound)
	}
	// The rejected batch released its id (nothing was applied), so a
	// redelivery is processed afresh — and still rejected, not 200-acked
	// as a duplicate of something that never landed. The byte-identical
	// establish frame is counter 0 of a live session replayed, the typed
	// 428; the lane answers it by wrapping again, under a fresh session.
	redeliver := func(body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, pxSrv.URL+"/v1/batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(wire.HeaderHop, "1")
		req.Header.Set(wire.HeaderBatch, "incompatible-batch")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := redeliver(ct); code != http.StatusPreconditionRequired {
		t.Fatalf("replayed establish frame returned %d, want 428", code)
	}
	fresh, err := enclave.Encrypt(encl.PublicKey(), enc)
	if err != nil {
		t.Fatal(err)
	}
	if code := redeliver(fresh); code != http.StatusBadRequest {
		t.Fatalf("redelivered rejected batch returned %d, want 400 (id must have been released)", code)
	}
}

// TestDeliveryClassifyStatus pins the retry-vs-quarantine mapping the
// dispatcher depends on, now expressed over typed transport errors.
func TestDeliveryClassifyStatus(t *testing.T) {
	isPermanent := func(err error) bool {
		if err == nil {
			return false
		}
		var perm *outbox.PermanentError
		return errors.As(err, &perm)
	}
	permanent := func(code int) bool {
		return isPermanent(classifyDelivery(&transport.StatusError{Code: code, Msg: http.StatusText(code)}))
	}
	for _, code := range []int{http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusNotFound,
		http.StatusUpgradeRequired, http.StatusLoopDetected} {
		if !permanent(code) {
			t.Fatalf("%d must be permanent (retry can never succeed)", code)
		}
	}
	for _, code := range []int{http.StatusUnauthorized, http.StatusForbidden, http.StatusRequestTimeout,
		http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusServiceUnavailable} {
		err := classifyDelivery(&transport.StatusError{Code: code, Msg: http.StatusText(code)})
		if err == nil || permanent(code) {
			t.Fatalf("%d must be transient (recoverable downstream state)", code)
		}
	}
	// A 409 is transient (an earlier attempt may still be applying) —
	// unless it carries the stale marker, which proves retrying can
	// never succeed.
	if isPermanent(classifyDelivery(&transport.StatusError{Code: http.StatusConflict})) {
		t.Fatal("plain 409 must stay transient")
	}
	if !isPermanent(classifyDelivery(&transport.StatusError{Code: http.StatusConflict, Stale: true})) {
		t.Fatal("stale 409 must be permanent")
	}
	// Transport-level failures (downstream unreachable) are transient by
	// definition.
	if isPermanent(classifyDelivery(errors.New("connection refused"))) {
		t.Fatal("transport errors must stay transient")
	}
}

// TestDeliveryStatusSurfaces covers the HTTP status endpoint and the
// tier-shape accessors the delivery pipeline extended.
func TestDeliveryStatusSurfaces(t *testing.T) {
	_, px, proxyURL, _ := shardedDeployment(t, 6, 2, 3)
	if px.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", px.Shards())
	}
	resp, err := http.Get(proxyURL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st wire.ShardedProxyStatus
	if err := wire.DecodeJSON(resp.Body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 3 || st.RoundSize != 6 || st.Epoch != 0 || st.OutboxPending != 0 {
		t.Fatalf("status over HTTP = %+v", st)
	}
}

// TestAggServerBatchRejectsGarbage: the server-side batch endpoint
// validates the envelope and every item before counting anything.
func TestAggServerBatchRejectsGarbage(t *testing.T) {
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(agg.Handler())
	t.Cleanup(srv.Close)

	post := func(body []byte) int {
		resp, err := http.Post(srv.URL+"/v1/batch", wire.ContentTypeBatch, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post([]byte("junk")); code != http.StatusBadRequest {
		t.Fatalf("garbage envelope returned %d, want 400", code)
	}
	badItem, err := wire.BatchEnvelope{Updates: [][]byte{[]byte("not a param set")}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if code := post(badItem); code != http.StatusBadRequest {
		t.Fatalf("malformed batch item returned %d, want 400", code)
	}
	// A well-formed batch of the WRONG architecture is rejected before
	// anything is buffered (422, permanent), and — since nothing was
	// applied — its idempotency id is released for redelivery.
	wrongArch, err := nn.EncodeParamSet(nn.NewMLP("wrong", 3, []int{2}, 2).New(1).SnapshotParams())
	if err != nil {
		t.Fatal(err)
	}
	poison, err := wire.BatchEnvelope{Updates: [][]byte{wrongArch, wrongArch}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	postID := func(body []byte) int {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(wire.HeaderBatch, "poison-batch")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 2; i++ {
		if code := postID(poison); code != http.StatusUnprocessableEntity {
			t.Fatalf("poison batch attempt %d returned %d, want 422", i, code)
		}
	}
	if agg.Round() != 0 {
		t.Fatalf("rejected batches advanced the round to %d", agg.Round())
	}
	st, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var status wire.ServerStatus
	if err := wire.DecodeJSON(st.Body, &status); err != nil {
		t.Fatal(err)
	}
	if status.UpdatesInRound != 0 {
		t.Fatalf("rejected batch items were counted: %d", status.UpdatesInRound)
	}
}

// FuzzDeliveryEquivalence fuzzes the delivery pipeline's core invariant
// over epochs × shard count × round size × queue kind × transport: every
// epoch's delivered round must average to exactly that epoch's
// classic-FL mean.
func FuzzDeliveryEquivalence(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(3), true, false)
	f.Add(uint8(2), uint8(2), uint8(4), true, false)
	f.Add(uint8(3), uint8(3), uint8(5), true, true)
	f.Add(uint8(2), uint8(2), uint8(4), false, true)
	f.Add(uint8(2), uint8(2), uint8(6), true, false)
	f.Add(uint8(3), uint8(1), uint8(7), true, true)
	f.Fuzz(func(t *testing.T, epochs, shards, c uint8, batch, loop bool) {
		e := int(epochs)%3 + 1
		p := int(shards)%4 + 1
		clients := p + int(c)%8
		platform, encl := fixtures(t)
		initial := testArch().New(1).SnapshotParams()

		agg, err := NewAggServer(initial, clients)
		if err != nil {
			t.Fatal(err)
		}
		obs := &roundObserver{}
		agg.SetObserver(obs)
		// Transport dimension: the same pipeline over real HTTP or over
		// the in-process Loopback must deliver identical aggregates.
		tn := newTestNet(t, loop)
		aggEP := tn.serve("loop://agg", agg)
		// Queue dimension (the signature is kept so the corpus stays
		// valid): batch=false commits rounds to the sealed disk queue,
		// batch=true to the in-memory one.
		outboxDir := ""
		if !batch {
			outboxDir = t.TempDir()
		}
		px, err := NewSharded(ShardedConfig{
			Upstream: aggEP, K: 1, RoundSize: clients, Shards: p,
			Seed:      int64(e*100 + p*10 + clients),
			OutboxDir: outboxDir,
			RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
			Transport: tn.cfgTransport(),
		}, encl, platform)
		if err != nil {
			t.Fatal(err)
		}
		defer px.Close()
		pxEP := tn.serve("loop://front", px)

		// Ingress-format dimension: when set, even-index clients speak the
		// session-keyed ciphertext (one session per client, persisting
		// across epochs) while odd clients stay on the legacy hybrid
		// format — both interleaved must deliver identical aggregates.
		sessionArm := c&2 == 2
		sessions := make([]*enclave.Session, clients)
		if sessionArm {
			for i := 0; i < clients; i += 2 {
				s, err := enclave.NewSession(encl.PublicKey())
				if err != nil {
					t.Fatal(err)
				}
				sessions[i] = s
			}
		}
		sent := make([][]nn.ParamSet, e)
		for epoch := 0; epoch < e; epoch++ {
			sent[epoch] = perturbed(initial, clients, float64(epoch*1000))
			for i, u := range sent[epoch] {
				if sessions[i] != nil {
					sendSessionTyped(t, tn.tr(), sessions[i], pxEP, fmt.Sprintf("c%d", i), u)
				} else {
					sendTyped(t, tn.tr(), encl, pxEP, fmt.Sprintf("c%d", i), u)
				}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := px.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		waitServerRound(t, agg, e)

		obs.mu.Lock()
		defer obs.mu.Unlock()
		if len(obs.recs) != e {
			t.Fatalf("observer saw %d rounds, want %d", len(obs.recs), e)
		}
		for epoch, rec := range obs.recs {
			want, err := nn.Average(sent[epoch])
			if err != nil {
				t.Fatal(err)
			}
			got, err := nn.Average(rec.Updates)
			if err != nil {
				t.Fatal(err)
			}
			if !got.ApproxEqual(want, 1e-9) {
				t.Fatalf("epoch %d (P=%d C=%d disk=%v): delivered mean != classic mean", epoch, p, clients, !batch)
			}
		}
	})
}
