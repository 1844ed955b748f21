package proxy

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/transport"
)

// TestCascadeEndToEnd is the full-topology integration test: participants
// → sharded front proxy → cascade hop proxy → aggregation server, all over
// the real wire protocol. The front tier mixes within 2 shards and
// re-encrypts its output for the hop enclave; the hop tier re-mixes across
// the whole round and forwards plaintext upstream. The round must close
// and the global model must equal what classic FL computes from the same
// updates.
func TestCascadeEndToEnd(t *testing.T) {
	platform, frontEncl := fixtures(t)
	hopEncl, err := enclave.New(enclave.Config{CodeIdentity: "mixnn-proxy-hop"}, platform)
	if err != nil {
		t.Fatal(err)
	}

	const clients, shards = 6, 2
	initial := testArch().New(1).SnapshotParams()

	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)

	// Hop tier: receives the front tier's C mixed updates per round,
	// re-mixes them in a single shard and forwards plaintext upstream.
	hopPx, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 3, RoundSize: clients, Seed: 7,
		HopSecret: "inter-proxy-secret",
	}, hopEncl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hopPx.Close)
	hopSrv := httptest.NewServer(hopPx.Handler())
	t.Cleanup(hopSrv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Front tier pins the hop enclave via the real attestation handshake.
	hopKey, err := AttestHopOver(ctx, transport.NewHTTP(nil), hopSrv.URL, platform.AttestationPublicKey(), hopEncl.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	frontPx, err := NewSharded(ShardedConfig{
		NextHop: hopSrv.URL, NextHopKey: hopKey, NextHopSecret: "inter-proxy-secret",
		K: 2, RoundSize: clients, Shards: shards, Seed: 8,
	}, frontEncl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(frontPx.Close)
	frontSrv := httptest.NewServer(frontPx.Handler())
	t.Cleanup(frontSrv.Close)

	// Participants attest the front proxy, perturb the model (standing in
	// for local training) and send concurrently.
	updates := make([]nn.ParamSet, clients)
	for i := range updates {
		u := initial.Clone()
		u.Layers[0].Tensors[0].Apply(func(v float64) float64 { return v + float64(i+1) })
		u.Layers[len(u.Layers)-1].Tensors[0].Apply(func(v float64) float64 { return v + -float64(i+1) })
		updates[i] = u
	}
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := newParticipant(t, frontSrv.URL, aggSrv.URL)
			if err := p.Attest(ctx, platform.AttestationPublicKey(), frontEncl.Measurement()); err != nil {
				errc <- err
				return
			}
			if err := p.SendUpdate(ctx, updates[i]); err != nil {
				errc <- err
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Both mixing rounds and the aggregation round must have closed once
	// the two delivery pipelines drain (front before the hop it feeds).
	flushTier(t, frontPx, hopPx)
	if agg.Round() != 1 {
		t.Fatalf("server round = %d, want 1", agg.Round())
	}
	frontSt, hopSt := frontPx.Status(), hopPx.Status()
	if frontSt.Received != clients || frontSt.Forwarded != clients || frontSt.Rounds != 1 {
		t.Fatalf("front status = %+v", frontSt)
	}
	if frontSt.BatchesSent != 1 {
		t.Fatalf("front sent %d batches, want 1 (the round coalesced into one /v1/batch)", frontSt.BatchesSent)
	}
	if hopSt.HopReceived != clients || hopSt.Received != 0 || hopSt.Forwarded != clients || hopSt.Rounds != 1 {
		t.Fatalf("hop status = %+v", hopSt)
	}
	for _, sh := range frontSt.Shards {
		if sh.Buffered != 0 {
			t.Fatalf("front shard %d still buffers %d after round close", sh.Shard, sh.Buffered)
		}
	}

	// Global-model equality with classic FL: an unprotected server
	// aggregating the raw updates must produce the same global model as
	// the cascade produced from the mixed ones.
	classic := fl.NewServer(initial)
	if err := classic.Aggregate(updates); err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(classic.Global(), 1e-9) {
		t.Fatal("cascaded sharded mixing broke equality with classic FL aggregation")
	}
}

// TestCascadeRejectsUnattestedHopTraffic: ciphertext encrypted for the
// WRONG enclave (the front one) must be rejected by the hop tier —
// cascade security rests on per-hop keys.
func TestCascadeRejectsUnattestedHopTraffic(t *testing.T) {
	platform, frontEncl := fixtures(t)
	hopEncl, err := enclave.New(enclave.Config{CodeIdentity: "mixnn-proxy-hop-2"}, platform)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)
	hopPx, err := NewSharded(ShardedConfig{Upstream: aggSrv.URL, RoundSize: 2, Seed: 9}, hopEncl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hopPx.Close)
	hopSrv := httptest.NewServer(hopPx.Handler())
	t.Cleanup(hopSrv.Close)

	resp := sendRaw(t, frontEncl, hopSrv.URL, "", testArch().New(2).SnapshotParams())
	resp.Body.Close()
	if resp.StatusCode == 202 {
		t.Fatal("hop tier accepted ciphertext for a different enclave")
	}
}

// TestHopSecretGatesHopEndpoint: with a HopSecret configured, /v1/hop
// rejects requests without the inter-proxy bearer token — an outsider
// holding the (public) enclave key must not be able to poison the round's
// hop watermark.
func TestHopSecretGatesHopEndpoint(t *testing.T) {
	platform, encl := fixtures(t)
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)
	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, RoundSize: 2, Seed: 11, HopSecret: "s3cret",
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	raw, err := nn.EncodeParamSet(testArch().New(5).SnapshotParams())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := enclave.Encrypt(encl.PublicKey(), raw)
	if err != nil {
		t.Fatal(err)
	}
	post := func(auth string) int {
		req, err := http.NewRequest(http.MethodPost, pxSrv.URL+"/v1/hop", bytes.NewReader(ct))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(""); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated hop returned %d, want 401", code)
	}
	if code := post("Bearer wrong"); code != http.StatusUnauthorized {
		t.Fatalf("wrong-secret hop returned %d, want 401", code)
	}
	if code := post("Bearer s3cret"); code != http.StatusAccepted {
		t.Fatalf("authorized hop returned %d, want 202", code)
	}
	if st := px.Status(); st.HopReceived != 1 {
		t.Fatalf("hop_received = %d, want 1 (only the authorized request)", st.HopReceived)
	}
}
