package proxy

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

var (
	fixOnce sync.Once
	fixPlat *enclave.Platform
	fixEncl *enclave.Enclave
)

// fixtures shares one platform/enclave across tests.
func fixtures(t *testing.T) (*enclave.Platform, *enclave.Enclave) {
	t.Helper()
	fixOnce.Do(func() {
		var err error
		fixPlat, err = enclave.NewPlatform()
		if err != nil {
			t.Fatalf("NewPlatform: %v", err)
		}
		fixEncl, err = enclave.New(enclave.Config{}, fixPlat)
		if err != nil {
			t.Fatalf("New enclave: %v", err)
		}
	})
	return fixPlat, fixEncl
}

func testArch() nn.Arch { return nn.NewMLP("net", 4, []int{6}, 2) }

// flushTier waits until every listed tier has committed and delivered all
// drained rounds. Delivery is asynchronous (outbox + dispatcher), so
// tests flush before asserting on downstream state. Order matters for
// cascades: flush the front tier before the hop it feeds.
func flushTier(t *testing.T, proxies ...interface {
	Flush(context.Context) error
}) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, p := range proxies {
		if err := p.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// newParticipant builds a single-proxy participant session over HTTP.
func newParticipant(t testing.TB, proxyURL, serverURL string) *client.Participant {
	t.Helper()
	p, err := client.New(client.Config{Proxies: []string{proxyURL}, Server: serverURL})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testDeployment is the paper's deployment: an aggregation server behind
// a single-mixer proxy.
func testDeployment(t *testing.T, expect, k int) (*AggServer, *ShardedProxy, string, string) {
	return shardedDeployment(t, expect, k, 1)
}

func TestEndToEndNetworkedRound(t *testing.T) {
	platform, encl := fixtures(t)
	const clients = 5
	agg, px, proxyURL, serverURL := testDeployment(t, clients, 3)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Each participant attests the proxy, fetches the model, perturbs it
	// (standing in for local training) and sends it encrypted.
	updates := make([]nn.ParamSet, clients)
	for i := 0; i < clients; i++ {
		p := newParticipant(t, proxyURL, serverURL)
		if err := p.Attest(ctx, platform.AttestationPublicKey(), encl.Measurement()); err != nil {
			t.Fatalf("participant %d attest: %v", i, err)
		}
		round, model, err := p.FetchModel(ctx)
		if err != nil {
			t.Fatalf("participant %d fetch: %v", i, err)
		}
		if round != 0 {
			t.Fatalf("initial round = %d, want 0", round)
		}
		u := model.Clone()
		u.Layers[0].Tensors[0].AddScalar(float64(i + 1))
		updates[i] = u
		if err := p.SendUpdate(ctx, u); err != nil {
			t.Fatalf("participant %d send: %v", i, err)
		}
	}

	// All updates accepted; once the delivery pipeline drains, the round
	// must have closed.
	flushTier(t, px)
	if agg.Round() != 1 {
		t.Fatalf("server round = %d, want 1", agg.Round())
	}
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("aggregated global != mean of sent updates (equivalence broken over the network)")
	}

	// A participant can observe the new round.
	p := newParticipant(t, proxyURL, serverURL)
	round, _, err := p.WaitForRound(ctx, 1, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if round != 1 {
		t.Fatalf("observed round = %d, want 1", round)
	}
}

func TestProxyStatusCounters(t *testing.T) {
	platform, encl := fixtures(t)
	_, px, proxyURL, serverURL := testDeployment(t, 3, 2)

	arch := testArch()
	ctx := context.Background()
	p := newParticipant(t, proxyURL, serverURL)
	if err := p.Attest(ctx, platform.AttestationPublicKey(), encl.Measurement()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.SendUpdate(ctx, arch.New(int64(i)).SnapshotParams()); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	flushTier(t, px)
	st := px.Status()
	if st.Received != 3 || st.Forwarded != 3 {
		t.Fatalf("received/forwarded = %d/%d, want 3/3", st.Received, st.Forwarded)
	}
	if len(st.Shards) != 1 || st.Shards[0].Buffered != 0 {
		t.Fatalf("shards after round close = %+v, want one with nothing buffered", st.Shards)
	}
	if st.UpdateBytes <= 0 {
		t.Fatal("update size not recorded")
	}
	if st.Shards[0].K != 2 || st.RoundSize != 3 {
		t.Fatalf("k/roundSize = %d/%d, want 2/3", st.Shards[0].K, st.RoundSize)
	}
}

// TestProxyRejectsGarbage: a body that is not a session frame — plain
// garbage, or the retired one-shot hybrid layout (u16 wrapped-key length,
// wrapped key, nonce, GCM payload) — is a 400 over either transport, with
// nothing ingested.
func TestProxyRejectsGarbage(t *testing.T) {
	hybrid := binary.LittleEndian.AppendUint16(nil, 128)
	hybrid = append(hybrid, bytes.Repeat([]byte{0x5a}, 128+12+48)...)
	for _, loop := range []bool{false, true} {
		platform, encl := fixtures(t)
		tn := newTestNet(t, loop)
		px, err := NewSharded(ShardedConfig{Upstream: "http://unused", K: 2, RoundSize: 2, Seed: 3, Transport: tn.cfgTransport()}, encl, platform)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(px.Close)
		ep := tn.serve("loop://garbage", px)
		before := encl.Stats()
		for _, body := range [][]byte{[]byte("not a ciphertext"), hybrid} {
			_, err := tn.tr().SendUpdate(context.Background(), ep, transport.UpdateRequest{Body: body})
			if st := transport.AsStatus(err); st == nil || st.Code != http.StatusBadRequest {
				t.Fatalf("loopback=%v %d-byte body: err = %v, want a 400", loop, len(body), err)
			}
		}
		if px.Status().Received != 0 || encl.Stats() != before {
			t.Fatalf("loopback=%v: refused bodies moved the tier's or the enclave's counters", loop)
		}
	}
}

func TestProxyRejectsStructureChange(t *testing.T) {
	platform, encl := fixtures(t)
	_, _, proxyURL, serverURL := testDeployment(t, 4, 2)
	ctx := context.Background()
	p := newParticipant(t, proxyURL, serverURL)
	if err := p.Attest(ctx, platform.AttestationPublicKey(), encl.Measurement()); err != nil {
		t.Fatal(err)
	}
	if err := p.SendUpdate(ctx, testArch().New(1).SnapshotParams()); err != nil {
		t.Fatal(err)
	}
	// A structurally different model must be rejected by the mixer.
	other := nn.NewMLP("other", 3, []int{2}, 2).New(1).SnapshotParams()
	if err := p.SendUpdate(ctx, other); err == nil {
		t.Fatal("structurally different update accepted")
	}
}

// TestProxyUpstreamFailure pins the BEHAVIOUR CHANGE of the delivery
// pipeline: a downstream outage is no longer the participant's problem.
// The send is accepted, the drained round is committed to the outbox,
// and the dispatcher retries until the downstream recovers.
func TestProxyUpstreamFailure(t *testing.T) {
	platform, encl := fixtures(t)
	// Upstream that always fails.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)

	px, err := NewSharded(ShardedConfig{Upstream: bad.URL, K: 1, RoundSize: 1, Seed: 1}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	p := newParticipant(t, pxSrv.URL, bad.URL)
	if err := p.Attest(context.Background(), platform.AttestationPublicKey(), encl.Measurement()); err != nil {
		t.Fatal(err)
	}
	if err := p.SendUpdate(context.Background(), testArch().New(1).SnapshotParams()); err != nil {
		t.Fatalf("send with dead upstream must be accepted (delivery is async): %v", err)
	}
	st := px.Status()
	if st.OutboxPending != 1 || st.Forwarded != 0 {
		t.Fatalf("outbox_pending/forwarded = %d/%d, want 1/0 (round retained for retry)", st.OutboxPending, st.Forwarded)
	}
}

func TestAttestationEndpointRequiresNonce(t *testing.T) {
	_, _, proxyURL, _ := testDeployment(t, 2, 2)
	resp, err := http.Get(proxyURL + "/v1/attestation")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status without nonce = %d, want 400", resp.StatusCode)
	}
}

func TestParticipantAttestRejectsWrongMeasurement(t *testing.T) {
	platform, _ := fixtures(t)
	_, _, proxyURL, serverURL := testDeployment(t, 2, 2)
	p := newParticipant(t, proxyURL, serverURL)
	var wrong [32]byte
	wrong[0] = 0xFF
	if err := p.Attest(context.Background(), platform.AttestationPublicKey(), wrong); err == nil {
		t.Fatal("attestation with wrong measurement verified")
	}
}

func TestParticipantSendWithoutKey(t *testing.T) {
	p := newParticipant(t, "http://unused", "http://unused")
	if err := p.SendUpdate(context.Background(), testArch().New(1).SnapshotParams()); err == nil {
		t.Fatal("send without pinned key succeeded")
	}
}

func TestAggServerRejectsBadBody(t *testing.T) {
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(agg.Handler())
	t.Cleanup(srv.Close)
	resp, err := http.Post(srv.URL+"/v1/update", wire.ContentTypeUpdate, bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestAggServerStatusEndpoint(t *testing.T) {
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(agg.Handler())
	t.Cleanup(srv.Close)

	raw, err := nn.EncodeParamSet(testArch().New(2).SnapshotParams())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/update", wire.ContentTypeUpdate, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first update status = %d, want 202", resp.StatusCode)
	}

	stResp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer stResp.Body.Close()
	var st wire.ServerStatus
	if err := wire.DecodeJSON(stResp.Body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Round != 0 || st.UpdatesInRound != 1 || st.ExpectPerRound != 3 {
		t.Fatalf("status = %+v", st)
	}
}

// roundObserver records what the adversarial server sees. AggServer
// lends Updates only for the duration of the call (fl.RoundRecord), so
// the record keeps deep copies.
type roundObserver struct {
	mu   sync.Mutex
	recs []fl.RoundRecord
}

func (o *roundObserver) ObserveRound(rec fl.RoundRecord) {
	kept := make([]nn.ParamSet, len(rec.Updates))
	for i, u := range rec.Updates {
		kept[i] = u.Clone()
	}
	rec.Updates = kept
	o.mu.Lock()
	defer o.mu.Unlock()
	o.recs = append(o.recs, rec)
}

func TestAggServerObserverSeesMixedUpdates(t *testing.T) {
	platform, encl := fixtures(t)
	agg, px, proxyURL, serverURL := testDeployment(t, 3, 2)
	obs := &roundObserver{}
	agg.SetObserver(obs)

	ctx := context.Background()
	p := newParticipant(t, proxyURL, serverURL)
	if err := p.Attest(ctx, platform.AttestationPublicKey(), encl.Measurement()); err != nil {
		t.Fatal(err)
	}
	arch := testArch()
	for i := 0; i < 3; i++ {
		if err := p.SendUpdate(ctx, arch.New(int64(10+i)).SnapshotParams()); err != nil {
			t.Fatal(err)
		}
	}
	flushTier(t, px)
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.recs) != 1 {
		t.Fatalf("observer saw %d rounds, want 1", len(obs.recs))
	}
	if len(obs.recs[0].Updates) != 3 {
		t.Fatalf("observer saw %d updates, want 3", len(obs.recs[0].Updates))
	}
}

func TestNewProxyValidation(t *testing.T) {
	platform, encl := fixtures(t)
	tests := []struct {
		name string
		cfg  ShardedConfig
	}{
		{"no upstream", ShardedConfig{RoundSize: 2}},
		{"bad round size", ShardedConfig{Upstream: "http://x", RoundSize: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSharded(tt.cfg, encl, platform); err == nil {
				t.Fatal("no error")
			}
		})
	}
	if _, err := NewSharded(ShardedConfig{Upstream: "http://x", RoundSize: 2}, nil, nil); err == nil {
		t.Fatal("nil enclave accepted")
	}
}
