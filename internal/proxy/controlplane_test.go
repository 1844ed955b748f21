package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/health"
	"mixnn/internal/transport"
)

// admissionDeployment stands up a front proxy with the admission gate
// configured, over httptest.
func admissionDeployment(t *testing.T, cfg ShardedConfig) (*ShardedProxy, string) {
	t.Helper()
	platform, encl := fixtures(t)
	agg, err := NewAggServer(testArch().New(1).SnapshotParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)
	cfg.Upstream = aggSrv.URL
	if cfg.RoundSize == 0 {
		cfg.RoundSize = 4
	}
	if cfg.K == 0 {
		cfg.K = 2
	}
	px, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)
	return px, pxSrv.URL
}

// TestAdmissionRateLimitPerSender: a sender over its token budget gets
// the typed 429 with a Retry-After hint, while OTHER senders stay
// admitted — the bucket is per-sender, not per-tier.
func TestAdmissionRateLimitPerSender(t *testing.T) {
	_, encl := fixtures(t)
	px, proxyURL := admissionDeployment(t, ShardedConfig{
		Seed: 7, RatePerSec: 0.001, RateBurst: 1,
	})
	ps := testArch().New(2).SnapshotParams()

	resp := sendRaw(t, encl, proxyURL, "heavy", ps)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first send within burst: got %d, want 202", resp.StatusCode)
	}
	resp = sendRaw(t, encl, proxyURL, "heavy", ps)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second send over budget: got %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("429 must carry an integer Retry-After >= 1s, got %q", resp.Header.Get("Retry-After"))
	}
	// A different sender has its own bucket and is admitted.
	resp = sendRaw(t, encl, proxyURL, "light", ps)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other sender: got %d, want 202 (buckets are per-sender)", resp.StatusCode)
	}
	st := px.Status()
	if st.AdmissionRateLimited != 1 || st.AdmissionShed != 0 {
		t.Fatalf("status counters: rate_limited=%d shed=%d, want 1/0", st.AdmissionRateLimited, st.AdmissionShed)
	}
	if st.Received != 2 {
		t.Fatalf("ingested %d, want 2 — the refused update must not be counted", st.Received)
	}
}

// TestAdmissionShedGate: ingress pressure over the configured depth
// sheds EVERY participant update with 429 until the pressure clears.
func TestAdmissionShedGate(t *testing.T) {
	_, encl := fixtures(t)
	var depth atomic.Int64
	px, proxyURL := admissionDeployment(t, ShardedConfig{
		Seed: 7, ShedQueueDepth: 4,
		IngressDepth: func() int { return int(depth.Load()) },
	})
	ps := testArch().New(2).SnapshotParams()

	depth.Store(10)
	resp := sendRaw(t, encl, proxyURL, "c0", ps)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("under pressure: got %d, want 429", resp.StatusCode)
	}
	// The signals snapshot is cached for signalCacheTTL; wait it out
	// before flipping the pressure off.
	depth.Store(0)
	time.Sleep(3 * signalCacheTTL)
	resp = sendRaw(t, encl, proxyURL, "c0", ps)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pressure cleared: got %d, want 202", resp.StatusCode)
	}
	if st := px.Status(); st.AdmissionShed != 1 {
		t.Fatalf("AdmissionShed=%d, want 1", st.AdmissionShed)
	}
}

// TestMetricsEndpoint: /v1/metrics serves valid Prometheus text
// exposition covering the core instrument families, and the admission
// counters move with the gate.
func TestMetricsEndpoint(t *testing.T) {
	_, encl := fixtures(t)
	px, proxyURL := admissionDeployment(t, ShardedConfig{Seed: 7})
	ps := testArch().New(2).SnapshotParams()
	// A full round: the close drains through the outbox, so the
	// per-lane instruments exist by the time we scrape.
	for i := 0; i < 4; i++ {
		resp := sendRaw(t, encl, proxyURL, "c"+strconv.Itoa(i), ps)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send %d: got %d, want 202", i, resp.StatusCode)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := px.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(proxyURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: got %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q, want text/plain exposition", ct)
	}
	families, err := health.ValidateExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	have := make(map[string]bool, len(families))
	for _, f := range families {
		have[f] = true
	}
	for _, want := range []string{
		"mixnn_ingress_updates_total",
		"mixnn_admission_rate_limited_total",
		"mixnn_admission_shed_total",
		"mixnn_outbox_pending",
		"mixnn_outbox_lane_pending",
		"mixnn_session_hits_total",
		"mixnn_decrypt_us",
		"mixnn_health_score",
	} {
		if !have[want] {
			t.Errorf("core instrument family %s missing from exposition (got %v)", want, families)
		}
	}
}

// TestStageInstrumentsCountFiledUpdates: on a hop tier fed multi-item
// /v1/batch requests (and one participant update), every stage
// histogram is observed once per filed update — a batch's one decrypt
// spread over its items — and the process histogram once per request,
// and /v1/status's stage means are those histograms' _sum over _count.
func TestStageInstrumentsCountFiledUpdates(t *testing.T) {
	platform, encl := fixtures(t)
	lb := transport.NewLoopback()
	t.Cleanup(lb.Close)
	lb.Register("loop://sink", &batchSink{})
	hop, err := NewSharded(ShardedConfig{
		Upstream: "loop://sink", K: 2, RoundSize: 8, Seed: 31, Transport: lb,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hop.Close)
	sess, err := enclave.NewSession(encl.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	wrap := func(plain []byte) []byte {
		ct, err := sess.Wrap(plain)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	const batches, perBatch = 3, 4
	items := encodeUpdates(t, perturbed(testArch().New(1).SnapshotParams(), batches*perBatch+1, 31))
	ctx := context.Background()
	for b := 0; b < batches; b++ {
		body := wrap(batchBody(t, items[b*perBatch:(b+1)*perBatch]...))
		if _, err := hop.HandleBatch(ctx, transport.BatchRequest{Body: body, Hop: 1}); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	if _, err := hop.HandleUpdate(ctx, transport.UpdateRequest{Body: wrap(items[batches*perBatch]), ClientID: "p"}); err != nil {
		t.Fatal(err)
	}
	const requests = batches + 1

	var buf bytes.Buffer
	if err := hop.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		series[name] = f
	}
	st := hop.Status()
	filed := st.Received + st.HopReceived
	if filed != batches*perBatch+1 {
		t.Fatalf("tier filed %d updates, want %d", filed, batches*perBatch+1)
	}
	for _, stage := range []struct {
		name string
		mean float64 // µs, as /v1/status reports it
	}{
		{"mixnn_decrypt_us", st.DecryptMicros},
		{"mixnn_decrypt_us", st.DecryptMillis * 1000},
		{"mixnn_store_us", st.StoreMillis * 1000},
		{"mixnn_mix_us", st.MixMillis * 1000},
	} {
		n, sum := series[stage.name+"_count"], series[stage.name+"_sum"]
		if n != float64(filed) {
			t.Fatalf("%s_count = %v, want %d (Received + HopReceived)", stage.name, n, filed)
		}
		if want := sum / n; math.Abs(stage.mean-want) > 1e-9*math.Abs(want) {
			t.Fatalf("status mean of %s = %v µs, the histogram's _sum/_count = %v", stage.name, stage.mean, want)
		}
	}
	if n := series["mixnn_process_us_count"]; n != requests {
		t.Fatalf("mixnn_process_us_count = %v, want %d (one per request)", n, requests)
	}
	if want := series["mixnn_process_us_sum"] / requests; math.Abs(st.ProcessMillis*1000-want) > 1e-9*want {
		t.Fatalf("process_ms_mean = %v ms, the histogram's mean = %v µs", st.ProcessMillis, want)
	}
}

// TestControlPlaneNeverTakesRoundLock pins the admission gate's and
// discovery's lock domain: with the round lock (px.mu) held by the test
// and the signal snapshot expired, a discovery call and a participant
// update the shed gate refuses must both refresh the signals and return.
// A refresh that read anything under px.mu would sit behind the test
// until the deadline.
func TestControlPlaneNeverTakesRoundLock(t *testing.T) {
	px, _ := admissionDeployment(t, ShardedConfig{
		Seed: 7, ShedQueueDepth: 1, IngressDepth: func() int { return 1 },
	})
	ctx := context.Background()
	calls := []struct {
		name string
		call func() error
	}{
		{"HandleDiscover", func() error {
			dr, err := px.HandleDiscover(ctx)
			if err == nil && dr.Health > 0.1 {
				err = fmt.Errorf("health %v outside the shedding band", dr.Health)
			}
			return err
		}},
		{"HandleUpdate", func() error {
			_, err := px.HandleUpdate(ctx, transport.UpdateRequest{Body: []byte("never decrypted"), ClientID: "c0"})
			if se := transport.AsStatus(err); se == nil || se.Code != http.StatusTooManyRequests {
				return fmt.Errorf("want the shed gate's 429, got %v", err)
			}
			return nil
		}},
	}
	px.mu.Lock()
	defer px.mu.Unlock()
	for _, c := range calls {
		px.sigMu.Lock()
		px.sigAt = time.Time{} // expired: this call refreshes the snapshot
		px.sigMu.Unlock()
		done := make(chan error, 1)
		go func() { done <- c.call() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return while the round lock was held", c.name)
		}
	}
}

// TestHandleDiscover: the advertisement names the proxy's endpoint and
// peers and carries a health score in (0, 1] — and nothing else: the
// unauthenticated endpoint exports no round fill, shard map or epoch.
func TestHandleDiscover(t *testing.T) {
	px, _ := admissionDeployment(t, ShardedConfig{
		Seed: 7, Shards: 2,
		Endpoint: "http://front-0", Peers: []string{"http://front-0", "http://front-1"},
	})
	dr, err := px.HandleDiscover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if dr.Endpoint != "http://front-0" {
		t.Fatalf("Endpoint %q, want the configured one", dr.Endpoint)
	}
	if len(dr.Peers) != 2 || dr.Peers[1] != "http://front-1" {
		t.Fatalf("Peers %v, want the configured peer list", dr.Peers)
	}
	if dr.Health <= 0.1 || dr.Health > 1 {
		t.Fatalf("idle health %v, want in the non-shedding band (0.1, 1]", dr.Health)
	}
	raw, err := json.Marshal(dr)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 {
		t.Fatalf("/v1/discover exports %d fields (%s), want endpoint, peers and health only", len(keys), raw)
	}
}
