package proxy

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"time"

	"mixnn/internal/health"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// This file is the sharded proxy's control plane: the admission gate in
// front of participant ingress (token-bucket per sender plus load
// shedding over live tier signals), the /v1/discover advertisement
// participant SDKs bootstrap their failover lists from, the
// /v1/metrics operator registry, and the status, attest and model
// handlers. The data plane is ingress.go, round.go and delivery.go.

// signalCacheTTL bounds how stale the admission gate's Signals snapshot
// may be. Snapshotting per update would put two extra lock domains
// (dispatcher, p.mu) on the ingress hot path; 2ms staleness is
// irrelevant to thresholds that trip on sustained pressure.
const signalCacheTTL = 2 * time.Millisecond

// initControlPlane wires the admission gate and the metrics registry
// with the instruments ingress and the gate record into. Called once from
// NewSharded, before the tier serves.
func (p *ShardedProxy) initControlPlane() {
	p.admission = health.NewAdmission(health.AdmissionConfig{
		RatePerSec:     p.cfg.RatePerSec,
		Burst:          p.cfg.RateBurst,
		ShedQueueDepth: p.cfg.ShedQueueDepth,
	})
	m := health.NewRegistry()
	p.metrics = m
	// Decrypt bounds span session-path GCM (~100µs) through RSA-fallback
	// territory (>5ms); a request's process time adds a whole batch's
	// filing on top. Store and mix are a header check, a payload copy and
	// pointer swaps: micro- not milliseconds.
	latency := []float64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000, 250000}
	stage := []float64{1, 5, 10, 25, 50, 100, 250, 1000, 10000}
	p.decryptUs = m.NewHistogram("mixnn_decrypt_us",
		"Per-update enclave decrypt latency in microseconds (a batch's one decrypt spread over its items).", latency)
	p.storeUs = m.NewHistogram("mixnn_store_us",
		"Per-update store stage in microseconds: layout check plus filing into the shard's lists.", stage)
	p.mixUs = m.NewHistogram("mixnn_mix_us",
		"Per-update mix stage in microseconds: emission assembly plus any epoch swap.", stage)
	p.processUs = m.NewHistogram("mixnn_process_us",
		"Per-request enclave processing time in microseconds.", latency)
	p.rateLimited = m.NewCounter("mixnn_admission_rate_limited_total",
		"Updates refused 429: sender over its token-bucket budget.")
	p.shed = m.NewCounter("mixnn_admission_shed_total",
		"Updates refused 429: tier load-shedding.")
}

// signals returns the admission gate's pressure snapshot, refreshed at
// most every signalCacheTTL. Lock order: sigMu alone, then (on refresh)
// the dispatcher's domain; the decrypt latency is the registry's, so the
// round lock is never taken here, and nothing takes sigMu while holding
// either.
func (p *ShardedProxy) signals() health.Signals {
	p.sigMu.Lock()
	defer p.sigMu.Unlock()
	if time.Since(p.sigAt) < signalCacheTTL {
		return p.sig
	}
	var sig health.Signals
	pending, maxLane := p.dlv.disp.Backlog()
	sig.LaneBacklog = maxLane
	if p.cfg.IngressDepth != nil {
		sig.QueueDepth = p.cfg.IngressDepth()
	} else {
		// No transport-level queue to observe (the HTTP daemon has no
		// bounded ingress queue): the committed-but-undelivered outbox
		// backlog is the tier's real ingress-to-egress queue, so it
		// stands in as the depth signal.
		sig.QueueDepth = pending
	}
	sig.DecryptMicros = p.decryptUs.Mean()
	p.sig, p.sigAt = sig, time.Now()
	return sig
}

// admit runs the admission gate for one participant update. nil means
// admitted; otherwise the typed 429 with the Retry-After hint. Anonymous
// senders (empty ClientID) share one bucket — an unidentified crowd is
// rate-limited as a whole rather than not at all.
func (p *ShardedProxy) admit(sender string) error {
	if !p.admission.Enabled() {
		return nil
	}
	ok, shed, retryAfter := p.admission.Allow(sender, p.signals())
	if ok {
		return nil
	}
	var msg string
	if shed {
		p.shed.Inc()
		msg = "proxy: ingress load-shedding, retry later"
	} else {
		p.rateLimited.Inc()
		msg = fmt.Sprintf("proxy: sender %q over its update rate budget", sender)
	}
	return &transport.StatusError{
		Code:       http.StatusTooManyRequests,
		RetryAfter: retryAfter,
		Msg:        msg,
	}
}

// HandleDiscover implements transport.Server: the control-plane
// advertisement behind /v1/discover. Peers are endpoint strings only —
// a client probes each peer's own Discover for its health, and every
// learned peer still gates on attestation before material flows.
func (p *ShardedProxy) HandleDiscover(ctx context.Context) (wire.DiscoverResponse, error) {
	sig := p.signals()
	return wire.DiscoverResponse{
		Endpoint: p.cfg.Endpoint,
		Peers:    append([]string(nil), p.cfg.Peers...),
		Health:   health.Score(sig, p.admission.Shedding(sig)),
	}, nil
}

// WriteMetrics implements transport.MetricsSource: it renders the
// registry as Prometheus text exposition. The stage histograms and the
// admission and delivery counters are recorded where their events
// happen; what is set here at scrape time is what other owners keep: the
// round ledger (sealed with the tier, under p.mu), the gate's live
// signals, and the outbox lane and enclave session snapshots.
// Counter.Set ignores regressions, so those mirrors stay monotone.
func (p *ShardedProxy) WriteMetrics(w io.Writer) error {
	st := p.Status()
	sig := p.signals()
	shedding := p.admission.Shedding(sig)
	m := p.metrics

	m.NewCounter("mixnn_ingress_updates_total",
		"Participant updates ingested (hop 0).").Set(float64(st.Received))
	m.NewCounter("mixnn_ingress_hops_total",
		"Cascade updates ingested (hop >= 1).").Set(float64(st.HopReceived))
	m.NewCounter("mixnn_rounds_total",
		"Rounds closed and drained.").Set(float64(st.Rounds))
	m.NewGauge("mixnn_in_round",
		"Updates received in the open round.").Set(float64(st.InRound))
	m.NewGauge("mixnn_round_size",
		"Configured round size C.").Set(float64(st.RoundSize))
	m.NewGauge("mixnn_topo_version",
		"Routing-plane topology version.").Set(float64(st.TopoVersion))

	shedV := 0.0
	if shedding {
		shedV = 1
	}
	m.NewGauge("mixnn_admission_shedding",
		"1 while the admission gate refuses all ingress.").Set(shedV)
	m.NewGauge("mixnn_ingress_queue_depth",
		"Live ingress queue depth feeding this proxy.").Set(float64(sig.QueueDepth))
	m.NewGauge("mixnn_health_score",
		"Advertised health score in (0, 1]; higher is healthier.").Set(health.Score(sig, shedding))

	m.NewGauge("mixnn_outbox_pending",
		"Outbox entries committed but not yet acknowledged downstream.").Set(float64(st.OutboxPending))
	m.NewGauge("mixnn_outbox_quarantined",
		"Outbox entries set aside as undeliverable (.bad files).").Set(float64(st.OutboxQuarantined))
	for _, lane := range st.OutboxLanes {
		dest := lane.Dest
		if dest == "" {
			dest = "downstream"
		}
		l := health.Label{Key: "dest", Value: dest}
		m.NewGauge("mixnn_outbox_lane_pending",
			"Entries queued per delivery lane.", l).Set(float64(lane.Pending))
		m.NewGauge("mixnn_outbox_lane_backoff_ms",
			"Per-lane retry backoff in milliseconds (0 = healthy).", l).Set(lane.BackoffMs)
		m.NewCounter("mixnn_outbox_lane_delivered_total",
			"Entries acknowledged per delivery lane.", l).Set(float64(lane.Delivered))
		m.NewCounter("mixnn_outbox_lane_failures_total",
			"Transient delivery failures per lane.", l).Set(float64(lane.Failures))
	}

	m.NewGauge("mixnn_sessions_active",
		"Live crypto sessions in the enclave cache.").Set(float64(st.SessionsActive))
	m.NewCounter("mixnn_sessions_established_total",
		"Crypto sessions established (full RSA wrap).").Set(float64(st.SessionsEstablished))
	m.NewCounter("mixnn_session_hits_total",
		"Decrypts served from a cached session.").Set(float64(st.SessionHits))
	m.NewCounter("mixnn_session_misses_total",
		"Decrypts that missed the session cache.").Set(float64(st.SessionMisses))
	m.NewCounter("mixnn_session_evictions_total",
		"Sessions evicted under cache pressure.").Set(float64(st.SessionEvictions))
	m.NewCounter("mixnn_session_replays_total",
		"Ciphertexts rejected as counter replays.").Set(float64(st.SessionReplays))

	return m.WritePrometheus(w)
}

// HandleAttest serves a signed enclave report bound to the caller's
// nonce so participants (and upstream cascade proxies) can verify this
// enclave before trusting its key. It implements transport.Server.
func (p *ShardedProxy) HandleAttest(ctx context.Context, nonce []byte) (wire.AttestationResponse, error) {
	if len(nonce) == 0 {
		return wire.AttestationResponse{}, transport.Errorf(http.StatusBadRequest, "missing or invalid nonce")
	}
	rep, err := p.platform.Attest(p.enclave, nonce)
	if err != nil {
		return wire.AttestationResponse{}, err
	}
	return wire.AttestationResponse{
		MeasurementHex: hex.EncodeToString(rep.Measurement[:]),
		NonceHex:       hex.EncodeToString(rep.Nonce),
		PubKeyDER:      rep.PubKeyDER,
		Signature:      rep.Signature,
	}, nil
}

// HandleModel implements transport.Server: proxies serve no model.
func (p *ShardedProxy) HandleModel(ctx context.Context) (transport.ModelResponse, error) {
	return transport.ModelResponse{}, transport.ErrNotSupported
}

// HandleStatus implements transport.Server.
func (p *ShardedProxy) HandleStatus(ctx context.Context) (transport.StatusResponse, error) {
	st := p.Status()
	return transport.StatusResponse{Proxy: &st}, nil
}

// Status snapshots the tier: global round progress plus per-shard mixers
// (cumulative across epoch swaps and restores) and the delivery
// pipeline's epoch/backlog. p.mu is held across the whole snapshot (lock
// order p.mu → mixer.mu, as in ingest) so the per-shard counters are
// consistent with the global round state — a concurrent round close
// cannot appear half-applied.
func (p *ShardedProxy) Status() wire.ShardedProxyStatus {
	// Lane stats are snapshotted before p.mu: the dispatcher runs its own
	// lock domain, and holding p.mu across it would nest p.mu outside the
	// delivery locks for no consistency gain. OutboxPending is the SUM of
	// this one snapshot, not a separate p.box.Len() read — two reads at
	// different instants race the dispatcher's acks, and a status poller
	// under load would see a total no set of lanes ever added up to.
	var lanes []wire.OutboxLaneStatus
	pending := 0
	for _, ls := range p.dlv.disp.LaneStats() {
		pending += ls.Pending
		lanes = append(lanes, wire.OutboxLaneStatus{
			Dest:        ls.Lane,
			Pending:     ls.Pending,
			InFlight:    ls.InFlight,
			BackoffMs:   float64(ls.Backoff) / float64(time.Millisecond),
			NextRetryMs: float64(ls.NextRetry) / float64(time.Millisecond),
			Delivered:   ls.Delivered,
			Failures:    ls.Failures,
		})
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	shards := make([]wire.ShardStatus, len(p.shards))
	for s, m := range p.shards {
		spec := p.topo.Spec(s)
		shards[s] = wire.ShardStatus{
			Shard:    s,
			K:        m.K(),
			Buffered: m.Buffered(),
			Received: p.shardRecv[s],
			Emitted:  p.shardEmit[s],
			Quota:    p.topo.Quota(s),
			Load:     p.rst.Load[s],
			Addr:     spec.Addr,
			Weight:   spec.Weight,
		}
	}
	var stagedVer uint64
	if staged := p.planner.Staged(); staged != nil {
		stagedVer = staged.Version()
	}
	st := p.enclave.Stats()
	decryptUs := p.decryptUs.Mean()
	return wire.ShardedProxyStatus{
		Shards:            shards,
		Received:          p.received,
		HopReceived:       p.hopReceived,
		Forwarded:         int(p.dlv.forwarded.Value()),
		Rounds:            p.rounds,
		InRound:           p.inRound,
		RoundSize:         p.topo.RoundSize(),
		Epoch:             p.rounds,
		OutboxPending:     pending,
		OutboxLanes:       lanes,
		BatchesSent:       int(p.dlv.batches.Value()),
		NextHop:           p.cfg.NextHop,
		MaxHops:           p.cfg.MaxHops,
		TopoVersion:       p.topo.Version(),
		RoutingMode:       p.topo.Mode().String(),
		StagedTopoVersion: stagedVer,
		OutboxQuarantined: p.dlv.box.Quarantined(),
		RestoredFrom:      p.restoredFrom,
		UpdateBytes:       p.updateBytes,
		EnclaveUsed:       st.MemoryUsedBytes,
		EnclavePeak:       st.MemoryPeakBytes,
		EnclavePaging:     st.PageEvents,
		DecryptMillis:     decryptUs / 1000,
		DecryptMicros:     decryptUs,
		StoreMillis:       p.storeUs.Mean() / 1000,
		MixMillis:         p.mixUs.Mean() / 1000,
		ProcessMillis:     p.processUs.Mean() / 1000,

		SessionsActive:      st.SessionsActive,
		SessionsEstablished: st.SessionsEstablished,
		SessionHits:         st.SessionHits,
		SessionMisses:       st.SessionMisses,
		SessionEvictions:    st.SessionEvictions,
		SessionReplays:      st.SessionReplays,

		AdmissionRateLimited: uint64(p.rateLimited.Value()),
		AdmissionShed:        uint64(p.shed.Value()),
	}
}
