package experiment

import (
	"bytes"
	"context"
	"crypto/x509"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/fl"
	"mixnn/internal/health"
	"mixnn/internal/nn"
	"mixnn/internal/proxy"
	"mixnn/internal/route"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// LoadgenConfig sizes one whole-deployment load run: a two-front mixing
// tier (hash-quota across a local shard and two relay peers), a cascade
// hop, and an aggregation server, all hosted over one bounded-queue
// Loopback, driven by Participants concurrent SDK sessions through
// Waves rounds of sends with scripted churn.
type LoadgenConfig struct {
	// Participants is the concurrent SDK session count. Must be a
	// multiple of FrontRound (each wave is Participants sends and front
	// rounds must be able to close exactly).
	Participants int
	// FrontRound is the front tier's round size C; must be divisible by
	// 3 (local shard + two relay peers at weight 1 each). The relay and
	// cascade tiers run at quota = FrontRound/3.
	FrontRound int
	// K is the per-shard stream-mixer list capacity.
	K int
	// Waves is how many times every participant sends one update
	// (minimum 3: the run needs a calm phase, a churn phase and a
	// failover phase).
	Waves int
	// QueueDepth and Workers tune the Loopback's per-peer bounded
	// ingress queues (0 = transport defaults). At scale the queue is
	// deliberately smaller than the participant count, so senders feel
	// ErrBusy backpressure and retry.
	QueueDepth int
	Workers    int
	// StragglerFrac and DisconnectFrac pick, per churn wave, the
	// fraction of participants that delay their send and the fraction
	// whose session is torn down and replaced by a fresh one (new
	// client id, lazy re-attestation) before sending.
	StragglerFrac  float64
	DisconnectFrac float64
	Seed           int64
	// Timeout bounds the whole run (0 = 10 minutes).
	Timeout time.Duration
	// MetricsOut, when set, writes the tier's Prometheus text exposition
	// (front-0's /v1/metrics registry plus the harness's loopback-queue
	// instruments) to this file after the run, self-validated with
	// health.ValidateExposition.
	MetricsOut string
}

// LoadgenResult is the measured outcome, serialised by cmd/loadgen -out.
type LoadgenResult struct {
	Bench        string `json:"bench"`
	Participants int    `json:"participants"`
	FrontRound   int    `json:"front_round"`
	Quota        int    `json:"quota"`
	Waves        int    `json:"waves"`
	QueueDepth   int    `json:"queue_depth"`
	Workers      int    `json:"workers"`
	// TotalUpdates counts every acked participant update, fillers
	// included; every one of them is accounted for at the aggregation
	// server (AggRounds * Quota slots observed).
	TotalUpdates int `json:"total_updates"`
	Fillers      int `json:"fillers"`
	AggRounds    int `json:"agg_rounds"`
	// Replaced counts sessions torn down and replaced mid-run;
	// Stragglers counts deliberately delayed sends.
	Replaced       int     `json:"replaced"`
	Stragglers     int     `json:"stragglers"`
	DurationMillis float64 `json:"duration_ms"`
	// PeakLaneDepth is the deepest outbox delivery lane observed on
	// either front (the dead relay's parked backlog, usually).
	PeakLaneDepth int `json:"peak_lane_depth"`
	// PeakIngressQueue is the deepest bounded ingress queue any peer
	// reached; BusyRejections counts sends turned away with ErrBusy;
	// SendRetries counts harness-level retries after every endpoint
	// answered a transient error.
	PeakIngressQueue int    `json:"peak_ingress_queue"`
	BusyRejections   uint64 `json:"busy_rejections"`
	SendRetries      uint64 `json:"send_retries"`
	// ConservationOK reports the zero-loss/zero-duplication check: the
	// layer-wise mean of every slot observed at the aggregation server
	// equals the mean of every acked update at 1e-9.
	ConservationOK bool `json:"conservation_ok"`
	// OverloadSends counts the phase-E sends that deliberately drove
	// front-0 past its per-sender rate budget (all of them acked
	// somewhere — the shed remainder failed over to front-1);
	// RateLimited429 and AdmissionShed are the fronts' admission-gate
	// refusal counters across the run.
	OverloadSends  uint64 `json:"overload_sends"`
	RateLimited429 uint64 `json:"rate_limited_429"`
	AdmissionShed  uint64 `json:"admission_shed"`
}

// loadgenObserver accumulates every update slot the aggregation server
// absorbs.
type loadgenObserver struct {
	mu     sync.Mutex
	sum    nn.ParamSet
	slots  int
	rounds int
}

func (o *loadgenObserver) ObserveRound(rec fl.RoundRecord) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, u := range rec.Updates {
		if o.slots == 0 {
			o.sum = u.Clone()
		} else {
			o.sum.Add(u)
		}
		o.slots++
	}
	o.rounds++
}

func (o *loadgenObserver) snapshot() (nn.ParamSet, int, int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sum, o.slots, o.rounds
}

// loadgenHarness is the assembled deployment plus run-wide accounting.
type loadgenHarness struct {
	cfg      LoadgenConfig
	arch     nn.Arch
	lb       *transport.Loopback
	platform *enclave.Platform
	obs      *loadgenObserver
	agg      *proxy.AggServer

	fronts       [2]*proxy.ShardedProxy
	frontEPs     [2]string
	frontMeasure [32]byte
	relays       [2]*proxy.ShardedProxy
	relayEPs     [2]string
	relaySpecs   [2]wire.TopologyShardSpec
	cascade      *proxy.ShardedProxy
	cascadeEP    string

	parts []*client.Participant

	// expected accumulates the layer-wise sum of every acked update.
	expMu    sync.Mutex
	expSum   nn.ParamSet
	expCount int

	retries    atomic.Uint64
	replaced   atomic.Uint64
	stragglers atomic.Uint64
	overload   atomic.Uint64
	peakLane   atomic.Int64
}

const (
	lgAggEP         = "loop://agg"
	lgCascadeEP     = "loop://cascade"
	lgFrontSecret   = "front-admin-secret"
	lgRelaySecret   = "relay-hop-secret"
	lgCascadeSecret = "cascade-hop-secret"
)

// RunLoadgen stands up the deployment and drives the scripted load:
//
//	phase A (calm):      waves with every component healthy, then a
//	                     quiesced sync_peers directive on front-0;
//	phase B (churn):     relay-b is killed, stragglers delay, sessions
//	                     are torn down and replaced mid-wave, and a
//	                     local reshard directive lands on the loaded
//	                     cascade tier;
//	phase C (failover):  front-0's ingress dies mid-wave — every
//	                     in-flight participant fails over to front-1;
//	phase D (recovery):  the dead relay and front return;
//	phase E (overload):  dedicated senders drive front-0 past its
//	                     per-sender rate budget — the tail of each burst
//	                     is refused with a typed 429 + Retry-After and
//	                     must land on front-1 — then partial front
//	                     rounds are topped off with fillers, everything
//	                     drains, and the zero-loss check runs.
func RunLoadgen(cfg LoadgenConfig) (LoadgenResult, error) {
	if cfg.Participants <= 0 || cfg.FrontRound <= 0 || cfg.FrontRound%3 != 0 {
		return LoadgenResult{}, fmt.Errorf("experiment: loadgen wants FrontRound > 0 and divisible by 3, got %d", cfg.FrontRound)
	}
	if cfg.Participants%cfg.FrontRound != 0 {
		return LoadgenResult{}, fmt.Errorf("experiment: loadgen wants Participants (%d) divisible by FrontRound (%d)", cfg.Participants, cfg.FrontRound)
	}
	if cfg.Waves < 3 {
		return LoadgenResult{}, fmt.Errorf("experiment: loadgen wants at least 3 waves (calm, churn, failover), got %d", cfg.Waves)
	}
	if cfg.K <= 0 {
		cfg.K = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	h := &loadgenHarness{
		cfg:  cfg,
		arch: nn.NewMLP("loadgen", 4, []int{6}, 2),
		obs:  &loadgenObserver{},
	}
	if err := h.deploy(ctx); err != nil {
		return LoadgenResult{}, err
	}
	defer h.lb.Close()
	defer h.cascade.Close()
	defer h.relays[0].Close()
	defer h.relays[1].Close()
	defer h.fronts[0].Close()
	defer h.fronts[1].Close()

	// Background poller: peak outbox lane depth across both fronts.
	pollDone := make(chan struct{})
	pollStop := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-pollStop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			for _, f := range h.fronts {
				for _, ls := range f.Status().OutboxLanes {
					if d := int64(ls.Pending); d > h.peakLane.Load() {
						h.peakLane.Store(d)
					}
				}
			}
		}
	}()

	start := time.Now()
	err := h.run(ctx)
	close(pollStop)
	<-pollDone
	if err != nil {
		return LoadgenResult{}, err
	}
	dur := time.Since(start)

	if cfg.MetricsOut != "" {
		if err := h.dumpMetrics(cfg.MetricsOut); err != nil {
			return LoadgenResult{}, err
		}
	}

	return h.results(dur)
}

// deploy builds agg ← cascade ← {front local lanes, relay-a, relay-b} ←
// {front-0, front-1} ← participants, entirely over one Loopback.
func (h *loadgenHarness) deploy(ctx context.Context) error {
	cfg := h.cfg
	quota := cfg.FrontRound / 3
	h.lb = transport.NewLoopbackWith(transport.LoopbackOptions{QueueDepth: cfg.QueueDepth, Workers: cfg.Workers})
	platform, err := enclave.NewPlatform()
	if err != nil {
		return err
	}
	h.platform = platform
	initial := h.arch.New(cfg.Seed).SnapshotParams()

	agg, err := proxy.NewAggServer(initial, quota)
	if err != nil {
		return err
	}
	agg.SetObserver(h.obs)
	h.agg = agg
	h.lb.Register(lgAggEP, agg)

	mkEnclave := func(identity string) (*enclave.Enclave, error) {
		return enclave.New(enclave.Config{CodeIdentity: identity}, platform)
	}

	// Cascade hop: re-mixes every Q-sized chunk (front local output and
	// each relay's output) across the whole deployment before the agg.
	cascadeEncl, err := mkEnclave("mixnn-loadgen-cascade")
	if err != nil {
		return err
	}
	h.cascade, err = proxy.NewSharded(proxy.ShardedConfig{
		Upstream: lgAggEP, K: cfg.K, RoundSize: quota, Shards: 1,
		HopSecret: lgCascadeSecret, Seed: cfg.Seed + 11, Transport: h.lb,
		RetryBase: 2 * time.Millisecond, RetryMax: 50 * time.Millisecond,
	}, cascadeEncl, platform)
	if err != nil {
		return err
	}
	h.cascadeEP = lgCascadeEP
	h.lb.Register(lgCascadeEP, h.cascade)
	cascadeKey, err := proxy.AttestHopOver(ctx, h.lb, lgCascadeEP, platform.AttestationPublicKey(), cascadeEncl.Measurement())
	if err != nil {
		return err
	}

	// Relay shards: each runs its own round of size quota and forwards
	// to the cascade.
	authorityDER, err := x509.MarshalPKIXPublicKey(platform.AttestationPublicKey())
	if err != nil {
		return err
	}
	relayKeys := [2]*enclave.HopKey{}
	for i := 0; i < 2; i++ {
		encl, err := mkEnclave(fmt.Sprintf("mixnn-loadgen-relay-%d", i))
		if err != nil {
			return err
		}
		h.relays[i], err = proxy.NewSharded(proxy.ShardedConfig{
			Upstream: lgAggEP, NextHop: lgCascadeEP, NextHopKey: cascadeKey, NextHopSecret: lgCascadeSecret,
			HopSecret: lgRelaySecret, K: cfg.K, RoundSize: quota, Shards: 1,
			Seed: cfg.Seed + int64(21+i), Transport: h.lb,
			RetryBase: 2 * time.Millisecond, RetryMax: 50 * time.Millisecond,
		}, encl, platform)
		if err != nil {
			return err
		}
		h.relayEPs[i] = fmt.Sprintf("loop://relay-%d", i)
		h.lb.Register(h.relayEPs[i], h.relays[i])
		if relayKeys[i], err = proxy.AttestHopOver(ctx, h.lb, h.relayEPs[i], platform.AttestationPublicKey(), encl.Measurement()); err != nil {
			return err
		}
		meas := encl.Measurement()
		h.relaySpecs[i] = wire.TopologyShardSpec{
			Addr: h.relayEPs[i], Weight: 1,
			AuthorityPubDER: authorityDER, MeasurementHex: hex.EncodeToString(meas[:]),
			Secret: lgRelaySecret,
		}
	}

	// Two fronts with the SAME code identity: one (authority,
	// measurement) pin covers the participants' whole failover list.
	// Both advertise the pair on /v1/discover (so a seed-only SDK learns
	// the full set) and feed their live loopback queue depth into the
	// admission signals; front-0 additionally runs the per-sender rate
	// limiter that phase E drives past its budget. The burst equals one
	// front round, so ordinary wave traffic and round top-off fillers
	// (at most FrontRound-1 back-to-back sends) never trip it.
	frontEPs := [2]string{"loop://front-0", "loop://front-1"}
	for i := 0; i < 2; i++ {
		encl, err := mkEnclave("mixnn-loadgen-front")
		if err != nil {
			return err
		}
		ep := frontEPs[i]
		fcfg := proxy.ShardedConfig{
			Upstream: lgAggEP, NextHop: lgCascadeEP, NextHopKey: cascadeKey, NextHopSecret: lgCascadeSecret,
			HopSecret:  lgFrontSecret,
			Routing:    route.ModeHashQuota,
			ShardSpecs: []route.ShardSpec{{}, {Addr: h.relayEPs[0]}, {Addr: h.relayEPs[1]}},
			RemoteShards: map[string]proxy.RemoteShard{
				h.relayEPs[0]: {Key: relayKeys[0], Secret: lgRelaySecret},
				h.relayEPs[1]: {Key: relayKeys[1], Secret: lgRelaySecret},
			},
			K: cfg.K, RoundSize: cfg.FrontRound, Seed: cfg.Seed + int64(31+i),
			Transport: h.lb,
			RetryBase: 2 * time.Millisecond, RetryMax: 50 * time.Millisecond,
			DeliveryWorkers: 3,
			Endpoint:        ep,
			Peers:           frontEPs[:],
			IngressDepth:    func() int { return h.lb.QueueDepth(ep) },
		}
		if i == 0 {
			fcfg.RatePerSec = 1
			fcfg.RateBurst = float64(cfg.FrontRound)
		}
		h.fronts[i], err = proxy.NewSharded(fcfg, encl, platform)
		if err != nil {
			return err
		}
		h.frontEPs[i] = ep
		h.lb.Register(ep, h.fronts[i])
		h.frontMeasure = encl.Measurement()
	}

	h.parts = make([]*client.Participant, cfg.Participants)
	for i := range h.parts {
		if h.parts[i], err = h.newSession(fmt.Sprintf("p-%d", i)); err != nil {
			return err
		}
	}
	return nil
}

func (h *loadgenHarness) newSession(clientID string) (*client.Participant, error) {
	return client.New(client.Config{
		Proxies: []string{h.frontEPs[0], h.frontEPs[1]}, Server: lgAggEP,
		Transport: h.lb, ClientID: clientID,
		Authority: h.platform.AttestationPublicKey(), Measurement: h.frontMeasure,
	})
}

// sendWithRetry is the participant's load-shedding loop: ErrBusy (a
// full bounded ingress queue) and ErrUnreachable (a killed front) are
// transient AND provably-not-ingested, so when every endpoint answers
// one the send backs off and retries; anything else surfaces.
func (h *loadgenHarness) sendWithRetry(ctx context.Context, part *client.Participant, ps nn.ParamSet) error {
	backoff := 2 * time.Millisecond
	for {
		err := part.SendUpdate(ctx, ps)
		if err == nil {
			return nil
		}
		if !errors.Is(err, transport.ErrBusy) && !errors.Is(err, transport.ErrUnreachable) {
			return err
		}
		h.retries.Add(1)
		select {
		case <-ctx.Done():
			return fmt.Errorf("experiment: loadgen send gave up retrying: %w", err)
		case <-time.After(backoff):
		}
		if backoff < 64*time.Millisecond {
			backoff *= 2
		}
	}
}

// waveOpts scripts one wave's churn.
type waveOpts struct {
	straggle   []bool          // delay this participant's send
	disconnect []bool          // replace this participant's session first
	delay      []time.Duration // straggler delays
	// hook fires once, the first time acked sends cross threshold.
	threshold int
	hook      func()
}

// runWave generates one update per participant (accumulating the
// expected sum), then sends them all concurrently with the scripted
// churn applied.
func (h *loadgenHarness) runWave(ctx context.Context, wave int, opts waveOpts) error {
	cfg := h.cfg
	updates := make([]nn.ParamSet, cfg.Participants)
	for i := range updates {
		updates[i] = h.arch.New(cfg.Seed + int64((wave+1)*cfg.Participants+i)).SnapshotParams()
	}
	h.accumulateExpected(updates)

	var acked atomic.Int64
	var hookOnce sync.Once
	var wg sync.WaitGroup
	errs := make([]error, cfg.Participants)
	for i := 0; i < cfg.Participants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if opts.disconnect != nil && opts.disconnect[i] {
				// The participant "drops": a fresh session (new pseudonym,
				// no pinned keys, lazy re-attestation) takes its slot.
				fresh, err := h.newSession(fmt.Sprintf("p-%d-w%d", i, wave))
				if err != nil {
					errs[i] = err
					return
				}
				h.parts[i] = fresh
				h.replaced.Add(1)
			}
			if opts.straggle != nil && opts.straggle[i] {
				h.stragglers.Add(1)
				select {
				case <-time.After(opts.delay[i]):
				case <-ctx.Done():
				}
			}
			errs[i] = h.sendWithRetry(ctx, h.parts[i], updates[i])
			if errs[i] != nil {
				return
			}
			if n := acked.Add(1); opts.hook != nil && int(n) >= opts.threshold {
				hookOnce.Do(opts.hook)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("experiment: loadgen wave %d participant %d: %w", wave, i, err)
		}
	}
	return nil
}

func (h *loadgenHarness) accumulateExpected(updates []nn.ParamSet) {
	h.expMu.Lock()
	defer h.expMu.Unlock()
	for _, u := range updates {
		if h.expCount == 0 {
			h.expSum = u.Clone()
		} else {
			h.expSum.Add(u)
		}
		h.expCount++
	}
}

// drainTier polls until every proxy is quiescent (no open round, empty
// outbox) and the aggregation server has closed one round per quota of
// acked updates.
func (h *loadgenHarness) drainTier(ctx context.Context) error {
	quota := h.cfg.FrontRound / 3
	h.expMu.Lock()
	wantRounds := h.expCount / quota
	h.expMu.Unlock()
	proxies := []*proxy.ShardedProxy{h.fronts[0], h.fronts[1], h.relays[0], h.relays[1], h.cascade}
	for {
		idle := true
		for _, p := range proxies {
			st := p.Status()
			if st.InRound != 0 || st.OutboxPending != 0 {
				idle = false
				break
			}
		}
		if idle && h.agg.Round() == wantRounds {
			return nil
		}
		select {
		case <-ctx.Done():
			var depths []string
			for _, p := range proxies {
				st := p.Status()
				depths = append(depths, fmt.Sprintf("in_round=%d pending=%d", st.InRound, st.OutboxPending))
			}
			return fmt.Errorf("experiment: loadgen tier did not drain (agg %d/%d rounds; %v): %w",
				h.agg.Round(), wantRounds, depths, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// topOffFronts closes each front's partial round by sending fillers
// pinned to that front until its InRound returns to zero. Fillers are
// ordinary acked updates and count toward the conservation sums.
func (h *loadgenHarness) topOffFronts(ctx context.Context) (int, error) {
	fillers := 0
	for i, front := range h.fronts {
		need := front.Status().InRound
		if need == 0 {
			continue
		}
		need = h.cfg.FrontRound - need
		filler, err := client.New(client.Config{
			Proxies: []string{h.frontEPs[i]}, Server: lgAggEP,
			Transport: h.lb, ClientID: fmt.Sprintf("filler-%d", i),
			Authority: h.platform.AttestationPublicKey(), Measurement: h.frontMeasure,
		})
		if err != nil {
			return fillers, err
		}
		for j := 0; j < need; j++ {
			u := h.arch.New(h.cfg.Seed + int64(1_000_000+i*h.cfg.FrontRound+j)).SnapshotParams()
			h.accumulateExpected([]nn.ParamSet{u})
			if err := h.sendWithRetry(ctx, filler, u); err != nil {
				return fillers, fmt.Errorf("experiment: loadgen filler %d for front-%d: %w", j, i, err)
			}
			fillers++
		}
	}
	return fillers, nil
}

// dumpMetrics writes the run's operator exposition to path: front-0's
// full /v1/metrics registry (ingress, admission, outbox-lane and
// session-crypto instruments) plus the harness's loopback-queue
// instruments, concatenated as one Prometheus text document and
// re-parsed through health.ValidateExposition before it is written —
// an unparseable dump fails the run, not the scrape that reads it
// later.
func (h *loadgenHarness) dumpMetrics(path string) error {
	var buf bytes.Buffer
	if err := h.fronts[0].WriteMetrics(&buf); err != nil {
		return fmt.Errorf("experiment: loadgen metrics dump: %w", err)
	}
	reg := health.NewRegistry()
	for _, s := range h.lb.Stats() {
		l := health.Label{Key: "peer", Value: s.Endpoint}
		reg.NewGauge("mixnn_loopback_queue_peak",
			"Ingress-queue high watermark per loopback peer.", l).Set(float64(s.Peak))
		reg.NewCounter("mixnn_loopback_handled_total",
			"Data-plane requests executed per loopback peer.", l).Set(float64(s.Handled))
		reg.NewCounter("mixnn_loopback_busy_total",
			"Sends rejected queue-full (ErrBusy) per loopback peer.", l).Set(float64(s.Busy))
	}
	if err := reg.WritePrometheus(&buf); err != nil {
		return fmt.Errorf("experiment: loadgen metrics dump: %w", err)
	}
	if _, err := health.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("experiment: loadgen metrics dump does not parse: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// run executes the phased script. See RunLoadgen's doc comment.
func (h *loadgenHarness) run(ctx context.Context) error {
	cfg := h.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	wavesA := cfg.Waves / 3
	if wavesA == 0 {
		wavesA = 1
	}
	wavesC := 1
	wavesB := cfg.Waves - wavesA - wavesC
	if wavesB < 1 {
		wavesA, wavesB = 1, cfg.Waves-2
	}
	wave := 0

	// Phase A: calm waves, then a sync_peers directive against the
	// quiesced tier — it re-affirms the topology and drives each relay's
	// round size to its quota through the relays' authenticated admin
	// planes, proving the directive path works on the assembled tier.
	for i := 0; i < wavesA; i++ {
		if err := h.runWave(ctx, wave, waveOpts{}); err != nil {
			return err
		}
		wave++
	}
	// Backpressure failover may have split even the calm waves across
	// both fronts, leaving each with a partial round; close them so the
	// tier can actually quiesce for the directive.
	if _, err := h.topOffFronts(ctx); err != nil {
		return err
	}
	if err := h.drainTier(ctx); err != nil {
		return fmt.Errorf("pre-directive drain: %w", err)
	}
	admin := client.NewAdmin(h.lb, h.frontEPs[0], lgFrontSecret)
	if _, err := admin.Stage(ctx, wire.TopologyDirective{
		Mode:      route.ModeHashQuota.String(),
		Shards:    []wire.TopologyShardSpec{{Weight: 1}, h.relaySpecs[0], h.relaySpecs[1]},
		SyncPeers: true,
	}); err != nil {
		return fmt.Errorf("experiment: loadgen sync_peers directive: %w", err)
	}

	// Phase B: relay-1 dies (its front lanes park and retry), stragglers
	// delay, sessions churn, and a local reshard directive lands on the
	// cascade while the pipeline is loaded.
	h.lb.Unregister(h.relayEPs[1])
	cascadeAdmin := client.NewAdmin(h.lb, h.cascadeEP, lgCascadeSecret)
	reshardErr := make(chan error, 1)
	for i := 0; i < wavesB; i++ {
		opts := waveOpts{
			straggle:   make([]bool, cfg.Participants),
			disconnect: make([]bool, cfg.Participants),
			delay:      make([]time.Duration, cfg.Participants),
		}
		for j := 0; j < cfg.Participants; j++ {
			if rng.Float64() < cfg.StragglerFrac {
				opts.straggle[j] = true
				opts.delay[j] = time.Duration(1+rng.Intn(20)) * time.Millisecond
			}
			if rng.Float64() < cfg.DisconnectFrac {
				opts.disconnect[j] = true
			}
		}
		if i == 0 {
			// Mid-wave, under load: split the cascade into two local
			// shards. The directive stages now and applies at the
			// cascade's next round close.
			opts.threshold = cfg.Participants / 3
			opts.hook = func() {
				_, err := cascadeAdmin.Stage(ctx, wire.TopologyDirective{
					Shards: []wire.TopologyShardSpec{{Weight: 1}, {Weight: 1}},
				})
				reshardErr <- err
			}
		}
		if err := h.runWave(ctx, wave, opts); err != nil {
			return err
		}
		wave++
	}
	select {
	case err := <-reshardErr:
		if err != nil {
			return fmt.Errorf("experiment: loadgen cascade reshard under load: %w", err)
		}
	default:
		return fmt.Errorf("experiment: loadgen cascade reshard hook never fired")
	}

	// Phase C: the primary front's ingress dies mid-wave. In-flight
	// sends that were still queued fail as provably-not-ingested and the
	// SDK storms over to front-1 (single-flighted lazy attestation);
	// front-0's outbox keeps draining its already-closed rounds.
	if err := h.runWave(ctx, wave, waveOpts{
		threshold: cfg.Participants / 3,
		hook:      func() { h.lb.Unregister(h.frontEPs[0]) },
	}); err != nil {
		return err
	}
	wave++

	// Phase D: recovery. The dead relay and front return, each front's
	// partial round is topped off, and everything must drain to zero.
	h.lb.Register(h.relayEPs[1], h.relays[1])
	h.lb.Register(h.frontEPs[0], h.fronts[0])

	// Phase E: overload. Dedicated senders drive front-0 past its
	// per-sender rate budget; the refused remainder must land on
	// front-1, nothing may be lost or quarantined.
	if err := h.overloadPhase(ctx); err != nil {
		return err
	}

	if _, err := h.topOffFronts(ctx); err != nil {
		return err
	}
	if err := h.drainTier(ctx); err != nil {
		return fmt.Errorf("final drain: %w", err)
	}
	return nil
}

// overloadPhase drives front-0's admission gate past its budget: each
// overload sender fires one front round's worth of sends (the exact
// burst) plus a few more, back to back. The bucket refills at 1
// token/sec and the burst completes in well under a second, so the
// tail provably meets an empty bucket: front-0 answers the typed 429 +
// Retry-After, the SDK's walk fails over, and front-1 (no limiter)
// accepts. Every overload update is accumulated into the expected sum,
// so the final conservation check proves the shed sends were neither
// lost nor double-ingested across the failover.
func (h *loadgenHarness) overloadPhase(ctx context.Context) error {
	const overloadSenders = 3
	sends := h.cfg.FrontRound + 4
	before := h.fronts[0].Status().AdmissionRateLimited
	var wg sync.WaitGroup
	errs := make([]error, overloadSenders)
	for s := 0; s < overloadSenders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			part, err := h.newSession(fmt.Sprintf("overload-%d", s))
			if err != nil {
				errs[s] = err
				return
			}
			for j := 0; j < sends; j++ {
				u := h.arch.New(h.cfg.Seed + int64(2_000_000+s*sends+j)).SnapshotParams()
				h.accumulateExpected([]nn.ParamSet{u})
				if err := h.sendWithRetry(ctx, part, u); err != nil {
					errs[s] = fmt.Errorf("send %d: %w", j, err)
					return
				}
				h.overload.Add(1)
			}
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("experiment: loadgen overload sender %d: %w", s, err)
		}
	}
	limited := h.fronts[0].Status().AdmissionRateLimited - before
	if limited == 0 {
		return fmt.Errorf("experiment: loadgen overload: front-0 never answered 429 (%d senders x %d sends against burst %d)",
			overloadSenders, sends, h.cfg.FrontRound)
	}
	return nil
}

func (h *loadgenHarness) results(dur time.Duration) (LoadgenResult, error) {
	quota := h.cfg.FrontRound / 3
	obsSum, slots, rounds := h.obs.snapshot()
	h.expMu.Lock()
	expSum, expCount := h.expSum, h.expCount
	h.expMu.Unlock()

	// Zero loss, zero duplication: every acked update (fillers included)
	// is accounted for at the aggregation server, and the layer-wise
	// means agree at 1e-9 — mixing permutes layers across participants
	// but conserves sums at every hop.
	if slots != expCount {
		return LoadgenResult{}, fmt.Errorf("experiment: loadgen conservation: agg observed %d update slots, %d were acked", slots, expCount)
	}
	conserved := expSum.Clone().Scale(1/float64(expCount)).ApproxEqual(obsSum.Clone().Scale(1/float64(slots)), 1e-9)
	if !conserved {
		return LoadgenResult{}, fmt.Errorf("experiment: loadgen conservation: layer-wise mean of %d observed slots diverged from the acked mean", slots)
	}

	var peakQueue int
	var busy uint64
	for _, s := range h.lb.Stats() {
		if s.Peak > peakQueue {
			peakQueue = s.Peak
		}
		busy += s.Busy
	}
	var rateLimited, shed uint64
	for _, f := range h.fronts {
		st := f.Status()
		rateLimited += st.AdmissionRateLimited
		shed += st.AdmissionShed
		if st.OutboxQuarantined != 0 {
			return LoadgenResult{}, fmt.Errorf("experiment: loadgen front quarantined %d outbox entries; overload shedding must never poison delivery", st.OutboxQuarantined)
		}
	}
	fillers := expCount - h.cfg.Participants*h.cfg.Waves - int(h.overload.Load())
	return LoadgenResult{
		Bench:            "loadgen",
		Participants:     h.cfg.Participants,
		FrontRound:       h.cfg.FrontRound,
		Quota:            quota,
		Waves:            h.cfg.Waves,
		QueueDepth:       h.cfg.QueueDepth,
		Workers:          h.cfg.Workers,
		TotalUpdates:     expCount,
		Fillers:          fillers,
		AggRounds:        rounds,
		Replaced:         int(h.replaced.Load()),
		Stragglers:       int(h.stragglers.Load()),
		DurationMillis:   dur.Seconds() * 1000,
		PeakLaneDepth:    int(h.peakLane.Load()),
		PeakIngressQueue: peakQueue,
		BusyRejections:   busy,
		SendRetries:      h.retries.Load(),
		ConservationOK:   conserved,
		OverloadSends:    h.overload.Load(),
		RateLimited429:   rateLimited,
		AdmissionShed:    shed,
	}, nil
}
