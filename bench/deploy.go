package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/nn"
	"mixnn/internal/proxy"
	"mixnn/internal/route"
	"mixnn/internal/transport"
)

// rsaBits sizes the enclave keys: 0 is the production 2048. Only the
// smoke test lowers it.
var rsaBits = 0

const (
	frontSecret   = "front-admin-secret"
	relaySecret   = "relay-hop-secret"
	cascadeSecret = "cascade-hop-secret"
)

// tier is one assembled deployment: aggregator, mixing proxies and the
// established SDK sessions, hosted in this process over one transport.
type tier struct {
	w    *workload
	arch nn.Arch
	tr   *tracer // nil when the deployment is not decorated

	lb       *transport.Loopback // nil over HTTP
	clientTr transport.Transport
	platform *enclave.Platform
	measure  [32]byte

	agg   *proxy.AggServer
	aggEP string
	obs   *observer

	fronts    []*proxy.ShardedProxy
	frontEPs  []string
	frontSrvs []transport.Server    // as registered (decorated when tracing)
	inner     []*proxy.ShardedProxy // relays and the cascade hop

	parts []*client.Participant
	stops []func() // run in reverse by close

	// keygen is the time spent inside enclave.New: RSA key generation,
	// which set-up time leaves out (see setUp).
	keygen time.Duration
}

// deploy stands the workload's tier up: keys, attestation, proxies,
// aggregator and SDK sessions. Nothing has been sent yet.
func deploy(ctx context.Context, w *workload, seed int64, tr *tracer) (t *tier, err error) {
	t = &tier{w: w, arch: modelArch(w.Model), tr: tr, obs: newObserver()}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if !w.HTTP {
		t.lb = transport.NewLoopbackWith(transport.LoopbackOptions{QueueDepth: w.QueueDepth, Workers: w.Workers})
		t.stops = append(t.stops, t.lb.Close)
	}
	t.clientTr = t.outbound("client")
	if t.platform, err = enclave.NewPlatform(); err != nil {
		return t, err
	}

	t.agg, err = proxy.NewAggServer(t.arch.New(seed).SnapshotParams(), w.aggRound())
	if err != nil {
		return t, err
	}
	t.agg.SetObserver(t.obs)
	if t.aggEP, err = t.host("agg", t.tr.wrapServer(t.agg, "agg", false, 0)); err != nil {
		return t, err
	}

	base := proxy.ShardedConfig{
		Upstream: t.aggEP, K: w.K,
		RetryBase: 2 * time.Millisecond, RetryMax: 50 * time.Millisecond,
	}
	if w.Cascade {
		if err = t.deployCascade(ctx, base, seed); err != nil {
			return t, err
		}
	} else {
		for i := 0; i < w.Fronts; i++ {
			cfg := base
			cfg.RoundSize, cfg.Shards, cfg.Seed = w.Round, w.LocalShards, seed+int64(31+i)
			if _, err = t.addProxy(fmt.Sprintf("front-%d", i), "mixnn-bench-front", cfg, true); err != nil {
				return t, err
			}
		}
	}

	// A seeded half of the sessions lists each front first, so
	// closed-loop load spreads over a multi-front tier; the burst
	// workload instead gives every session the same order, so front-0
	// overflows.
	t.parts = make([]*client.Participant, w.Sessions)
	for i, s := range rand.New(rand.NewSource(seed)).Perm(w.Sessions) {
		order := append([]string(nil), t.frontEPs...)
		if w.Load != burstLoop && i%2 == 1 && len(order) == 2 {
			order[0], order[1] = order[1], order[0]
		}
		if t.parts[s], err = t.newSession(fmt.Sprintf("p-%d", s), order); err != nil {
			return t, err
		}
	}
	return t, nil
}

// deployCascade builds cmd/loadgen's topology without its faults:
// agg <- cascade <- {front local lanes, relay-0, relay-1} <- fronts.
func (t *tier) deployCascade(ctx context.Context, base proxy.ShardedConfig, seed int64) error {
	quota := t.w.aggRound()
	authority := t.platform.AttestationPublicKey()

	cfg := base
	cfg.RoundSize, cfg.Shards, cfg.HopSecret, cfg.Seed = quota, 1, cascadeSecret, seed+11
	cascade, err := t.addProxy("cascade", "mixnn-bench-cascade", cfg, false)
	if err != nil {
		return err
	}
	cascadeKey, err := proxy.AttestHopOver(ctx, t.clientTr, cascade.ep, authority, cascade.measure)
	if err != nil {
		return err
	}

	base.NextHop, base.NextHopKey, base.NextHopSecret = cascade.ep, cascadeKey, cascadeSecret
	specs := []route.ShardSpec{{}}
	remotes := map[string]proxy.RemoteShard{}
	for i := 0; i < 2; i++ {
		cfg := base
		cfg.RoundSize, cfg.Shards, cfg.HopSecret, cfg.Seed = quota, 1, relaySecret, seed+int64(21+i)
		relay, err := t.addProxy(fmt.Sprintf("relay-%d", i), fmt.Sprintf("mixnn-bench-relay-%d", i), cfg, false)
		if err != nil {
			return err
		}
		key, err := proxy.AttestHopOver(ctx, t.clientTr, relay.ep, authority, relay.measure)
		if err != nil {
			return err
		}
		specs = append(specs, route.ShardSpec{Addr: relay.ep})
		remotes[relay.ep] = proxy.RemoteShard{Key: key, Secret: relaySecret}
	}

	for i := 0; i < t.w.Fronts; i++ {
		cfg := base
		cfg.HopSecret, cfg.Routing, cfg.ShardSpecs, cfg.RemoteShards = frontSecret, route.ModeHashQuota, specs, remotes
		cfg.RoundSize, cfg.Seed, cfg.DeliveryWorkers = t.w.Round, seed+int64(31+i), 3
		if _, err := t.addProxy(fmt.Sprintf("front-%d", i), "mixnn-bench-front", cfg, true); err != nil {
			return err
		}
	}
	return nil
}

type hosted struct {
	ep      string
	measure [32]byte
}

// addProxy creates one mixing proxy in its own enclave and hosts it
// under name. Fronts share one code identity, so a single
// (authority, measurement) pin covers a session's whole failover list.
func (t *tier) addProxy(name, identity string, cfg proxy.ShardedConfig, front bool) (hosted, error) {
	t0 := time.Now()
	encl, err := enclave.New(enclave.Config{CodeIdentity: identity, RSABits: rsaBits}, t.platform)
	t.keygen += time.Since(t0)
	if err != nil {
		return hosted{}, err
	}
	cfg.Transport = t.outbound(name)
	if front && t.lb != nil {
		ep := "loop://" + name
		cfg.Endpoint = ep
		cfg.IngressDepth = func() int { return t.lb.QueueDepth(ep) }
	}
	p, err := proxy.NewSharded(cfg, encl, t.platform)
	if err != nil {
		return hosted{}, err
	}
	t.stops = append(t.stops, p.Close)
	// Round closes are only marked where a round is one outbox entry;
	// a front relaying to remote shards commits one per destination.
	closeEvery := cfg.RoundSize
	if len(cfg.ShardSpecs) > 0 {
		closeEvery = 0
	}
	srv := t.tr.wrapServer(p, name, front, closeEvery)
	ep, err := t.host(name, srv)
	if err != nil {
		return hosted{}, err
	}
	if front {
		t.fronts = append(t.fronts, p)
		t.frontEPs = append(t.frontEPs, ep)
		t.frontSrvs = append(t.frontSrvs, srv)
		t.measure = encl.Measurement()
	} else {
		t.inner = append(t.inner, p)
	}
	return hosted{ep: ep, measure: encl.Measurement()}, nil
}

// host serves srv under name: a Loopback registration, or an
// http.Server on 127.0.0.1 with transport.NewHandler in front.
func (t *tier) host(name string, srv transport.Server) (string, error) {
	if t.lb != nil {
		ep := "loop://" + name
		t.lb.Register(ep, srv)
		return ep, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: transport.NewHandler(srv)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	t.stops = append(t.stops, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // the goroutine gate reports what a failed shutdown leaves
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// outbound is the transport one party sends through: the shared
// Loopback, or its own HTTP client holding at most nproc connections
// per peer. Decorated when the deployment is traced.
func (t *tier) outbound(role string) transport.Transport {
	var tr transport.Transport = t.lb
	if t.lb == nil {
		n := runtime.NumCPU()
		ht := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
		t.stops = append(t.stops, ht.CloseIdleConnections)
		tr = transport.NewHTTP(&http.Client{Transport: ht, Timeout: 60 * time.Second})
	}
	return t.tr.wrapTransport(tr, role)
}

func (t *tier) newSession(id string, proxies []string) (*client.Participant, error) {
	return client.New(client.Config{
		Proxies: proxies, Server: t.aggEP, Transport: t.clientTr, ClientID: id,
		Authority: t.platform.AttestationPublicKey(), Measurement: t.measure,
	})
}

func (t *tier) proxies() []*proxy.ShardedProxy {
	return append(append([]*proxy.ShardedProxy(nil), t.fronts...), t.inner...)
}

// close stops everything deploy started, newest first.
func (t *tier) close() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
	t.stops = nil
}

// settle waits until the tier has absorbed all it can of the acked
// updates without further input and is idle: no pending outbox entry on
// any proxy, and the aggregator's slot count equal to acked less what
// sits in open rounds.
func (t *tier) settle(ctx context.Context, acked int64) error {
	for {
		pending, open := 0, int64(0)
		for _, p := range t.proxies() {
			st := p.Status()
			pending += st.OutboxPending
			open += int64(st.InRound)
		}
		got := t.obs.slots.Load()
		if pending == 0 && got == acked-open {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("tier did not settle (aggregator absorbed %d of %d acked, %d in open rounds, %d outbox entries pending): %w", got, acked, open, pending, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}
