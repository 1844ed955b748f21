package outbox_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/outbox"
	"mixnn/internal/proxy"
	"mixnn/internal/route"
	"mixnn/internal/transport"
)

// sumObserver adds up every update the aggregation server absorbs.
type sumObserver struct {
	mu    sync.Mutex
	sum   nn.ParamSet
	slots int
}

func (o *sumObserver) ObserveRound(rec fl.RoundRecord) {
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
}

// poisonAfterSend overwrites every participant ciphertext the moment the
// transport call that carried it returns, whatever it returned: the
// earliest instant the Transport contract lets the SDK reuse it.
type poisonAfterSend struct{ transport.Transport }

func (p poisonAfterSend) SendUpdate(ctx context.Context, ep string, req transport.UpdateRequest) (transport.Receipt, error) {
	rec, err := p.Transport.SendUpdate(ctx, ep, req)
	for i := range req.Body {
		req.Body[i] = 0xA5
	}
	return rec, err
}

// TestLeasesReleasedNeverRead runs the Transport contract against the two
// buffers that lean on it: the SDK's ciphertext, poisoned as soon as the
// transport call that carried it returns, and every queue's acked
// entries, poisoned as they become spares for the next round. A front
// with a local and a relay shard (so the shard kind that retains what it
// is handed is on the path), the relay, a cascade hop and the aggregation
// server run over Loopback and over HTTP while concurrent senders keep
// both kinds of buffer in circulation. A transport or tier that read
// either buffer after the contract let it be reused would mix, forward or
// aggregate garbage: the books would not close, or a decode would fail
// and quarantine a round.
func TestLeasesReleasedNeverRead(t *testing.T) {
	outbox.PoisonSpares(t)
	for _, overHTTP := range []bool{false, true} {
		name := map[bool]string{false: "loopback", true: "http"}[overHTTP]
		t.Run(name, func(t *testing.T) { runLeaseDeployment(t, overHTTP) })
	}
}

func runLeaseDeployment(t *testing.T, overHTTP bool) {
	const (
		quota   = 4 // per shard per front round; every inner tier's round
		senders = 2 * quota
		rounds  = 6
		secret  = "inter-proxy"
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	arch := nn.NewMLP("net", 16, []int{32}, 4)
	initial := arch.New(1).SnapshotParams()

	var tr transport.Transport
	lb := transport.NewLoopback()
	defer lb.Close()
	tr = lb
	if overHTTP {
		tr = transport.NewHTTP(nil)
	}
	host := func(name string, s transport.Server) string {
		if !overHTTP {
			lb.Register("loop://"+name, s)
			return "loop://" + name
		}
		srv := httptest.NewServer(transport.NewHandler(s))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	mkEnclave := func(identity string) *enclave.Enclave {
		e, err := enclave.New(enclave.Config{CodeIdentity: identity}, platform)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	mkProxy := func(name string, cfg proxy.ShardedConfig, e *enclave.Enclave) (*proxy.ShardedProxy, string) {
		cfg.K, cfg.RetryBase, cfg.RetryMax, cfg.Transport = 2, time.Millisecond, 20*time.Millisecond, tr
		p, err := proxy.NewSharded(cfg, e, platform)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p, host(name, p)
	}
	attest := func(url string, e *enclave.Enclave) *enclave.HopKey {
		key, err := proxy.AttestHopOver(ctx, tr, url, platform.AttestationPublicKey(), e.Measurement())
		if err != nil {
			t.Fatal(err)
		}
		return key
	}

	agg, err := proxy.NewAggServer(initial, quota)
	if err != nil {
		t.Fatal(err)
	}
	obs := &sumObserver{}
	agg.SetObserver(obs)
	aggURL := host("agg", agg)

	hopEncl := mkEnclave("spare-hop")
	hop, hopURL := mkProxy("hop", proxy.ShardedConfig{
		Upstream: aggURL, RoundSize: quota, Shards: 1, HopSecret: secret, Seed: 11,
	}, hopEncl)
	hopKey := attest(hopURL, hopEncl)

	relayEncl := mkEnclave("spare-relay")
	relay, relayURL := mkProxy("relay", proxy.ShardedConfig{
		Upstream: aggURL, NextHop: hopURL, NextHopKey: hopKey, NextHopSecret: secret,
		RoundSize: quota, Shards: 1, HopSecret: secret, Seed: 21,
	}, relayEncl)
	relayKey := attest(relayURL, relayEncl)

	frontEncl := mkEnclave("spare-front")
	front, frontURL := mkProxy("front", proxy.ShardedConfig{
		Upstream: aggURL, NextHop: hopURL, NextHopKey: hopKey, NextHopSecret: secret,
		Routing:      route.ModeHashQuota,
		ShardSpecs:   []route.ShardSpec{{}, {Addr: relayURL}},
		RemoteShards: map[string]proxy.RemoteShard{relayURL: {Key: relayKey, Secret: secret}},
		RoundSize:    senders, Seed: 31,
	}, frontEncl)

	// Every sender its own session; all send at once, round after round,
	// each update distinct.
	want := initial.Clone().Scale(0)
	updates := make([][]nn.ParamSet, senders)
	for i := range updates {
		for r := 0; r < rounds; r++ {
			u := arch.New(int64(1000 + i*rounds + r)).SnapshotParams()
			updates[i] = append(updates[i], u)
			want.Add(u)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := client.New(client.Config{
				Proxies: []string{frontURL}, Server: aggURL, ClientID: fmt.Sprintf("spare-%d", i),
				Transport: poisonAfterSend{tr},
				Authority: platform.AttestationPublicKey(), Measurement: frontEncl.Measurement(),
			})
			if err != nil {
				t.Error(err)
				return
			}
			for _, u := range updates[i] {
				if err := p.SendUpdate(ctx, u); err != nil {
					t.Errorf("sender %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, p := range []*proxy.ShardedProxy{front, relay, hop} {
		if err := p.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for name, p := range map[string]*proxy.ShardedProxy{"front": front, "relay": relay, "hop": hop} {
		if st := p.Status(); st.OutboxQuarantined != 0 || st.OutboxPending != 0 {
			t.Fatalf("%s: %d entries quarantined, %d pending", name, st.OutboxQuarantined, st.OutboxPending)
		}
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.slots != senders*rounds {
		t.Fatalf("aggregation server absorbed %d of %d updates", obs.slots, senders*rounds)
	}
	if !obs.sum.ApproxEqual(want, 1e-9) {
		t.Fatal("the books do not close: what the aggregation server absorbed is not what the senders sent")
	}
}
