package proxy

// End-to-end batteries for the session-keyed enclave crypto: the SDK
// and the delivery dispatcher must survive session loss (proxy restart,
// cache eviction) by re-establishing transparently, with exactly-once
// aggregation intact.

import (
	"context"
	"testing"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/transport"
)

// sessionEnclave builds a dedicated small-key enclave (the shared
// fixture enclave must not have its sessions reset under other tests).
func sessionEnclave(t *testing.T, cfg enclave.Config) (*enclave.Platform, *enclave.Enclave) {
	t.Helper()
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RSABits == 0 {
		cfg.RSABits = 1024
	}
	encl, err := enclave.New(cfg, platform)
	if err != nil {
		t.Fatal(err)
	}
	return platform, encl
}

// sessionParticipant builds an SDK session pinned to encl over tr.
func sessionParticipant(t *testing.T, tr transport.Transport, encl *enclave.Enclave, frontEP, aggEP, id string) *client.Participant {
	t.Helper()
	p, err := client.New(client.Config{
		Proxies: []string{frontEP}, Server: aggEP, Transport: tr, ClientID: id,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetEnclaveKey(encl.PublicKey())
	return p
}

// TestSessionReestablishAcrossProxyRestart crashes the proxy mid-session:
// seal, stop, drop the enclave's volatile session cache (what a real
// restart loses), restart over the same outbox directory. The SDK's next
// send is a data message for a session the enclave no longer holds — the
// typed 428 drives a transparent re-establish, and aggregation stays
// exactly-once.
func TestSessionReestablishAcrossProxyRestart(t *testing.T) {
	platform, encl := sessionEnclave(t, enclave.Config{})
	const clients = 3
	initial := testArch().New(1).SnapshotParams()

	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	lb := transport.NewLoopback()
	lb.Register("loop://agg", agg)

	cfg := ShardedConfig{
		Upstream: "loop://agg", K: 1, RoundSize: clients, Shards: 2, Seed: 7,
		OutboxDir: t.TempDir(), Transport: lb,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}
	px1, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("loop://front", px1)
	part := sessionParticipant(t, lb, encl, "loop://front", "loop://agg", "p0")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	round1 := perturbed(initial, clients, 0)
	for i, u := range round1 {
		if err := part.SendUpdate(ctx, u); err != nil {
			t.Fatalf("round 1 send %d: %v", i, err)
		}
	}
	flushTier(t, px1)
	waitServerRound(t, agg, 1)
	if st := px1.Status(); st.SessionsEstablished != 1 || st.SessionHits < 2 {
		t.Fatalf("round 1 established/hits = %d/%d, want 1/>=2", st.SessionsEstablished, st.SessionHits)
	}

	// Crash: seal, stop, lose the volatile session cache, restart.
	blob, err := px1.SealState()
	if err != nil {
		t.Fatal(err)
	}
	px1.Close()
	encl.ResetSessions()
	px2, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px2.Close)
	if err := px2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	lb.Register("loop://front", px2)

	// The SDK still holds its old session: the first post-restart send is
	// rejected 428 and re-established transparently — no error surfaces.
	round2 := perturbed(initial, clients, 100)
	for i, u := range round2 {
		if err := part.SendUpdate(ctx, u); err != nil {
			t.Fatalf("round 2 send %d after restart: %v", i, err)
		}
	}
	flushTier(t, px2)
	waitServerRound(t, agg, 2)

	st := px2.Status()
	if st.SessionMisses < 1 {
		t.Fatalf("restart surfaced no session miss (misses = %d)", st.SessionMisses)
	}
	if st.SessionsEstablished < 1 {
		t.Fatalf("SDK did not re-establish (established = %d)", st.SessionsEstablished)
	}

	classic := fl.NewServer(initial)
	for _, round := range [][]nn.ParamSet{round1, round2} {
		if err := classic.Aggregate(round); err != nil {
			t.Fatal(err)
		}
	}
	if !agg.Global().ApproxEqual(classic.Global(), 1e-9) {
		t.Fatal("global model != classic FL mean across the session-crypto restart")
	}
}

// TestSessionHopReestablishAcrossCascade resets the DOWNSTREAM hop's
// session cache mid-stream: the front proxy's next batch delivery (a
// session data message) is rejected 428, the dispatcher invalidates the
// memoized body plus session and the retry re-establishes — the round
// delivers instead of being quarantined. The one subtest keeps the id
// the test suite has always reported it under.
func TestSessionHopReestablishAcrossCascade(t *testing.T) {
	t.Run("batch", testSessionHopReestablish)
}

func testSessionHopReestablish(t *testing.T) {
	frontPlat, frontEncl := sessionEnclave(t, enclave.Config{CodeIdentity: "front"})
	hopPlat, hopEncl := sessionEnclave(t, enclave.Config{CodeIdentity: "hop"})
	const clients = 3
	initial := testArch().New(1).SnapshotParams()

	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	lb := transport.NewLoopback()
	lb.Register("loop://agg", agg)

	hop, err := NewSharded(ShardedConfig{
		Upstream: "loop://agg", K: 1, RoundSize: clients, Shards: 1, Seed: 11,
		Transport: lb, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, hopEncl, hopPlat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hop.Close)
	lb.Register("loop://hop", hop)

	front, err := NewSharded(ShardedConfig{
		NextHop:    "loop://hop",
		NextHopKey: enclave.PinnedHop(hopEncl.PublicKey(), hopEncl.Measurement()),
		K:          1, RoundSize: clients, Shards: 1, Seed: 13,
		Transport: lb, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, frontEncl, frontPlat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	lb.Register("loop://front", front)

	sendRound := func(offset float64) []nn.ParamSet {
		t.Helper()
		round := perturbed(initial, clients, offset)
		for i, u := range round {
			sendTyped(t, lb, frontEncl, "loop://front", "", u)
			_ = i
		}
		flushTier(t, front, hop)
		return round
	}

	round1 := sendRound(0)
	waitServerRound(t, agg, 1)
	// The hop loses its volatile sessions (restart-equivalent); the
	// front's established delivery session is now unknown downstream.
	hopEncl.ResetSessions()
	round2 := sendRound(100)
	waitServerRound(t, agg, 2)

	if st := front.Status(); st.OutboxQuarantined != 0 {
		t.Fatalf("session loss quarantined %d entries", st.OutboxQuarantined)
	}
	if st := hop.Status(); st.SessionMisses < 1 || st.SessionsEstablished < 2 {
		t.Fatalf("hop misses/established = %d/%d, want >=1/>=2", st.SessionMisses, st.SessionsEstablished)
	}

	classic := fl.NewServer(initial)
	for _, round := range [][]nn.ParamSet{round1, round2} {
		if err := classic.Aggregate(round); err != nil {
			t.Fatal(err)
		}
	}
	if !agg.Global().ApproxEqual(classic.Global(), 1e-9) {
		t.Fatal("global model != classic FL mean across the hop session reset")
	}
}

// TestSessionEvictionReestablishE2E squeezes the proxy's session cache
// to a single entry: two participants alternating evict each other on
// every establish, so every send after the first round-trips through
// the 428 → re-establish path — and every send still succeeds
// transparently.
func TestSessionEvictionReestablishE2E(t *testing.T) {
	platform, encl := sessionEnclave(t, enclave.Config{SessionCacheEntries: 1})
	const clients = 4
	initial := testArch().New(1).SnapshotParams()

	agg, err := NewAggServer(initial, clients)
	if err != nil {
		t.Fatal(err)
	}
	lb := transport.NewLoopback()
	lb.Register("loop://agg", agg)
	px, err := NewSharded(ShardedConfig{
		Upstream: "loop://agg", K: 1, RoundSize: clients, Shards: 1, Seed: 17,
		Transport: lb, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	lb.Register("loop://front", px)

	pa := sessionParticipant(t, lb, encl, "loop://front", "loop://agg", "pa")
	pb := sessionParticipant(t, lb, encl, "loop://front", "loop://agg", "pb")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	round := perturbed(initial, clients, 0)
	for i, u := range round {
		part := pa
		if i%2 == 1 {
			part = pb
		}
		if err := part.SendUpdate(ctx, u); err != nil {
			t.Fatalf("send %d under cache pressure: %v", i, err)
		}
	}
	flushTier(t, px)
	waitServerRound(t, agg, 1)

	st := px.Status()
	if st.SessionEvictions < 2 || st.SessionsEstablished < 3 {
		t.Fatalf("evictions/established = %d/%d, want >=2/>=3", st.SessionEvictions, st.SessionsEstablished)
	}
	classic := fl.NewServer(initial)
	if err := classic.Aggregate(round); err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(classic.Global(), 1e-9) {
		t.Fatal("global model != classic FL mean under session cache pressure")
	}
}

// TestSharedHopKeyOneSessionPerTier: the session toward a pinned key
// belongs to the sender, not to the key. Two fronts of one process handed
// the SAME *HopKey (bench and loadgen deploy exactly so) each establish a
// session of their own at the hop — a shared one would interleave two
// counter streams inside one replay window.
func TestSharedHopKeyOneSessionPerTier(t *testing.T) {
	hopPlat, hopEncl := sessionEnclave(t, enclave.Config{CodeIdentity: "shared-hop"})
	const clients = 2
	initial := testArch().New(1).SnapshotParams()

	agg, err := NewAggServer(initial, 2*clients)
	if err != nil {
		t.Fatal(err)
	}
	lb := transport.NewLoopback()
	lb.Register("loop://agg", agg)
	hop, err := NewSharded(ShardedConfig{
		Upstream: "loop://agg", K: 1, RoundSize: 2 * clients, Shards: 1, Seed: 11, Transport: lb,
	}, hopEncl, hopPlat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hop.Close)
	lb.Register("loop://hop", hop)

	key := enclave.PinnedHop(hopEncl.PublicKey(), hopEncl.Measurement())
	round := perturbed(initial, 2*clients, 0)
	for f := 0; f < 2; f++ {
		plat, encl := sessionEnclave(t, enclave.Config{CodeIdentity: "shared-front"})
		front, err := NewSharded(ShardedConfig{
			NextHop: "loop://hop", NextHopKey: key,
			K: 1, RoundSize: clients, Shards: 1, Seed: int64(13 + f), Transport: lb,
		}, encl, plat)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(front.Close)
		ep := "loop://front-" + string(rune('0'+f))
		lb.Register(ep, front)
		for _, u := range round[f*clients : (f+1)*clients] {
			sendTyped(t, lb, encl, ep, "", u)
		}
		flushTier(t, front)
	}
	flushTier(t, hop)
	waitServerRound(t, agg, 1)

	if st := hopEncl.Stats(); st.SessionsEstablished != 2 || st.SessionMisses != 0 || st.SessionReplays != 0 {
		t.Fatalf("hop established/misses/replays = %d/%d/%d, want one session per front (2/0/0)",
			st.SessionsEstablished, st.SessionMisses, st.SessionReplays)
	}
	classic, err := nn.Average(round)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(classic, 1e-9) {
		t.Fatal("global model != classic FL mean over two fronts sharing one hop key")
	}
}
