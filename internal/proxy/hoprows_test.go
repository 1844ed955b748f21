package proxy

// Batteries for the rows-only hop leg: /v1/batch ingress files wire
// images into slab rows (a mixer's or a relay's) out of a pooled
// plaintext, a relay's failed commit re-files its rows, and every epoch's
// mixing stream is keyed by a hash.

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/nn"
	"mixnn/internal/outbox"
	"mixnn/internal/route"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// TestShardStreamsDistinct: no two (seed, epoch, shard) triples share a
// mixing stream. Under the summed key the benchmark's relay-0/relay-1
// (seeds S and S+1, one shard each) drew the same stream one epoch
// apart, and a reshard to another P revisited earlier epochs' streams;
// the hashed key takes no P at all, so the P ∈ {1,2,3} sweep is the
// shard range 0…3 it spans.
func TestShardStreamsDistinct(t *testing.T) {
	const base = int64(2001)
	seen := make(map[[8]int64]string)
	for seed := base; seed < base+5; seed++ {
		for epoch := 0; epoch < 64; epoch++ {
			for shard := 0; shard < 4; shard++ {
				rng := shardStream(seed, epoch, shard)
				var draws [8]int64
				for i := range draws {
					draws[i] = rng.Int63()
				}
				id := fmt.Sprintf("seed %d epoch %d shard %d", seed, epoch, shard)
				if other, dup := seen[draws]; dup {
					t.Fatalf("%s draws the stream of %s", id, other)
				}
				seen[draws] = id
			}
		}
	}
	if shardStream(base, 3, 1).Int63() != shardStream(base, 3, 1).Int63() {
		t.Fatal("a stream is not a function of its (seed, epoch, shard)")
	}
}

// batchSink is a plaintext upstream that keeps every update delivered to
// it, decoded into its own memory.
type batchSink struct {
	transport.Server
	mu      sync.Mutex
	updates []nn.ParamSet
}

func (s *batchSink) HandleBatch(_ context.Context, req transport.BatchRequest) (transport.Receipt, error) {
	env, err := wire.DecodeBatchEnvelope(req.Body)
	if err != nil {
		return transport.Receipt{Shard: -1}, transport.Errorf(http.StatusBadRequest, "%s", err.Error())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, raw := range env.Updates {
		ps, err := nn.DecodeParamSet(raw)
		if err != nil {
			return transport.Receipt{Shard: -1}, transport.Errorf(http.StatusBadRequest, "%s", err.Error())
		}
		s.updates = append(s.updates, ps)
	}
	return transport.Receipt{Shard: -1}, nil
}

func (s *batchSink) take() []nn.ParamSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.updates
	s.updates = nil
	return out
}

// hopBatchReference is the ingress the rows path replaced, kept as the
// oracle: decode every item into a tree, require one structure across
// the batch (and the open round's, when earlier traffic set one — a
// batch the open round refuses item by item applies nothing either).
func hopBatchReference(plain []byte, open *nn.ParamSet) ([]nn.ParamSet, bool) {
	env, err := wire.DecodeBatchEnvelope(plain)
	if err != nil {
		return nil, false
	}
	pss := make([]nn.ParamSet, len(env.Updates))
	for i, raw := range env.Updates {
		if pss[i], err = nn.DecodeParamSetNoCopy(raw); err != nil || len(pss[i].Layers) == 0 {
			return nil, false
		}
		if !pss[0].Compatible(pss[i]) || (open != nil && !open.Compatible(pss[i])) {
			return nil, false
		}
	}
	return pss, true
}

// layerBags returns, per layer position, the sorted encodings of that
// layer across updates. Mixing permutes whole layers and sums nothing,
// so a round's bags are the same on both sides of a hop — which implies
// the layer-wise mean and, unlike it, survives NaN and 1e300 payloads.
func layerBags(t *testing.T, updates []nn.ParamSet) [][]string {
	t.Helper()
	if len(updates) == 0 {
		return nil
	}
	bags := make([][]string, len(updates[0].Layers))
	for _, u := range updates {
		for li, lp := range u.Layers {
			raw, err := nn.EncodeParamSet(nn.ParamSet{Layers: []nn.LayerParams{lp}})
			if err != nil {
				t.Fatal(err)
			}
			bags[li] = append(bags[li], string(raw))
		}
	}
	for _, bag := range bags {
		sort.Strings(bag)
	}
	return bags
}

func tame(updates []nn.ParamSet) bool {
	for _, u := range updates {
		for _, lp := range u.Layers {
			for _, tn := range lp.Tensors {
				for _, v := range tn.Data() {
					if !(v > -1e6 && v < 1e6) {
						return false
					}
				}
			}
		}
	}
	return true
}

func encodeUpdates(t testing.TB, updates []nn.ParamSet) [][]byte {
	t.Helper()
	out := make([][]byte, len(updates))
	for i, u := range updates {
		raw, err := nn.EncodeParamSet(u)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = raw
	}
	return out
}

func batchBody(t testing.TB, items ...[]byte) []byte {
	t.Helper()
	body, err := wire.BatchEnvelope{Updates: items}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// FuzzHopBatchIngress: for arbitrary batch plaintexts the rows path
// accepts and rejects exactly what the tree-walking reference does; a
// rejected batch leaves the tier's counters and its dedup window as they
// were; an accepted one reaches the next hop with every layer it came
// with (so the layer-wise mean holds at 1e-9). primed opens the round
// with one update of the test model first, so a well-formed batch of
// another model is the per-item-skip case instead of a model change.
func FuzzHopBatchIngress(f *testing.F) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		f.Fatal(err)
	}
	encl, err := enclave.New(enclave.Config{CodeIdentity: "fuzz-hop"}, platform)
	if err != nil {
		f.Fatal(err)
	}
	sess, err := enclave.NewSession(encl.PublicKey())
	if err != nil {
		f.Fatal(err)
	}
	// Establish the session up front: its enclave-side state must not
	// show up as something a rejected batch left behind.
	if est, err := sess.Wrap([]byte("establish")); err != nil {
		f.Fatal(err)
	} else if _, err := encl.Decrypt(est); err != nil {
		f.Fatal(err)
	}
	lb := transport.NewLoopback()
	f.Cleanup(lb.Close)
	sink := &batchSink{}
	lb.Register("loop://sink", sink)

	model := testArch().New(1).SnapshotParams()
	items := encodeUpdates(f, perturbed(model, 4, 0))
	other := encodeUpdates(f, perturbed(nn.NewMLP("net", 4, []int{5}, 2).New(1).SnapshotParams(), 3, 0))
	valid := batchBody(f, items...)
	for _, primed := range []bool{false, true} {
		f.Add(valid, primed)
		f.Add(valid[:len(valid)-3], primed)                                             // truncated
		f.Add(append(append([]byte{}, valid...), 0), primed)                            // trailing byte
		f.Add(batchBody(f, items[0], other[0], items[1]), primed)                       // heterogeneous at item 1
		f.Add(batchBody(f, items[0], items[1][:len(items[1])-1]), primed)               // wrong size at item 1
		f.Add(batchBody(f, items[0], append(append([]byte{}, items[1]...), 7)), primed) // trailing byte inside item 1
		f.Add(batchBody(f, other...), primed)                                           // another model, homogeneous
		f.Add(batchBody(f, items[0]), primed)
	}

	wrap := func(t *testing.T, plain []byte) []byte {
		ct, err := sess.Wrap(plain)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	f.Fuzz(func(t *testing.T, plain []byte, primed bool) {
		if len(plain) > 1<<16 {
			t.Skip()
		}
		var open *nn.ParamSet
		if primed {
			open = &model
		}
		want, accept := hopBatchReference(plain, open)
		if len(want) > 64 {
			t.Skip()
		}
		n, round := len(want), 1
		if accept {
			round = n
		}
		if primed {
			round++
		}
		hop, err := NewSharded(ShardedConfig{
			Upstream: "loop://sink", K: 2, RoundSize: round, Seed: 9, Transport: lb,
			RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
		}, encl, platform)
		if err != nil {
			t.Fatal(err)
		}
		defer hop.Close()
		sink.take()
		ctx := context.Background()
		if primed {
			if _, err := hop.HandleBatch(ctx, transport.BatchRequest{Body: wrap(t, batchBody(t, items[3])), Hop: 1}); err != nil {
				t.Fatal(err)
			}
			want = append(want, perturbed(model, 4, 0)[3])
		}
		before := hop.Status()
		req := transport.BatchRequest{Body: wrap(t, plain), Hop: 1, ID: "fuzzed", Sender: "fuzz", Seq: 7, HasSeq: true}
		rcpt, err := hop.HandleBatch(ctx, req)
		if accept != (err == nil) {
			t.Fatalf("rows path: %v; the reference walk accepts: %v", err, accept)
		}
		if !accept {
			if se := transport.AsStatus(err); se == nil || se.Code != http.StatusBadRequest || !strings.HasPrefix(se.Msg, "proxy: ") {
				t.Fatalf("rejection is not the 400 the tree path answered: %v", err)
			}
			after := hop.Status()
			if after.HopReceived != before.HopReceived || after.InRound != before.InRound || after.Rounds != before.Rounds ||
				after.Shards[0].Received != before.Shards[0].Received || after.Shards[0].Buffered != before.Shards[0].Buffered ||
				after.Shards[0].Load != before.Shards[0].Load || after.EnclaveUsed != before.EnclaveUsed {
				t.Fatalf("a rejected batch moved the tier: %+v → %+v", before, after)
			}
			// The id was released: the same id with a good body is a
			// first delivery, not a duplicate and not "in flight".
			req.Body = wrap(t, batchBody(t, items[0]))
			if rcpt, err := hop.HandleBatch(ctx, req); err != nil || rcpt.Duplicate {
				t.Fatalf("the rejected batch's id stayed in the dedup window: %+v, %v", rcpt, err)
			}
			return
		}
		if got := hop.Status().HopReceived - before.HopReceived; rcpt.Duplicate || got != n {
			t.Fatalf("accepted batch: receipt %+v, hop ingested %d of its %d updates", rcpt, got, n)
		}
		flushTier(t, hop)
		got := sink.take()
		if len(got) != len(want) {
			t.Fatalf("%d updates reached the next hop, want %d", len(got), len(want))
		}
		gotBags, wantBags := layerBags(t, got), layerBags(t, want)
		for li := range wantBags {
			for j := range wantBags[li] {
				if gotBags[li][j] != wantBags[li][j] {
					t.Fatalf("layer %d left the hop with different parameters than it came with", li)
				}
			}
		}
		if tame(want) {
			wantMean, _ := nn.Average(want)
			gotMean, err := nn.Average(got)
			if err != nil || !gotMean.ApproxEqual(wantMean, 1e-9) {
				t.Fatalf("layer-wise mean moved across the hop (%v)", err)
			}
		}
	})
}

// hopFixture is one inner proxy (relay or cascade hop) of an HTTP test
// deployment: its own enclave, served over httptest, attested.
func hopFixture(t *testing.T, platform *enclave.Platform, identity string, cfg ShardedConfig) (*ShardedProxy, string, *enclave.HopKey) {
	t.Helper()
	encl, err := enclave.New(enclave.Config{CodeIdentity: identity}, platform)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RetryBase, cfg.RetryMax = time.Millisecond, 5*time.Millisecond
	px, err := NewSharded(cfg, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	srv := httptest.NewServer(px.Handler())
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	key, err := AttestHopOver(ctx, transport.NewHTTP(nil), srv.URL, platform.AttestationPublicKey(), encl.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	return px, srv.URL, key
}

// TestHopBatchPlaintextReleasedNeverRead is the ownership rule of the
// pooled batch plaintext under the race detector: every proxy overwrites
// a plaintext buffer with 0xA5 the moment it recycles it, while
// concurrent senders drive front → relay → cascade → AggServer over
// real HTTP. Anything that still referenced a recycled buffer — a slab
// row filed late, a relayed update, an outbox entry — would trip the race
// detector on the poisoning write or break the books. The relay-of-relay
// arm puts a relay shard BEHIND a /v1/batch ingress, so the same run
// proves that a relay copies each item it is routed into its own row
// before the batch plaintext is recycled.
func TestHopBatchPlaintextReleasedNeverRead(t *testing.T) {
	for _, relayOfRelay := range []bool{false, true} {
		t.Run(fmt.Sprintf("relayOfRelay=%v", relayOfRelay), func(t *testing.T) {
			const rounds, senders, frontRound = 6, 4, 8
			platform, frontEncl := fixtures(t)
			initial := testArch().New(1).SnapshotParams()
			agg, err := NewAggServer(initial, rounds*frontRound)
			if err != nil {
				t.Fatal(err)
			}
			aggSrv := httptest.NewServer(agg.Handler())
			t.Cleanup(aggSrv.Close)

			var tier []*ShardedProxy
			var poisoned sync.Map // proxy name → true once it recycled a plaintext
			add := func(name string, px *ShardedProxy) {
				px.plainReleased = func(plain []byte) {
					poisoned.Store(name, true)
					for i := range plain {
						plain[i] = 0xA5
					}
				}
				tier = append(tier, px)
			}
			const hopSecret = "hop-secret"
			cascade, cascadeURL, cascadeKey := hopFixture(t, platform, "cascade", ShardedConfig{
				Upstream: aggSrv.URL, K: 2, RoundSize: frontRound, Seed: 11, HopSecret: hopSecret,
			})
			inner := ShardedConfig{
				NextHop: cascadeURL, NextHopKey: cascadeKey, NextHopSecret: hopSecret,
				K: 2, HopSecret: hopSecret, Routing: route.ModeHashQuota,
			}
			relayCfg := inner
			relayCfg.RoundSize, relayCfg.Seed = frontRound/2, 12
			var relay2 *ShardedProxy
			if relayOfRelay {
				cfg := inner
				cfg.RoundSize, cfg.Seed = frontRound/4, 13
				var relay2URL string
				var relay2Key *enclave.HopKey
				relay2, relay2URL, relay2Key = hopFixture(t, platform, "relay-2", cfg)
				add("relay-2", relay2)
				relayCfg.ShardSpecs = []route.ShardSpec{{}, {Addr: relay2URL}}
				relayCfg.RemoteShards = map[string]RemoteShard{relay2URL: {Key: relay2Key, Secret: hopSecret}}
			}
			relay, relayURL, relayKey := hopFixture(t, platform, "relay-1", relayCfg)
			frontCfg := inner
			frontCfg.HopSecret, frontCfg.RoundSize, frontCfg.Seed = "", frontRound, 14
			frontCfg.ShardSpecs = []route.ShardSpec{{}, {Addr: relayURL}}
			frontCfg.RemoteShards = map[string]RemoteShard{relayURL: {Key: relayKey, Secret: hopSecret}}
			frontCfg.RetryBase, frontCfg.RetryMax = time.Millisecond, 5*time.Millisecond
			front, err := NewSharded(frontCfg, frontEncl, platform)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(front.Close)
			frontSrv := httptest.NewServer(front.Handler())
			t.Cleanup(frontSrv.Close)
			add("front", front)
			add("relay-1", relay)
			add("cascade", cascade)

			updates := perturbed(initial, rounds*frontRound, 0)
			tr := transport.NewHTTP(nil)
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := s; i < len(updates); i += senders {
						raw, err := nn.EncodeParamSet(updates[i])
						if err != nil {
							t.Error(err)
							return
						}
						ct, err := enclave.Encrypt(frontEncl.PublicKey(), raw)
						if err != nil {
							t.Error(err)
							return
						}
						if _, err := tr.SendUpdate(context.Background(), frontSrv.URL, transport.UpdateRequest{Body: ct, ClientID: fmt.Sprintf("p-%d", i)}); err != nil {
							t.Errorf("send %d: %v", i, err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			flushTier(t, front, relay)
			if relayOfRelay {
				flushTier(t, relay2)
			}
			flushTier(t, cascade)
			waitServerRound(t, agg, 1)
			want, err := nn.Average(updates)
			if err != nil {
				t.Fatal(err)
			}
			if !agg.Global().ApproxEqual(want, 1e-9) {
				t.Fatal("books do not close at 1e-9 with plaintext buffers poisoned on release")
			}
			for _, px := range tier {
				if st := px.Status(); st.OutboxQuarantined != 0 || st.OutboxPending != 0 {
					t.Fatalf("quarantined %d, pending %d outbox entries", st.OutboxQuarantined, st.OutboxPending)
				}
			}
			// Both arms ran: a hop whose batches land in slab rows recycled
			// its plaintexts; a relay shard behind relay-1's batch ingress
			// filed items of the batches it was routed.
			for _, name := range []string{"front", "cascade"} {
				if _, recycled := poisoned.Load(name); !recycled {
					t.Fatalf("%s never recycled a plaintext buffer", name)
				}
			}
			if _, recycled := poisoned.Load("relay-1"); !relayOfRelay && !recycled {
				t.Fatal("relay-1 never recycled a batch plaintext")
			}
			if relayOfRelay && relay.Status().Shards[1].Received == 0 {
				t.Fatal("no batch item was routed to relay-1's remote shard")
			}
		})
	}
}

// refusingSeal is an outbox SealFunc that refuses entries addressed to
// one lane while failing is set — after letting the first skip of them
// through — and counts what it let through per lane. It stores entries
// in plaintext.
type refusingSeal struct {
	lane    string
	mu      sync.Mutex
	failing bool
	skip    int
	refused int
	puts    map[string]int
}

func (s *refusingSeal) seal(plain []byte) ([]byte, error) {
	lane := outbox.LaneOf(plain)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failing && lane == s.lane {
		if s.skip == 0 {
			s.refused++
			return nil, fmt.Errorf("disk full")
		}
		s.skip--
	}
	if s.puts == nil {
		s.puts = make(map[string]int)
	}
	s.puts[lane]++
	return plain, nil
}

// installQueue rebuilds px's delivery half, before any traffic, over an
// outbox directory whose entries seal through s.
func installQueue(t *testing.T, px *ShardedProxy, s *refusingSeal) {
	t.Helper()
	q, err := outbox.Open(t.TempDir(), s.seal, nil)
	if err != nil {
		t.Fatal(err)
	}
	px.dlv.disp.Close()
	px.dlv = newDelivery(px.cfg, px.dlv.tr, q, px.dlv.remotes, px.metrics)
}

// TestRelayRefileMixesBeforeItTravels: a relay entry whose outbox commit
// fails goes back — the retired relay's rows, copied by RestoreEntry —
// into the live relay shard for its address, rides the next round's relay
// entry, and reaches the aggregator only through the remote shard's
// mixer. The per-shard books count those updates once.
func TestRelayRefileMixesBeforeItTravels(t *testing.T) {
	const c = 4
	platform, encl := fixtures(t)
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, 2*c)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)
	shardPx, addr, rs := remoteShardFixture(t, platform, aggSrv.URL, c/2, 95)
	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: c, Seed: 96,
		Routing:      route.ModeHashQuota,
		ShardSpecs:   []route.ShardSpec{{}, {Addr: addr}},
		RemoteShards: map[string]RemoteShard{addr: rs},
		RetryBase:    time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	box := &refusingSeal{lane: addr, failing: true}
	installQueue(t, px, box)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)

	updates := perturbed(initial, 2*c, 120)
	send := func(batch []nn.ParamSet, tag string) {
		for i, u := range batch {
			resp := sendRaw(t, encl, pxSrv.URL, fmt.Sprintf("%s-%d", tag, i), u)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("send %s-%d: %s", tag, i, resp.Status)
			}
		}
	}
	send(updates[:c], "a")
	st := px.Status()
	if box.refused == 0 || st.Shards[1].Buffered != c/2 || st.Rounds != 1 {
		t.Fatalf("after the failed commit: %d refusals, relay buffers %d, %d rounds; want the round closed and its %d relayed updates re-filed",
			box.refused, st.Shards[1].Buffered, st.Rounds, c/2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := px.Flush(ctx); err == nil {
		t.Fatal("Flush reported success with relayed material retained")
	}
	cancel()
	if got := shardPx.Status().HopReceived; got != 0 {
		t.Fatalf("remote shard ingested %d updates of an entry that never committed", got)
	}

	box.mu.Lock()
	box.failing = false
	box.mu.Unlock()
	send(updates[c:], "b")
	flushTier(t, px, shardPx)
	waitServerRound(t, agg, 1)
	if got := shardPx.Status().HopReceived; got != c {
		t.Fatalf("remote shard mixed %d updates, want all %d routed to it over both rounds", got, c)
	}
	st = px.Status()
	if sum := st.Shards[0].Received + st.Shards[1].Received; sum != st.Received || st.Received != 2*c {
		t.Fatalf("per-shard received %d+%d, tier received %d, want %d", st.Shards[0].Received, st.Shards[1].Received, st.Received, 2*c)
	}
	want, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Global().ApproxEqual(want, 1e-9) {
		t.Fatal("aggregate diverged across a failed relay commit")
	}
}

// TestSyncPeersRefusalNamesRetainedMaterial: a sync_peers directive
// refused only because a failed outbox commit retained a round's relayed
// material says so — how many updates, and that the next round close
// carries them — instead of calling an idle tier mid-round.
func TestSyncPeersRefusalNamesRetainedMaterial(t *testing.T) {
	const c = 4
	platform, encl := fixtures(t)
	initial := testArch().New(1).SnapshotParams()
	agg, err := NewAggServer(initial, 2*c)
	if err != nil {
		t.Fatal(err)
	}
	aggSrv := httptest.NewServer(agg.Handler())
	t.Cleanup(aggSrv.Close)
	_, addr, rs := remoteShardFixture(t, platform, aggSrv.URL, c/2, 97)
	px, err := NewSharded(ShardedConfig{
		Upstream: aggSrv.URL, K: 1, RoundSize: c, Seed: 98,
		Routing:      route.ModeHashQuota,
		ShardSpecs:   []route.ShardSpec{{}, {Addr: addr}},
		RemoteShards: map[string]RemoteShard{addr: rs},
		RetryBase:    time.Millisecond, RetryMax: 5 * time.Millisecond,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	box := &refusingSeal{lane: addr, failing: true}
	installQueue(t, px, box)
	pxSrv := httptest.NewServer(px.Handler())
	t.Cleanup(pxSrv.Close)
	for i, u := range perturbed(initial, c, 130) {
		resp := sendRaw(t, encl, pxSrv.URL, fmt.Sprintf("r-%d", i), u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("send r-%d: %s", i, resp.Status)
		}
	}
	if box.refused == 0 || px.Status().Rounds != 1 {
		t.Fatalf("want the round closed on a refused relay commit: %d refusals, status %+v", box.refused, px.Status())
	}
	_, err = px.StageTopology(context.Background(), wire.TopologyDirective{Mode: "hash-quota", SyncPeers: true})
	if err == nil {
		t.Fatal("sync_peers accepted with relayed material retained")
	}
	want := fmt.Sprintf("%d updates retained", c/2)
	if msg := err.Error(); !strings.Contains(msg, want) || !strings.Contains(msg, "next round close") || strings.Contains(msg, "mid-round") {
		t.Fatalf("refusal = %q, want it to name the %q that ride the next round close", msg, want)
	}
}

// TestHopBatchSkipsLoggedOnce: items the open round refuses are skipped
// one by one but reported once per batch — the peer chooses how many
// items a request carries, not how many lines it costs.
func TestHopBatchSkipsLoggedOnce(t *testing.T) {
	platform, encl := fixtures(t)
	lb := transport.NewLoopback()
	t.Cleanup(lb.Close)
	sink := &batchSink{}
	lb.Register("loop://sink", sink)
	hop, err := NewSharded(ShardedConfig{
		Upstream: "loop://sink", K: 2, RoundSize: 64, Shards: 2, Seed: 3, Transport: lb,
	}, encl, platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hop.Close)
	sess, err := enclave.NewSession(encl.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	send := func(items [][]byte) error {
		ct, err := sess.Wrap(batchBody(t, items...))
		if err != nil {
			t.Fatal(err)
		}
		_, err = hop.HandleBatch(context.Background(), transport.BatchRequest{Body: ct, Hop: 1})
		return err
	}
	model := encodeUpdates(t, perturbed(testArch().New(1).SnapshotParams(), 1, 0))
	other := encodeUpdates(t, perturbed(nn.NewMLP("net", 4, []int{5}, 2).New(1).SnapshotParams(), 6, 0))
	// One update opens shard 0's round with the test model; the other
	// model's batch then alternates between a shard that refuses it and
	// a fresh one that takes it.
	if err := send(model); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	err = send(other)
	log.SetOutput(prev)
	if err != nil {
		t.Fatalf("a partly applied batch must be acknowledged: %v", err)
	}
	st := hop.Status()
	if st.HopReceived != 1+len(other)/2 {
		t.Fatalf("hop ingested %d updates, want 1 + the %d a fresh shard accepts", st.HopReceived, len(other)/2)
	}
	lines := strings.Count(logged.String(), "\n")
	if lines != 1 || !strings.Contains(logged.String(), fmt.Sprintf("%d of %d updates skipped", len(other)/2, len(other))) ||
		!strings.Contains(logged.String(), "proxy: batch update ") {
		t.Fatalf("want one line naming the count and the first error, got %d:\n%s", lines, logged.String())
	}
}
