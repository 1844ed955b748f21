package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"mixnn/internal/core"
	"mixnn/internal/enclave"
	"mixnn/internal/nn"
	"mixnn/internal/outbox"
	"mixnn/internal/proxy"
	"mixnn/internal/route"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// The stage ledger times every stage an update crosses by calling the
// layer's public function directly, on one goroutine, with the
// workload's model: no queue, no lock contention, no second core. Each
// row is the median over repeated batches. Summed along the workload's
// path the rows say how much of the run's CPU per update the stages
// themselves account for; the remainder (scheduling, hand-offs, GC,
// contention, the generator's own books) is reported, not hidden.

// ledgerRound is the round the ledger cycles: one mixer, one outbox
// entry and one aggregator round of this many updates.
const ledgerRound = 64

type ledgerRun struct {
	budget time.Duration // per row
	out    map[string]float64
}

// row measures one stage. prep (untimed) sets up what run (timed)
// consumes; one run covers per updates. It records <name>_us and, when
// allocs is set, <name>_allocs per update.
func (l *ledgerRun) row(name string, per int, allocs bool, prep, run func()) {
	var ns, mallocs []float64
	var m0, m1 runtime.MemStats
	deadline := time.Now().Add(l.budget)
	for i := 0; i < 5 || time.Now().Before(deadline); i++ {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		run()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if i == 0 {
			continue // first batch warms caches and pools
		}
		ns = append(ns, float64(d.Nanoseconds())/float64(per))
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs)/float64(per))
	}
	l.out[name+"_us"] = median(ns) / 1e3
	if allocs {
		l.out[name+"_allocs"] = median(mallocs)
	}
}

// noopServer acknowledges everything: the far end of a bare forwarding
// measurement.
type noopServer struct{}

var _ transport.Server = noopServer{}

func (noopServer) HandleUpdate(context.Context, transport.UpdateRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, nil
}
func (noopServer) HandleHop(context.Context, transport.HopRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, nil
}
func (noopServer) HandleBatch(context.Context, transport.BatchRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, nil
}
func (noopServer) HandleAttest(context.Context, []byte) (wire.AttestationResponse, error) {
	return wire.AttestationResponse{}, transport.ErrNotSupported
}
func (noopServer) HandleModel(context.Context) (transport.ModelResponse, error) {
	return transport.ModelResponse{}, transport.ErrNotSupported
}
func (noopServer) HandleTopology(context.Context, transport.TopologyRequest) (wire.TopologyStatus, error) {
	return wire.TopologyStatus{}, transport.ErrNotSupported
}
func (noopServer) HandleStatus(context.Context) (transport.StatusResponse, error) {
	return transport.StatusResponse{}, transport.ErrNotSupported
}
func (noopServer) HandleDiscover(context.Context) (wire.DiscoverResponse, error) {
	return wire.DiscoverResponse{}, transport.ErrNotSupported
}

// runLedger measures every ledger row for w's model and sums them along
// w's path. cpuUs and allocsPer are the run's untraced CPU and
// allocations per update, which the sums are set against.
func runLedger(w *workload, in *inputs, total time.Duration, cpuUs, allocsPer float64) (_ map[string]float64, err error) {
	const rows = 15
	l := &ledgerRun{budget: total / rows, out: map[string]float64{}}
	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	ctx := context.Background()

	raws := make([][]byte, ledgerRound)
	for i := range raws {
		if raws[i], err = nn.EncodeParamSet(in.pool[i%poolSize]); err != nil {
			return nil, err
		}
	}

	l.row("nn.encode", ledgerRound, true, nil, func() {
		for i := 0; i < ledgerRound; i++ {
			_, e := nn.EncodeParamSet(in.pool[i%poolSize])
			fail(e)
		}
	})

	platform, err := enclave.NewPlatform()
	if err != nil {
		return nil, err
	}
	encl, err := enclave.New(enclave.Config{CodeIdentity: "mixnn-bench-ledger", RSABits: rsaBits}, platform)
	if err != nil {
		return nil, err
	}
	sess, err := enclave.NewSession(encl.PublicKey())
	if err != nil {
		return nil, err
	}
	first, err := sess.Wrap(raws[0]) // the establish frame; every later Wrap is a data frame
	if err != nil {
		return nil, err
	}
	if _, err = encl.Decrypt(first); err != nil {
		return nil, err
	}
	cts := make([][]byte, ledgerRound)
	// Each ciphertext opens once (the enclave rejects replayed
	// counters), so every decrypt batch gets freshly wrapped frames.
	wrapAll := func() {
		for i := range cts {
			var e error
			cts[i], e = sess.Wrap(raws[i])
			fail(e)
		}
	}
	l.row("enclave.wrap", ledgerRound, true, nil, wrapAll)
	l.row("enclave.decrypt", ledgerRound, true, wrapAll, func() {
		for _, ct := range cts {
			_, e := encl.Decrypt(ct)
			fail(e)
		}
	})
	l.row("enclave.establish", 4, false, nil, func() {
		for i := 0; i < 4; i++ {
			s, e := enclave.NewSession(encl.PublicKey())
			fail(e)
			ct, e := s.Wrap(raws[0])
			fail(e)
			_, e = encl.Decrypt(ct)
			fail(e)
		}
	})

	l.row("enclave.keygen", 1, false, nil, func() {
		_, e := enclave.New(enclave.Config{CodeIdentity: "mixnn-bench-ledger", RSABits: rsaBits}, platform)
		fail(e)
	})

	// The mixer cycle: ledgerRound decrypted buffers filed into a
	// slab-backed stream mixer, then the round-close drain and outbox
	// re-encode, then the slab back to its pool — the proxy's epoch.
	rng := rand.New(rand.NewSource(1))
	slabs := core.NewSlabPool()
	var (
		mixer   *core.StreamMixer
		bufs    = make([][]byte, ledgerRound)
		emitted []nn.ParamSet
		encBuf  []byte
	)
	fresh := func() {
		if mixer != nil {
			mixer.Drain()
			mixer.ReleaseSlab()
		}
		var e error
		mixer, e = core.NewStreamMixerSlab(w.K, rng, slabs)
		fail(e)
		for i := range bufs {
			bufs[i] = append([]byte(nil), raws[i]...) // AddWire takes ownership
		}
		emitted = emitted[:0]
	}
	fill := func() {
		for _, b := range bufs {
			out, e := mixer.AddWire(b)
			fail(e)
			if out != nil {
				emitted = append(emitted, *out)
			}
		}
	}
	l.row("core.addwire", ledgerRound, true, fresh, fill)
	l.row("core.drain_encode", ledgerRound, true, func() { fresh(); fill() }, func() {
		encBuf = encBuf[:0]
		for _, ps := range append(emitted, mixer.Drain()...) {
			var e error
			encBuf, e = nn.AppendParamSet(encBuf, ps)
			fail(e)
		}
		mixer.ReleaseSlab()
	})

	specs := make([]route.ShardSpec, max(w.LocalShards, 1))
	mode := route.ModeSticky
	if w.Cascade {
		specs = []route.ShardSpec{{}, {Addr: "loop://relay-0"}, {Addr: "loop://relay-1"}}
		mode = route.ModeHashQuota
	}
	topo, err := route.New(0, mode, w.Round, specs)
	if err != nil {
		return nil, err
	}
	ids := make([]string, w.Sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("p-%d", i)
	}
	const routeCalls = 4096
	l.row("route.route", routeCalls, false, nil, func() {
		st := topo.NewState()
		for i := 0; i < routeCalls; i++ {
			if i%w.Round == 0 {
				st = topo.NewState()
			}
			topo.Route(ids[i%len(ids)], st)
		}
	})

	var batch []byte
	l.row("wire.batch_encode", ledgerRound, false, nil, func() {
		var e error
		batch, e = wire.BatchEnvelope{Updates: raws}.Encode()
		fail(e)
	})
	l.row("wire.batch_decode", ledgerRound, false, nil, func() {
		_, e := wire.DecodeBatchEnvelope(batch)
		fail(e)
	})
	var entry []byte
	l.row("outbox.envelope", ledgerRound, false, nil, func() {
		env := outbox.Envelope{Epoch: 1, Hop: 1, Updates: raws}
		var e error
		entry, e = env.Marshal()
		fail(e)
		_, e = outbox.ParseEnvelope(entry)
		fail(e)
	})
	box := outbox.NewMemory()
	l.row("outbox.put_ack", ledgerRound, false, nil, func() {
		seq, e := box.Put(entry)
		fail(e)
		_, _, e = box.NextIn("")
		fail(e)
		fail(box.Ack(seq))
	})

	agg, err := proxy.NewAggServer(in.pool[0], ledgerRound)
	if err != nil {
		return nil, err
	}
	l.row("agg.absorb", ledgerRound, true, nil, func() {
		_, e := agg.HandleBatch(ctx, transport.BatchRequest{Body: batch})
		fail(e)
	})

	// Bare forwarding at the smallest message: what each transport
	// charges per message before any application work.
	lb := transport.NewLoopback()
	lb.Register("loop://noop", noopServer{})
	const rttCalls = 256
	l.row("transport.loopback_rtt", rttCalls, true, nil, func() {
		for i := 0; i < rttCalls; i++ {
			_, e := lb.SendUpdate(ctx, "loop://noop", transport.UpdateRequest{Body: []byte{1}})
			fail(e)
		}
	})
	lb.Close()

	ln, e := net.Listen("tcp", "127.0.0.1:0")
	if e != nil {
		return nil, e
	}
	hs := &http.Server{Handler: transport.NewHandler(noopServer{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // ErrServerClosed after Shutdown
	}()
	ht := &http.Transport{}
	hc := transport.NewHTTP(&http.Client{Transport: ht, Timeout: 10 * time.Second})
	ep := "http://" + ln.Addr().String()
	l.row("transport.http_rtt", ledgerRound, true, nil, func() {
		for i := 0; i < ledgerRound; i++ {
			_, e := hc.SendUpdate(ctx, ep, transport.UpdateRequest{Body: []byte{1}})
			fail(e)
		}
	})
	ht.CloseIdleConnections()
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	fail(hs.Shutdown(sctx))
	cancel()
	<-served
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}

	// The path of one update through a one-front tier: SDK encode and
	// wrap, the participant leg, decrypt, route, file into the mixer,
	// its share of the round close (drain, encode, envelope, queue,
	// batch framing, the delivery leg) and the aggregator's absorb.
	o := l.out
	rtt, rttAllocs := o["transport.loopback_rtt_us"], o["transport.loopback_rtt_allocs"]
	if w.HTTP {
		rtt, rttAllocs = o["transport.http_rtt_us"], o["transport.http_rtt_allocs"]
	}
	perRound := 1 + 1/float64(w.Round)
	o["ledger.sum_us"] = o["nn.encode_us"] + o["enclave.wrap_us"] + rtt*perRound + o["enclave.decrypt_us"] +
		o["route.route_us"] + o["core.addwire_us"] + o["core.drain_encode_us"] + o["outbox.envelope_us"] +
		o["outbox.put_ack_us"] + o["wire.batch_encode_us"] + o["wire.batch_decode_us"] + o["agg.absorb_us"]
	o["ledger.sum_allocs"] = o["nn.encode_allocs"] + o["enclave.wrap_allocs"] + rttAllocs*perRound +
		o["enclave.decrypt_allocs"] + o["core.addwire_allocs"] + o["core.drain_encode_allocs"] + o["agg.absorb_allocs"]
	o["ledger.unattributed_share"], o["ledger.unattributed_allocs_share"] = 0, 0
	if cpuUs > 0 {
		o["ledger.unattributed_share"] = 1 - o["ledger.sum_us"]/cpuUs
	}
	if allocsPer > 0 {
		o["ledger.unattributed_allocs_share"] = 1 - o["ledger.sum_allocs"]/allocsPer
	}
	return o, nil
}
