// Multiproc: the one-enclave-per-shard mixing tier. A front proxy routes
// a round across three shards by hash-quota — one mixed locally in the
// front enclave, two RELAYED to peer shard proxies, each holding its own
// enclave — and the aggregation server receives exactly one round whose
// mean equals classic FedAvg. This is the multi-process deployment the
// routing plane (internal/route) unlocks: every shard proxy here runs
// its own attested enclave and HTTP server, exactly what a real
// deployment runs as separate OS processes via `mixnn-proxy
// -shards-file` (the equivalent command lines are printed at the end).
//
//	go run ./examples/multiproc
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"mixnn/internal/client"
	"mixnn/internal/enclave"
	"mixnn/internal/experiment"
	"mixnn/internal/nn"
	"mixnn/internal/proxy"
	"mixnn/internal/route"
	"mixnn/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		participants = 8
		seed         = int64(42)
	)
	spec, err := experiment.DatasetByKey("motionsense", experiment.ScaleQuick, seed)
	if err != nil {
		return err
	}
	arch := spec.Arch
	platform, err := enclave.NewPlatform()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	agg, err := proxy.NewAggServer(arch.New(seed).SnapshotParams(), participants)
	if err != nil {
		return err
	}
	aggSrv := httptest.NewServer(agg.Handler())
	defer aggSrv.Close()

	// The topology: shard 0 local (weight 2 — half the round), shards 1
	// and 2 remote, each its own proxy with its own enclave.
	topo, err := route.New(0, route.ModeHashQuota, participants, []route.ShardSpec{
		{Weight: 2}, {Addr: "placeholder://1", Weight: 1}, {Addr: "placeholder://2", Weight: 1},
	})
	if err != nil {
		return err
	}
	specs := topo.Specs()
	remotes := make(map[string]proxy.RemoteShard)
	type shardProc struct {
		px  *proxy.ShardedProxy
		url string
	}
	var procs []shardProc
	for s := 1; s < topo.P(); s++ {
		encl, err := enclave.New(enclave.Config{CodeIdentity: fmt.Sprintf("mixnn-shard-%d", s)}, platform)
		if err != nil {
			return err
		}
		px, err := proxy.NewSharded(proxy.ShardedConfig{
			Upstream: aggSrv.URL, K: 2, RoundSize: topo.Quota(s), Shards: 1, Seed: seed + int64(s),
		}, encl, platform)
		if err != nil {
			return err
		}
		defer px.Close()
		srv := httptest.NewServer(px.Handler())
		defer srv.Close()
		key, err := proxy.AttestHopOver(ctx, transport.NewHTTP(nil), srv.URL, platform.AttestationPublicKey(), encl.Measurement())
		if err != nil {
			return err
		}
		specs[s].Addr = srv.URL
		remotes[srv.URL] = proxy.RemoteShard{Key: key}
		procs = append(procs, shardProc{px: px, url: srv.URL})
		fmt.Printf("shard %d: own enclave (%s), quota %d/round, serving %s\n",
			s, fmt.Sprintf("mixnn-shard-%d", s), topo.Quota(s), srv.URL)
	}

	frontEncl, err := enclave.New(enclave.Config{CodeIdentity: "mixnn-front"}, platform)
	if err != nil {
		return err
	}
	front, err := proxy.NewSharded(proxy.ShardedConfig{
		Upstream: aggSrv.URL, K: 2, RoundSize: participants,
		Routing: route.ModeHashQuota, ShardSpecs: specs, RemoteShards: remotes,
		Seed: seed,
	}, frontEncl, platform)
	if err != nil {
		return err
	}
	defer front.Close()
	frontSrv := httptest.NewServer(front.Handler())
	defer frontSrv.Close()
	fmt.Printf("front:   enclave mixnn-front, %d shards (1 local + %d remote), serving %s\n\n",
		topo.P(), len(procs), frontSrv.URL)

	// One round of participants through the front tier, each a
	// participant-SDK session (the same client.New call drives a real
	// deployment; here the failover list has one entry).
	updates := make([]nn.ParamSet, participants)
	for i := range updates {
		updates[i] = arch.New(seed + int64(i) + 1).SnapshotParams()
		part, err := client.New(client.Config{
			Proxies:  []string{frontSrv.URL},
			Server:   aggSrv.URL,
			ClientID: fmt.Sprintf("client-%d", i),
		})
		if err != nil {
			return err
		}
		if err := part.Attest(ctx, platform.AttestationPublicKey(), frontEncl.Measurement()); err != nil {
			return err
		}
		if err := part.SendUpdate(ctx, updates[i]); err != nil {
			return err
		}
	}
	for agg.Round() < 1 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("round did not close: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}

	st := front.Status()
	fmt.Println("front tier after the round:")
	for _, sh := range st.Shards {
		placement := "local mixer"
		if sh.Addr != "" {
			placement = "relayed to " + sh.Addr
		}
		fmt.Printf("  shard %d: quota %d, %s\n", sh.Shard, sh.Quota, placement)
	}
	want, err := nn.Average(updates)
	if err != nil {
		return err
	}
	if agg.Global().ApproxEqual(want, 1e-9) {
		fmt.Println("\naggregate == classic FedAvg @1e-9: mixing across three enclaves changed nothing the server can see.")
	} else {
		return fmt.Errorf("aggregate diverged from classic FedAvg")
	}

	fmt.Println("\nthe same tier as real OS processes:")
	fmt.Printf("  mixnn-proxy -listen :8443 -round-size %d -upstream http://localhost:8440 -trust-out shard1.json\n", topo.Quota(1))
	fmt.Printf("  mixnn-proxy -listen :8444 -round-size %d -upstream http://localhost:8440 -trust-out shard2.json\n", topo.Quota(2))
	fmt.Printf("  mixnn-proxy -listen :8441 -round-size %d -shards-file topology.json\n", participants)
	fmt.Println(`  # topology.json:
  {"mode": "hash-quota", "shards": [
    {"weight": 2},
    {"addr": "http://localhost:8443", "weight": 1, "trust_file": "shard1.json"},
    {"addr": "http://localhost:8444", "weight": 1, "trust_file": "shard2.json"}]}`)
	return nil
}
