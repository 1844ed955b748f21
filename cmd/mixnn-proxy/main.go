// Command mixnn-proxy runs the MixNN mixing tier inside a simulated SGX
// enclave: it decrypts participant updates, mixes their layers across P
// independent k-buffer stream-mixer shards, and forwards the mixed updates
// either to the aggregation server or — in cascade mode — re-encrypted to
// a next-hop mixing proxy, so no single proxy observes the full
// participant↔update linkage.
//
// On startup it writes a trust bundle (attestation-authority public key +
// enclave measurement) that participants (and upstream proxies of a
// cascade) use to verify the enclave before encrypting updates for it:
//
//	mixnn-proxy -listen :8441 -upstream http://localhost:8440 \
//	    -round-size 8 -k 4 -shards 2 -trust-out trust.json
//
//	# cascade: front tier forwards to a second mixing hop
//	mixnn-proxy -listen :8442 -round-size 8 -k 4 -trust-out hop.json
//	mixnn-proxy -listen :8441 -round-size 8 -k 4 -shards 2 \
//	    -next-hop http://localhost:8442 -next-hop-trust hop.json
//
// Delivery is asynchronous: a drained round is committed to an outbox
// and delivered downstream as one /v1/batch POST by a background
// dispatcher with bounded retry (-retry caps the backoff), so a
// downstream outage neither blocks ingress nor loses updates. With
// -outbox-dir the outbox is a sealed on-disk queue and delivery also
// survives proxy restarts:
//
//	mixnn-proxy -listen :8441 -round-size 8 -k 4 -shards 2 \
//	    -outbox-dir proxy.outbox -fuse-file proxy.fuse -retry 5s
//
// Crash/restart durability: with -state-file the proxy seals its whole
// tier (every shard's buffered layers, pending emissions + the round
// ledger) on SIGINT or SIGTERM and restores it at the next start, so a
// mid-round restart loses no participant material. The restarted proxy
// comes back under the topology the blob was sealed under, so the open
// round finishes under the plan it opened under; a different -shards,
// -routing, -round-size or -shards-file on the restart command line is
// staged like any other directive and takes effect at the next round
// close (at once when the restored tier is idle). Sealing keys derive
// from the platform fuse secret, so -state-file (and -outbox-dir) require
// -fuse-file (and restoring needs the same -identity):
//
//	mixnn-proxy -listen :8441 -round-size 8 -k 4 -shards 2 \
//	    -state-file proxy.state -fuse-file proxy.fuse
package main

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/outbox"
	"mixnn/internal/proxy"
	"mixnn/internal/route"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mixnn-proxy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mixnn-proxy", flag.ContinueOnError)
	var (
		listen       = fs.String("listen", ":8441", "address to serve on")
		upstream     = fs.String("upstream", "http://localhost:8440", "aggregation server base URL")
		nextHop      = fs.String("next-hop", "", "next mixing proxy base URL (cascade mode; overrides -upstream)")
		nextHopTrust = fs.String("next-hop-trust", "", "trust bundle file of the next hop (required with -next-hop)")
		nextHopSec   = fs.String("next-hop-secret", "", "inter-proxy secret sent with forwarded hop traffic")
		hopSecret    = fs.String("hop-secret", "", "inter-proxy secret required on this proxy's /v1/hop and /v1/batch endpoints and its topology admin plane")
		shards       = fs.Int("shards", 1, "number of independent mixing shards (P)")
		routing      = fs.String("routing", "sticky", "shard routing mode: sticky or hash-quota")
		shardsFile   = fs.String("shards-file", "", "topology file (JSON TopologyDirective: mode, weighted shards, remote shards with trust_file); staged over -shards/-routing at start-up and hot-reloaded on change, at round boundaries")
		roundSize    = fs.Int("round-size", 8, "total updates per round (C) across all shards")
		k            = fs.Int("k", 4, "per-shard mixing list capacity (<= shard round share)")
		maxHops      = fs.Int("max-hops", proxy.DefaultMaxHops, "maximum cascade depth accepted/forwarded")
		constMs      = fs.Int("const-ms", 0, "constant per-update processing time in ms (side-channel hardening; 0 = off)")
		identity     = fs.String("identity", "mixnn-proxy-v1", "enclave code identity (measured)")
		trustOut     = fs.String("trust-out", "trust.json", "file to write the participant trust bundle to")
		stateFile    = fs.String("state-file", "", "sealed tier state: restored at startup if present (under its sealed topology; a different shape on this command line applies at the next round close), written on SIGINT/SIGTERM")
		fuseFile     = fs.String("fuse-file", "", "platform fuse-secret file (created if missing); required for -state-file/-outbox-dir restores across process restarts")
		outboxDir    = fs.String("outbox-dir", "", "sealed delivery outbox directory: drained rounds are committed here before forwarding and survive restarts (requires -fuse-file); empty = in-memory queue")
		retry        = fs.Duration("retry", 5*time.Second, "maximum delivery retry backoff per destination lane (jittered)")
		workers      = fs.Int("delivery-workers", outbox.DefaultWorkers, "destination lanes delivering at once; a dead peer stalls only its own lane")
		seed         = fs.Int64("seed", time.Now().UnixNano(), "mixing randomness seed")
		endpoint     = fs.String("endpoint", "", "this proxy's advertised base URL in /v1/discover (empty = not advertised)")
		peers        = fs.String("peers", "", "comma-separated peer front endpoints advertised via /v1/discover for SDK bootstrap")
		rateLimit    = fs.Float64("rate-limit", 0, "per-sender participant update budget in updates/sec (0 = unlimited)")
		rateBurst    = fs.Float64("rate-burst", 0, "per-sender token-bucket burst (0 = max(1, -rate-limit))")
		shedDepth    = fs.Int("shed-queue-depth", 0, "shed ALL participant ingress with 429 while the committed-but-undelivered outbox backlog reaches this (0 = never shed)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stateFile != "" && *fuseFile == "" {
		// Without a persisted fuse secret the next process draws a fresh
		// one, the sealed blob can never be unsealed, and startup fails —
		// sealing unrecoverable state is strictly worse than not sealing.
		return fmt.Errorf("-state-file requires -fuse-file (a sealed blob is only restorable under the same fuse secret)")
	}
	if *outboxDir != "" && *fuseFile == "" {
		// Same reasoning: outbox entries sealed under an ephemeral fuse
		// secret would be unreadable garbage to the next process.
		return fmt.Errorf("-outbox-dir requires -fuse-file (sealed entries are only restorable under the same fuse secret)")
	}

	platform, err := loadPlatform(*fuseFile)
	if err != nil {
		return err
	}
	encl, err := enclave.New(enclave.Config{
		CodeIdentity:       *identity,
		ConstantProcessing: time.Duration(*constMs) * time.Millisecond,
	}, platform)
	if err != nil {
		return err
	}

	mode, err := route.ParseMode(*routing)
	if err != nil {
		return err
	}
	cfg := proxy.ShardedConfig{
		Upstream:        *upstream,
		Shards:          *shards,
		Routing:         mode,
		K:               *k,
		RoundSize:       *roundSize,
		MaxHops:         *maxHops,
		Seed:            *seed,
		HopSecret:       *hopSecret,
		NextHopSecret:   *nextHopSec,
		OutboxDir:       *outboxDir,
		RetryMax:        *retry,
		DeliveryWorkers: *workers,
		Endpoint:        *endpoint,
		Peers:           splitPeers(*peers),
		RatePerSec:      *rateLimit,
		RateBurst:       *rateBurst,
		ShedQueueDepth:  *shedDepth,
	}
	// The shape this command line asks for, as a directive: the shards
	// file when there is one, else whichever of -shards, -routing and
	// -round-size were typed — a flag left at its default keeps what the
	// tier has, as a directive's zero field does.
	var plan wire.TopologyDirective
	planSource := "the command line"
	if *shardsFile != "" {
		if plan, err = loadShardsFile(*shardsFile); err != nil {
			return err
		}
		planSource = *shardsFile
	} else {
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "shards":
				plan.Shards = make([]wire.TopologyShardSpec, *shards)
			case "routing":
				plan.Mode = *routing
			case "round-size":
				plan.RoundSize = *roundSize
			}
		})
	}
	if *nextHop != "" {
		if *nextHopTrust == "" {
			return fmt.Errorf("-next-hop requires -next-hop-trust")
		}
		hopKey, err := pinNextHop(*nextHop, *nextHopTrust)
		if err != nil {
			return err
		}
		cfg.Upstream, cfg.NextHop, cfg.NextHopKey = "", *nextHop, hopKey
		hopMeas := hopKey.Measurement()
		log.Printf("mixnn-proxy: cascade hop attested, measurement %s", hex.EncodeToString(hopMeas[:]))
	}

	px, err := proxy.NewSharded(cfg, encl, platform)
	if err != nil {
		return err
	}

	restored := false
	if *stateFile != "" {
		blob, err := os.ReadFile(*stateFile)
		switch {
		case errors.Is(err, os.ErrNotExist):
			log.Printf("mixnn-proxy: no sealed state at %s, starting fresh", *stateFile)
		case err != nil:
			return fmt.Errorf("read sealed state: %w", err)
		default:
			if err := px.RestoreState(blob); err != nil {
				return fmt.Errorf("restore sealed state: %w", err)
			}
			restored = true
			st := px.Status()
			log.Printf("mixnn-proxy: restored sealed state under its sealed plan (topology v%d: %d shards, %s routing; %d updates into the round)",
				st.TopoVersion, len(st.Shards), st.RoutingMode, st.InRound)
		}
	}
	// Start-up, restart and hot reload reshape the tier one way: a staged
	// directive. On a fresh tier (idle) it applies at once; on a restored
	// one the open round finishes under its sealed plan first. A plan the
	// restored blob cannot take fails start-up with the blob unconsumed.
	if !sameShape(px.Topology(), plan) {
		if err := stagePlan(px, plan, planSource); err != nil {
			return err
		}
	}
	if restored {
		// Consume the blob: once restored, its material flows onward,
		// and replaying it after a later hard crash (no fresh seal)
		// would double-count already-forwarded updates upstream.
		// Rename rather than delete so a startup failure between here
		// and serving (port in use, trust-bundle write) doesn't lose
		// the round — the operator can move the .restored file back.
		if err := os.Rename(*stateFile, *stateFile+".restored"); err != nil {
			return fmt.Errorf("consume state file: %w", err)
		}
		// Re-attest remote shards from the sealed trust material so
		// the tier's relay legs deliver without waiting for an admin
		// directive or a shards-file reload. Best-effort AND
		// asynchronous: a still-down peer keeps its queued material
		// stalled (never lost), and blocking startup on it would
		// take participant ingress down with it.
		go func() {
			rctx, rcancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer rcancel()
			if err := px.ReattestRemotes(rctx); err != nil {
				log.Printf("mixnn-proxy: re-attest remote shards: %v", err)
			} else if n := len(px.Topology().Remotes()); n > 0 {
				log.Printf("mixnn-proxy: re-attested the sealed plan's %d remote shard(s) from the blob's trust material", n)
			}
		}()
	}

	authDER, err := x509.MarshalPKIXPublicKey(platform.AttestationPublicKey())
	if err != nil {
		return fmt.Errorf("marshal authority key: %w", err)
	}
	meas := encl.Measurement()
	bundle, err := json.MarshalIndent(enclave.TrustBundle{
		AuthorityPubDER: authDER,
		MeasurementHex:  hex.EncodeToString(meas[:]),
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*trustOut, bundle, 0o600); err != nil {
		return fmt.Errorf("write trust bundle: %w", err)
	}

	log.Printf("mixnn-proxy: enclave measurement %s", hex.EncodeToString(meas[:]))
	log.Printf("mixnn-proxy: trust bundle written to %s", *trustOut)
	downstream := cfg.Upstream
	if cfg.NextHop != "" {
		downstream = cfg.NextHop + " (cascade)"
	}
	topo := px.Topology()
	log.Printf("mixnn-proxy: topology v%d mode=%s shards=%d (%d remote) round-size=%d k=%d downstream=%s listening on %s",
		topo.Version(), topo.Mode(), topo.P(), len(topo.Remotes()), topo.RoundSize(), *k, downstream, *listen)

	// Hot reload: poll the shards file and stage its directive when it
	// changes; the new topology applies at the next round boundary.
	if *shardsFile != "" {
		go watchShardsFile(*shardsFile, px)
	}
	srv := &http.Server{
		Addr:              *listen,
		Handler:           px.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if *stateFile == "" {
		defer px.Close()
		return srv.ListenAndServe()
	}

	// With durable state configured, catch SIGINT/SIGTERM, seal the tier
	// to the state file and drain in-flight requests before exiting.
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		log.Printf("mixnn-proxy: %v: sealing tier state to %s", sig, *stateFile)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr := srv.Shutdown(ctx)
		if shutdownErr != nil {
			// Graceful drain timed out with handlers still in flight.
			// Force-close their connections BEFORE sealing so no handler
			// can acknowledge an update after the snapshot (acknowledged
			// material in neither the blob nor upstream would be silently
			// lost). This is best-effort, not exactly-once: an unacked
			// update that made it into the snapshot is duplicated if the
			// client retries, and round-drained material still mid-forward
			// when the process exits is lost — closing the latter gap
			// needs -outbox-dir (entries persist on disk and redeliver
			// after restart). The graceful path (Shutdown returning nil)
			// has neither problem.
			srv.Close()
		}
		// Best-effort outbox drain before exit: with -outbox-dir the
		// entries would survive anyway, but delivering now hands the
		// material off without waiting for the next start; without it
		// this is the in-memory queue's only chance.
		flushCtx, flushCancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := px.Flush(flushCtx); err != nil {
			log.Printf("mixnn-proxy: outbox not fully drained at shutdown: %v", err)
		}
		flushCancel()
		px.Close()
		blob, err := px.SealState()
		if err != nil {
			return fmt.Errorf("seal tier state: %w", err)
		}
		// Temp-file + rename so a crash or full disk mid-write cannot
		// leave a truncated blob where a good one (or nothing) was.
		tmp := *stateFile + ".tmp"
		if err := os.WriteFile(tmp, blob, 0o600); err != nil {
			return fmt.Errorf("write sealed state: %w", err)
		}
		if err := os.Rename(tmp, *stateFile); err != nil {
			return fmt.Errorf("commit sealed state: %w", err)
		}
		st := px.Status()
		log.Printf("mixnn-proxy: sealed %d-shard tier (%d updates into the round)", len(st.Shards), st.InRound)
		return shutdownErr
	}
}

// splitPeers parses the -peers flag: comma-separated endpoints, blanks
// dropped so a trailing comma is harmless.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// loadShardsFile parses a topology file: a wire.TopologyDirective in
// JSON, remote shards referencing their trust bundles by trust_file.
func loadShardsFile(path string) (wire.TopologyDirective, error) {
	var d wire.TopologyDirective
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, fmt.Errorf("read shards file: %w", err)
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("parse shards file %s: %w", path, err)
	}
	if len(d.Shards) == 0 {
		return d, fmt.Errorf("shards file %s names no shards", path)
	}
	return d, nil
}

// sameShape reports whether the directive asks for nothing the topology
// does not already have (the zero directive asks for nothing), so a
// restart that repeats its command line stages no plan.
func sameShape(t *route.Topology, d wire.TopologyDirective) bool {
	if d.Mode != "" {
		if mode, err := route.ParseMode(d.Mode); err != nil || mode != t.Mode() {
			return false
		}
	}
	if d.RoundSize != 0 && d.RoundSize != t.RoundSize() {
		return false
	}
	if d.Shards != nil && len(d.Shards) != t.P() {
		return false
	}
	for i, s := range d.Shards {
		if s.Weight == 0 {
			s.Weight = 1 // as route.New reads it
		}
		if (route.ShardSpec{Addr: s.Addr, Weight: s.Weight}) != t.Spec(i) {
			return false
		}
	}
	return true
}

// stagePlan stages a directive through the tier's routing plane — the one
// way its shape changes after construction — attesting any new remote
// shard first (it must be up), and logs where the plan stands.
func stagePlan(px *proxy.ShardedProxy, d wire.TopologyDirective, source string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	next, err := px.StageTopology(ctx, d)
	if err != nil {
		return fmt.Errorf("stage topology from %s: %w", source, err)
	}
	when := "applies at the next round close"
	if px.Topology().Version() == next.Version() {
		when = "applied (the tier was idle)"
	}
	log.Printf("mixnn-proxy: staged topology v%d (mode=%s, %d shards, %d remote, round-size=%d) from %s; %s",
		next.Version(), next.Mode(), next.P(), len(next.Remotes()), next.RoundSize(), source, when)
	return nil
}

// shardsFileFingerprint identifies the topology file's current contents.
// A content hash — not mtime — is what change detection compares:
// filesystem timestamps are often second-granular, so an edit-save-edit
// within one second leaves the mtime unchanged and a ModTime comparison
// would silently skip the second edit. Hashing also makes touch(1) (same
// bytes, new mtime) a no-op instead of a spurious reload.
func shardsFileFingerprint(path string) ([sha256.Size]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(raw), nil
}

// watchShardsFile polls the topology file and stages its directive when
// its contents change. A bad edit is logged and skipped — the tier keeps
// its current topology.
func watchShardsFile(path string, px *proxy.ShardedProxy) {
	last, _ := shardsFileFingerprint(path)
	for {
		time.Sleep(2 * time.Second)
		sum, err := shardsFileFingerprint(path)
		if err != nil || sum == last {
			continue
		}
		last = sum
		d, err := loadShardsFile(path)
		if err == nil {
			err = stagePlan(px, d, path)
		}
		if err != nil {
			log.Printf("mixnn-proxy: shards file reload: %v", err)
		}
	}
}

// loadPlatform builds the simulated SGX platform. With a fuse file the
// fuse secret persists across process restarts — the simulation of
// permanent CPU fuses — which is what lets a restarted proxy unseal the
// state a previous run sealed. Without one the secret is ephemeral.
func loadPlatform(fuseFile string) (*enclave.Platform, error) {
	if fuseFile == "" {
		return enclave.NewPlatform()
	}
	var fuse [32]byte
	raw, err := os.ReadFile(fuseFile)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if _, err := rand.Read(fuse[:]); err != nil {
			return nil, fmt.Errorf("draw fuse secret: %w", err)
		}
		if err := os.WriteFile(fuseFile, fuse[:], 0o600); err != nil {
			return nil, fmt.Errorf("write fuse file: %w", err)
		}
		log.Printf("mixnn-proxy: new fuse secret written to %s", fuseFile)
	case err != nil:
		return nil, fmt.Errorf("read fuse file: %w", err)
	case len(raw) != len(fuse):
		return nil, fmt.Errorf("fuse file %s holds %d bytes, want %d", fuseFile, len(raw), len(fuse))
	default:
		copy(fuse[:], raw)
	}
	return enclave.NewPlatformWithFuse(fuse)
}

// pinNextHop loads the next hop's trust bundle and runs the proxy-to-proxy
// attestation handshake against its /v1/attestation endpoint — the same
// resolution a -shards-file remote shard gets.
func pinNextHop(nextHopURL, bundlePath string) (*enclave.HopKey, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rs, err := proxy.ResolveRemoteShardOver(ctx, wire.TopologyShardSpec{Addr: nextHopURL, TrustFile: bundlePath}, transport.NewHTTP(nil))
	if err != nil {
		return nil, fmt.Errorf("next hop: %w", err)
	}
	return rs.Key, nil
}
