package proxy

import (
	"context"
	"crypto/ecdsa"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	randv2 "math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mixnn/internal/core"
	"mixnn/internal/enclave"
	"mixnn/internal/health"
	"mixnn/internal/nn"
	"mixnn/internal/outbox"
	"mixnn/internal/route"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// DefaultMaxHops bounds cascade depth: a forwarded update whose hop count
// exceeds this is rejected, which breaks accidental forwarding cycles.
const DefaultMaxHops = 4

// ShardedConfig parameterises a sharded (and optionally cascaded) MixNN
// proxy tier.
type ShardedConfig struct {
	// Upstream is the aggregation server base URL; mixed updates go there
	// in plaintext when no NextHop is configured.
	Upstream string
	// NextHop, when non-empty, is the base URL of the next mixing proxy of
	// the cascade. Mixed rounds are wrapped under NextHopKey's session and
	// posted to {NextHop}/v1/batch instead of Upstream.
	NextHop string
	// NextHopKey is the attested (or pinned) key material for NextHop.
	// Required when NextHop is set.
	NextHopKey *enclave.HopKey
	// NextHopSecret, when non-empty, is sent as a bearer token with
	// forwarded hop traffic (it must match the next hop's HopSecret).
	NextHopSecret string
	// HopSecret, when non-empty, gates this proxy's /v1/hop and /v1/batch
	// endpoints: requests without the matching bearer token are rejected.
	// Without it any party holding the (public) enclave key can post hop
	// traffic and poison the round's hop watermark, killing the round at
	// the next depth check.
	HopSecret string
	// Shards is the number of independent mixing shards P (default 1).
	// It is the shorthand for a uniform all-local topology; ShardSpecs
	// overrides it.
	Shards int
	// Routing selects the shard-routing policy (default route.ModeSticky,
	// the pre-routing-plane behaviour: client-hash with round-robin
	// fallback).
	Routing route.Mode
	// ShardSpecs, when non-nil, describes the initial topology in full:
	// per-shard weights and remote placement. nil = Shards local shards
	// of weight 1.
	ShardSpecs []route.ShardSpec
	// RemoteShards maps a remote shard address to its attested key
	// material. Every remote address in ShardSpecs needs an entry (or a
	// later RegisterRemote) before its material can be relayed.
	RemoteShards map[string]RemoteShard
	// DedupWindow sizes the batch-dedup FIFO on this proxy's /v1/batch
	// endpoint (default DefaultDedupWindow). Redeliveries whose id has
	// aged out of the window are rejected with 409 via the sender
	// sequence watermark instead of being silently re-absorbed.
	DedupWindow int
	// AdoptSealedTopology makes RestoreState adopt the topology sealed
	// inside the state blob (mode, weights, remote placement, quota
	// loads) instead of resharding the material into this tier's
	// configured topology. mixnn-proxy sets it unless the operator
	// explicitly asked for a different shape on the restart command line.
	AdoptSealedTopology bool
	// K is the per-shard list capacity of each stream mixer; it is clamped
	// to the shard's round-robin share of RoundSize so every shard's
	// buffer fills and drains within a round.
	K int
	// RoundSize is the total number of updates per round (C) across all
	// shards; when it is reached every shard is drained, the drained round
	// is committed to the delivery outbox as one entry, and fresh mixers
	// take over for the next round.
	RoundSize int
	// MaxHops bounds cascade depth (default DefaultMaxHops).
	MaxHops int
	// Seed drives the mixing randomness (each shard derives its own
	// stream from it, per epoch).
	Seed int64
	// OutboxDir is the durable delivery queue directory. Drained rounds
	// are sealed under an enclave-derived key and committed there before
	// any network send, so delivery survives downstream outages AND proxy
	// crashes. Empty = an in-memory queue: delivery is still asynchronous
	// and retried, but entries die with the process.
	OutboxDir string
	// RetryBase and RetryMax bound each delivery lane's exponential
	// backoff (defaults outbox.DefaultRetryBase/Max).
	RetryBase time.Duration
	RetryMax  time.Duration
	// DeliveryWorkers bounds how many destination lanes deliver
	// concurrently (default outbox.DefaultWorkers). A lane is drained by
	// at most one worker at a time, so per-destination ordering is
	// unaffected by the worker count.
	DeliveryWorkers int
	// DeliveryTimeout bounds one delivery attempt (default
	// outbox.DefaultAttemptTimeout; clamped to at least RetryMax).
	DeliveryTimeout time.Duration
	// Transport carries every outbound leg of this tier — batch delivery
	// downstream, relay legs to remote shards, and the hop attestation
	// handshakes admin directives trigger. nil = the HTTP transport; a
	// transport.Loopback here runs the whole tier in-process.
	Transport transport.Transport

	// Endpoint is this proxy's own advertised base URL on /v1/discover
	// (how participants should address it); empty = not advertised.
	Endpoint string
	// Peers lists sibling front endpoints advertised on /v1/discover so
	// a participant that knows one seed can learn the full failover set.
	// Learned peers still gate on attestation before any material flows,
	// so a wrong (or malicious) peer list cannot redirect updates to an
	// unattested enclave — it can only waste a probe.
	Peers []string
	// RatePerSec enables the per-sender token-bucket admission limiter
	// on the participant ingress: each ClientID may sustain this many
	// updates/sec with bursts up to RateBurst (default = RatePerSec,
	// floor 1). 0 disables rate limiting — the default, so existing
	// deployments are unchanged. Over-budget sends are refused with a
	// typed 429 + Retry-After before any enclave work, provably not
	// ingested.
	RatePerSec float64
	RateBurst  float64
	// Load-shedding thresholds: while ANY enabled signal is at or above
	// its threshold the participant ingress refuses everything with 429.
	// Each 0 disables that signal (all default off). The signals are the
	// live ingress queue depth (IngressDepth), the deepest outbox
	// delivery lane, and the mean enclave decrypt latency in µs.
	ShedQueueDepth    int
	ShedLaneBacklog   int
	ShedDecryptMicros float64
	// IngressDepth reports the live ingress queue depth feeding this
	// proxy (e.g. a closure over Loopback.QueueDepth, or a listener's
	// accept backlog); nil = the signal falls back to the
	// committed-but-undelivered outbox backlog, the tier's real
	// ingress-to-egress queue in deployments with no observable
	// transport queue (the HTTP daemon).
	IngressDepth func() int
	// DisableMetrics turns off the /v1/metrics operator registry; the
	// endpoint then answers 404, like a binary without it.
	DisableMetrics bool
}

// ShardedProxy is the horizontally-scaled MixNN mixing tier: participants
// are partitioned across P independent stream mixers (shards) behind one
// endpoint, and the mixed output optionally cascades to a next-hop proxy
// re-encrypted for that hop's enclave. Sharding removes the single-mixer
// bottleneck; cascading restores mixing breadth across shards (a layer
// that stayed within its shard on hop 1 is re-mixed against the whole
// round on hop 2) and unlinks each proxy's view — no single hop observes
// both who sent an update and what reaches the aggregation server.
//
// Delivery is asynchronous: ingress never blocks on the downstream. When
// a round closes, the shards atomically swap to fresh mixers (so round
// N+1 ingests immediately — cross-round pipelining) while the drained
// round is committed to a sealed outbox entry and delivered by a
// background dispatcher as one batch, with bounded retry across
// downstream outages and, with OutboxDir set, across proxy restarts.
type ShardedProxy struct {
	cfg      ShardedConfig
	enclave  *enclave.Enclave
	platform *enclave.Platform
	tr       transport.Transport
	box      outbox.Queue
	disp     *outbox.Dispatcher
	seen     batchDedup
	// planner owns the routing plane's lifecycle: admin directives stage
	// the next epoch's topology there; the round-close swap advances it.
	planner *route.Planner
	// slabPool recycles the local mixers' slab chunks across epochs and
	// carries the model's slab layout with them. Chunks return to it only
	// after their round's outbox commit fully succeeded — see packageRound.
	slabPool *core.SlabPool
	// plainPool recycles the plaintext buffers request bodies (single
	// updates and whole batches) are decrypted into (*[]byte). A buffer
	// returns to it as soon as the shards have filed what it holds,
	// unless one retains it (core.Shard.RetainsWire: a relay shard
	// aliases the buffer until the round's entries commit).
	plainPool sync.Pool
	// plainReleased, when set (tests), sees a plaintext buffer at the
	// moment it is recycled — after which nothing may read it.
	plainReleased func([]byte)
	// maxEntry bounds one outbox entry so that its batch body, hop-wrapped,
	// fits the receiver's read bound (wire.MaxBodyBytes less wrapMargin);
	// packageRound cuts a larger share into several entries. Tests lower it.
	maxEntry int

	// dcache memoises each in-flight entry's parsed envelope and request
	// body between retry attempts — entries are immutable,
	// and a long outage must not re-parse/re-encode a large round every
	// backoff tick. Keyed by entry seq: delivery lanes run concurrently.
	dcache deliverCache

	// hopSessions holds one sender-side crypto session per delivery
	// destination, so cascade and relay legs pay the RSA wrap once per
	// session instead of once per round. Keyed by destination base; each
	// entry remembers the hop key it was built for, so a re-registered
	// remote (fresh attested key after a peer restart) rotates the
	// session instead of sending undecryptable traffic. Lanes serialize
	// per destination, but Session.Wrap is concurrency-safe anyway.
	hsmu        sync.Mutex
	hopSessions map[string]*hopSession

	mu   sync.Mutex
	cond *sync.Cond // signals closing/putEpoch transitions
	// topo is the CURRENT epoch's routing plan and rst its mutable
	// routing state (cursor + per-shard quota loads); both swap with the
	// shards at round close.
	topo *route.Topology
	rst  *route.State
	// remotes maps remote shard addresses to attested key material. It
	// only grows: an address removed from the topology keeps its key so
	// outbox entries addressed to it under an earlier topology version
	// still deliver.
	remotes map[string]RemoteShard
	// sealedTrust is the remote-trust material restored from a seal
	// blob for addresses whose hop keys are not yet re-attested;
	// ReattestRemotes drains it.
	sealedTrust map[string]RemoteTrust
	// shards are the CURRENT epoch's mixers (local) and relay buffers
	// (remote); round close swaps the whole slice, so a drain can never
	// sweep in an update of the next round.
	shards []core.Shard
	// pending buffers updates the mixers emitted mid-round; they join the
	// round's outbox entry at close (and the seal blob before that).
	pending []nn.ParamSet
	// closing counts round packagings in flight (drained but not yet
	// committed to the outbox); SealState waits for zero so no material
	// can fall between a snapshot and the queue.
	closing int
	// retained counts updates whose outbox commit failed; they live in
	// pending and ride the next committed entry. Flush refuses to report
	// success while any exist — on a quiescent tier nothing else would
	// ever deliver them.
	retained int
	// putEpoch is the epoch whose outbox commit may proceed next —
	// concurrent round closes commit strictly in epoch order.
	putEpoch int
	// shardRecv/shardEmit carry each shard's mixer ledger across epoch
	// swaps (and restores), so per-shard counters are cumulative.
	shardRecv []int
	shardEmit []int

	inRound      int // updates received in the current round
	rounds       int // completed rounds == the epoch being ingested
	hopMark      int // highest incoming hop depth seen this round
	received     int // participant updates ingested (hop 0)
	hopReceived  int // cascade updates ingested (hop >= 1)
	forwarded    int // updates acknowledged downstream
	batches      int // batch POSTs acknowledged downstream
	restoredFrom int // shard count of the blob this tier restored from (0 = fresh)
	updateBytes  int
	decryptT     timing
	storeT       timing
	mixT         timing
	processT     timing

	// Control plane (see controlplane.go): the admission gate in front
	// of participant ingress, the operator metrics registry behind
	// /v1/metrics (nil with DisableMetrics), and the short-lived signal
	// snapshot the gate reads instead of polling queues per update.
	admission   *health.Admission
	metrics     *health.Registry
	decryptHist *health.Histogram
	admRate     atomic.Uint64 // 429s: sender over its token-bucket budget
	admShed     atomic.Uint64 // 429s: tier load-shedding
	sigMu       sync.Mutex
	sigAt       time.Time
	sig         health.Signals
}

// outboxLabel domain-separates outbox entries from other sealed material.
const outboxLabel = "mixnn/outbox/v1"

// wrapMargin is the room a hop wrap (session header, nonce, tag) may add
// to a batch body on its way to the receiver's read bound.
const wrapMargin = 4096

// RemoteShard is the attested key material of a remote shard: the hop
// key pinned by the attestation handshake plus the bearer secret its hop
// endpoints require (if any).
type RemoteShard struct {
	Key    *enclave.HopKey
	Secret string
	// Trust is the attestation trust bundle the key was pinned under,
	// when known (directives and shards files carry it; a bare Key
	// handed to ShardedConfig.RemoteShards has none). It rides the seal
	// blob so a restarted replacement can RE-ATTEST the peer — the
	// peer's enclave key does not survive the peer's own restarts, so
	// sealing the pinned key would not be enough.
	Trust *RemoteTrust
}

// RemoteTrust is the sealable trust material of one remote shard: what
// a proxy needs to re-run the hop attestation handshake after a
// restart, without an admin directive or a shards-file reload.
type RemoteTrust struct {
	AuthorityPubDER []byte `json:"authority_pub_der"`
	MeasurementHex  string `json:"measurement"`
	Secret          string `json:"secret,omitempty"`
}

// initialTopology builds the tier's starting topology from the config:
// the full ShardSpecs when given, else the uniform local topology the
// legacy Shards knob describes.
func initialTopology(cfg ShardedConfig) (*route.Topology, error) {
	specs := cfg.ShardSpecs
	if specs == nil {
		p := cfg.Shards
		if p <= 0 {
			p = 1
		}
		specs = make([]route.ShardSpec, p)
	}
	topo, err := route.New(0, cfg.Routing, cfg.RoundSize, specs)
	if err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	return topo, nil
}

// NewSharded builds a sharded proxy tier hosted in the given enclave and
// starts its delivery dispatcher; callers own the tier's lifecycle and
// should Close it when done.
func NewSharded(cfg ShardedConfig, encl *enclave.Enclave, platform *enclave.Platform) (*ShardedProxy, error) {
	if cfg.Upstream == "" && cfg.NextHop == "" {
		return nil, fmt.Errorf("proxy: ShardedConfig needs an Upstream or a NextHop")
	}
	if cfg.NextHop != "" && cfg.NextHopKey == nil {
		return nil, fmt.Errorf("proxy: NextHop %q configured without NextHopKey", cfg.NextHop)
	}
	if cfg.RoundSize <= 0 {
		return nil, fmt.Errorf("proxy: ShardedConfig.RoundSize must be positive, got %d", cfg.RoundSize)
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = DefaultMaxHops
	}
	if encl == nil || platform == nil {
		return nil, fmt.Errorf("proxy: enclave and platform are required")
	}
	tr := cfg.Transport
	if tr == nil {
		tr = transport.NewHTTP(nil)
	}
	topo, err := initialTopology(cfg)
	if err != nil {
		return nil, err
	}
	remotes := make(map[string]RemoteShard, len(cfg.RemoteShards))
	for addr, rs := range cfg.RemoteShards {
		if rs.Key == nil {
			return nil, fmt.Errorf("proxy: remote shard %q configured without a hop key", addr)
		}
		remotes[addr] = rs
	}
	for _, addr := range topo.Remotes() {
		if _, ok := remotes[addr]; !ok {
			return nil, fmt.Errorf("proxy: remote shard %q has no attested key material (RemoteShards)", addr)
		}
	}
	pool := core.NewSlabPool()
	shards, err := newShardSet(cfg, topo, 0, pool)
	if err != nil {
		return nil, err
	}
	var box outbox.Queue
	if cfg.OutboxDir != "" {
		box, err = outbox.Open(cfg.OutboxDir,
			func(plain []byte) ([]byte, error) { return encl.SealLabeled(outboxLabel, plain) },
			func(sealed []byte) ([]byte, error) { return encl.UnsealLabeled(outboxLabel, sealed) },
		)
		if err != nil {
			return nil, fmt.Errorf("proxy: open outbox: %w", err)
		}
	} else {
		box = outbox.NewMemory()
	}
	p := &ShardedProxy{
		cfg: cfg, enclave: encl, platform: platform, tr: tr,
		box: box, shards: shards,
		topo: topo, rst: topo.NewState(), remotes: remotes,
		planner:   route.NewPlanner(topo),
		slabPool:  pool,
		maxEntry:  wire.MaxBodyBytes - wrapMargin,
		shardRecv: make([]int, topo.P()),
		shardEmit: make([]int, topo.P()),
	}
	p.seen.SetWindow(cfg.DedupWindow)
	p.cond = sync.NewCond(&p.mu)
	p.initControlPlane()
	p.disp = outbox.NewDispatcher(box, p.deliver, outbox.Options{
		RetryBase:      cfg.RetryBase,
		RetryMax:       cfg.RetryMax,
		Workers:        cfg.DeliveryWorkers,
		AttemptTimeout: cfg.DeliveryTimeout,
	})
	p.disp.Start()
	return p, nil
}

// Close stops the delivery dispatcher. Undelivered outbox entries stay
// queued — on disk when OutboxDir is set — for the next process.
func (p *ShardedProxy) Close() {
	p.disp.Close()
}

// Flush blocks until every drained round has been committed to the
// outbox AND acknowledged downstream, or ctx expires. Tests and graceful
// shutdown use it; serving code never needs to.
func (p *ShardedProxy) Flush(ctx context.Context) error {
	for {
		p.mu.Lock()
		n := p.closing
		p.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("proxy: flush: %d round closes in flight: %w", n, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	if err := p.disp.Flush(ctx); err != nil {
		return err
	}
	p.mu.Lock()
	retained := p.retained
	p.mu.Unlock()
	if retained > 0 {
		return fmt.Errorf("proxy: flush: %d updates retained from a failed outbox commit await the next round close", retained)
	}
	return nil
}

// streamSource adapts a math/rand/v2 generator to the math/rand source
// the mixers draw from.
type streamSource struct{ *randv2.ChaCha8 }

func (s streamSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (streamSource) Seed(int64)     {}

// shardStream returns the mixing stream of one shard for one epoch,
// keyed by a HASH of (seed, epoch, shard): sums of the three collide
// (proxies seeded S and S+1 draw one stream an epoch apart, a reshard
// revisits earlier epochs' streams). Keying ChaCha8 is O(1); math/rand's
// default source reseeds 607 words and allocates 4.9KB, per mixer, per
// round close.
func shardStream(seed int64, epoch, shard int) *rand.Rand {
	const label = "mixnn/shard-stream/v1\x00"
	in := make([]byte, 0, len(label)+24)
	in = append(in, label...)
	in = binary.LittleEndian.AppendUint64(in, uint64(seed))
	in = binary.LittleEndian.AppendUint64(in, uint64(epoch))
	in = binary.LittleEndian.AppendUint64(in, uint64(shard))
	return rand.New(streamSource{randv2.NewChaCha8(sha256.Sum256(in))})
}

// newShardSet builds the tier's fresh shard slots for one epoch under a
// topology: local shards get a StreamMixer with K clamped to the shard's
// round quota and its own rand stream (shardStream: each round's swap
// gets fresh, independent streams); remote shards get a relay buffer
// sized by their quota. Shared by NewSharded, the round close swap and
// RestoreState so every epoch's tier is shaped alike.
func newShardSet(cfg ShardedConfig, topo *route.Topology, epoch int, pool *core.SlabPool) ([]core.Shard, error) {
	shards := make([]core.Shard, topo.P())
	for s := range shards {
		quota := topo.Quota(s)
		if topo.IsRemote(s) {
			shards[s] = core.NewRelayShard(quota, pool)
			continue
		}
		k := cfg.K
		if k <= 0 || k > quota {
			k = quota
		}
		rng := shardStream(cfg.Seed, epoch, s) // its own: a rand.Rand shared across shards would race
		m, err := core.NewStreamMixerSlab(k, rng, pool)
		if err != nil {
			return nil, fmt.Errorf("proxy: shard %d: %w", s, err)
		}
		shards[s] = m
	}
	return shards, nil
}

// Shards returns the shard count P. It synchronises with RestoreState,
// which swaps the shard slice under p.mu.
func (p *ShardedProxy) Shards() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.shards)
}

// Handler returns the sharded proxy's HTTP API — the typed protocol
// served over the wire-compatible HTTP adapter: the participant
// endpoint, the inter-proxy cascade endpoints (single and batched),
// attestation, status and the topology admin plane.
func (p *ShardedProxy) Handler() http.Handler {
	return transport.NewHandler(p)
}

// authorizeHop enforces the inter-proxy secret and the cascade depth
// rules shared by the hop and batch ingresses, over any transport.
func (p *ShardedProxy) authorizeHop(secret string, hop int) (int, error) {
	if p.cfg.HopSecret != "" &&
		subtle.ConstantTimeCompare([]byte(secret), []byte(p.cfg.HopSecret)) != 1 {
		return 0, transport.Errorf(http.StatusUnauthorized, "hop endpoint requires the inter-proxy secret")
	}
	if hop < 0 {
		return 0, transport.Errorf(http.StatusBadRequest, "proxy: negative cascade depth %d", hop)
	}
	if hop == 0 {
		hop = 1 // an upstream proxy that omitted the depth is hop 1
	}
	if hop > p.cfg.MaxHops {
		return 0, transport.Errorf(http.StatusLoopDetected, "cascade depth %d exceeds limit %d", hop, p.cfg.MaxHops)
	}
	return hop, nil
}

// HandleUpdate ingests one encrypted participant update (hop 0). It
// implements transport.Server; the acknowledgement means ACCEPTANCE
// INTO THE TIER — forwarding happens asynchronously through the outbox,
// so a downstream outage never turns into participant-visible errors
// (or lost rounds). Forged cascade depth is unrepresentable here: the
// typed participant request has no depth field, and the HTTP adapter
// rejects a raw X-Mixnn-Hop header before it reaches this method.
func (p *ShardedProxy) HandleUpdate(ctx context.Context, req transport.UpdateRequest) (transport.Receipt, error) {
	// Admission runs BEFORE any enclave work: a refusal here is cheap
	// and provably not ingested, so the sender can safely back off or
	// fail over without risking a double-count.
	if err := p.admit(req.ClientID); err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	return p.ingressOne(req.Body, req.ClientID, 0, false)
}

// HandleHop ingests one re-encrypted mixed update from an upstream
// proxy of the cascade. It implements transport.Server.
func (p *ShardedProxy) HandleHop(ctx context.Context, req transport.HopRequest) (transport.Receipt, error) {
	hop, err := p.authorizeHop(req.Secret, req.Hop)
	if err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	return p.ingressOne(req.Body, "", hop, true)
}

// ingressOne processes one encrypted update through the enclave
// pipeline: decrypt into a pooled buffer, file into the routed shard,
// and — when the round closes — package the round for delivery. body is
// only read: it stays the transport's (see enclave.DecryptTo).
func (p *ShardedProxy) ingressOne(body []byte, clientID string, hop int, fromHop bool) (transport.Receipt, error) {
	if err := transport.CheckBody(body); err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	var (
		closed *roundClose
		shard  int
	)
	start := time.Now()
	procErr := p.enclave.Process(func() error {
		bp, plain, decryptDur, err := p.decryptPooled(body)
		if err != nil {
			return err
		}
		// No decode here: the wire bytes go straight to the routed shard
		// (core.Shard.AddWire).
		var kept bool
		closed, shard, kept, err = p.ingest(plain, clientID, hop, fromHop, decryptDur, 0)
		p.releasePlain(bp, kept)
		return err
	})
	p.mu.Lock()
	p.processT.add(time.Since(start))
	p.mu.Unlock()
	if procErr != nil {
		return transport.Receipt{Shard: -1}, ingressError(procErr)
	}
	if closed != nil {
		if err := p.packageRound(closed); err != nil {
			// The round's material is retained in memory (see
			// packageRound) and WILL be delivered with the next committed
			// entry, so the update is still accepted — an error response
			// here would make the sender retry and double-count it.
			log.Printf("proxy: round %d outbox commit failed (material retained): %v", closed.epoch, err)
		}
	}
	return transport.Receipt{Shard: shard}, nil
}

// decryptPooled opens body (only read, see enclave.DecryptTo) into a
// buffer leased from plainPool; releasePlain ends the lease.
func (p *ShardedProxy) decryptPooled(body []byte) (bp *[]byte, plain []byte, dur time.Duration, err error) {
	bp, _ = p.plainPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if cap(*bp) < len(body) {
		*bp = make([]byte, 0, len(body)) // the plaintext is shorter than its ciphertext
	}
	t0 := time.Now()
	plain, err = p.enclave.DecryptTo(*bp, body)
	dur = time.Since(t0)
	p.observeDecrypt(dur)
	if err != nil {
		p.plainPool.Put(bp)
		return nil, nil, dur, fmt.Errorf("proxy: decrypt: %w", err)
	}
	return bp, plain, dur, nil
}

// releasePlain ends a plaintext lease: the buffer is recycled at once,
// unless a shard kept (part of) it — then that shard's round owns it and
// only the lease's box returns to the pool.
func (p *ShardedProxy) releasePlain(bp *[]byte, kept bool) {
	if kept {
		*bp = nil
	} else if p.plainReleased != nil {
		p.plainReleased((*bp)[:cap(*bp)])
	}
	p.plainPool.Put(bp)
}

// ingressError maps an enclave-pipeline failure onto the wire
// vocabulary. A session miss (the cache evicted it, or the enclave
// restarted and lost its volatile session memory) and a counter replay
// both become the TYPED 428 session rejection: in either case this
// attempt provably ingested nothing, and the sender recovers by
// re-establishing with a full wrap — a generic 4xx here would make the
// SDK treat the bytes as poison and the dispatcher quarantine a
// perfectly good round. Everything else stays the 400 the legacy
// decrypt path always answered.
func ingressError(err error) error {
	if errors.Is(err, enclave.ErrSessionUnknown) || errors.Is(err, enclave.ErrSessionReplay) {
		return &transport.StatusError{
			Code:           http.StatusPreconditionRequired,
			SessionUnknown: true,
			Msg:            err.Error(),
		}
	}
	return transport.Errorf(http.StatusBadRequest, "%s", err.Error())
}

// HandleBatch ingests a whole drained round from an upstream proxy: a
// BatchEnvelope wrapped for this enclave. It implements
// transport.Server, shares the hop gate and depth rules with HandleHop,
// and dedups on the sender's idempotency id so a redelivered batch
// (lost acknowledgement, crashed upstream) cannot double-count a round.
func (p *ShardedProxy) HandleBatch(ctx context.Context, req transport.BatchRequest) (transport.Receipt, error) {
	hop, err := p.authorizeHop(req.Secret, req.Hop)
	if err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	if err := transport.CheckBody(req.Body); err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	// Claim the id atomically BEFORE ingesting: a retry overlapping a
	// slow first attempt must dedup, not re-mix the round — and an
	// attempt still in flight must NOT be acked as applied (the sender
	// would consume the entry while this attempt can still fail).
	batchID := req.ID
	sender, senderSeq, hasSeq := req.Sender, req.Seq, req.HasSeq && req.Sender != ""
	if batchID != "" {
		switch p.seen.Begin(batchID, sender, senderSeq, hasSeq) {
		case dedupApplied:
			return transport.Receipt{Shard: -1, Duplicate: true}, nil // already applied; ack the duplicate
		case dedupInFlight:
			return transport.Receipt{Shard: -1}, transport.Errorf(http.StatusConflict, "batch application in flight")
		case dedupStale:
			// The id aged out of the dedup window but the sender's
			// sequence watermark proves this entry was superseded:
			// re-absorbing it would double-count a round that already
			// reached the aggregate. The stale marker tells the sender
			// this 409 is permanent (quarantine), unlike the retryable
			// in-flight 409.
			return transport.Receipt{Shard: -1}, &transport.StatusError{
				Code: http.StatusConflict, Stale: true,
				Msg: "stale batch redelivery (sequence below the sender's applied watermark)",
			}
		}
	}
	var closes []*roundClose
	start := time.Now()
	procErr := p.enclave.Process(func() error {
		bp, plain, decryptDur, err := p.decryptPooled(req.Body)
		if err != nil {
			return err
		}
		kept := false
		defer func() { p.releasePlain(bp, kept) }()
		env, err := wire.DecodeBatchEnvelope(plain) // items alias plain
		if err != nil {
			return fmt.Errorf("proxy: %w", err)
		}
		// Check every item against ONE layout (the first item's: the
		// carried layout in the steady state) before filing any, so a
		// malformed or heterogeneous batch cannot leave the round
		// half-applied (the upstream quarantines rejected entries and must
		// be able to trust that nothing was counted).
		t1 := time.Now()
		layout, err := p.slabPool.LayoutFor(env.Updates[0])
		if err != nil {
			return fmt.Errorf("proxy: batch update 0: %w", err)
		}
		for i, raw := range env.Updates[1:] {
			if err := layout.CheckWire(raw); err != nil {
				return fmt.Errorf("proxy: batch update %d: %w", i+1, err)
			}
		}
		checkDur := time.Since(t1)
		// Spread the one decrypt/check over the items so per-update stage
		// means stay comparable with the single-update path.
		n := time.Duration(len(env.Updates))
		var skipped int
		var firstErr error
		for i, raw := range env.Updates {
			closed, _, k, err := p.ingest(raw, "", hop, true, decryptDur/n, checkDur/n)
			kept = kept || k
			if err != nil {
				// An item the open round's mixers reject (structure set
				// by earlier traffic of this epoch) can never be mixed at
				// this hop — rejecting the WHOLE batch here would let a
				// half-applied round masquerade as "nothing counted" when
				// the upstream quarantines it. Skip just this item, keep
				// the rest of the round.
				if skipped++; firstErr == nil {
					firstErr = fmt.Errorf("proxy: batch update %d: %w", i, err)
				}
				continue
			}
			if closed != nil {
				closes = append(closes, closed)
			}
		}
		if skipped > 0 { // one line per batch: the peer chooses how many items it carries
			log.Printf("proxy: batch: %d of %d updates skipped, first: %v", skipped, len(env.Updates), firstErr)
		}
		if skipped == len(env.Updates) {
			return firstErr // nothing applied; safe for the upstream to quarantine
		}
		return nil
	})
	p.mu.Lock()
	p.processT.add(time.Since(start))
	p.mu.Unlock()
	// Rounds that closed DID close — their mixers were swapped out and
	// p.closing incremented — so package them even when a later item
	// failed: skipping would leak p.closing/putEpoch and wedge SealState,
	// Flush and every future round's commit.
	for _, c := range closes {
		if err := p.packageRound(c); err != nil {
			// Retained in p.pending (see packageRound); the material IS
			// applied, so this is not the sender's problem — an error
			// response would trigger a redelivery that double-counts.
			log.Printf("proxy: round %d outbox commit failed (material retained): %v", c.epoch, err)
		}
	}
	if procErr != nil {
		// Nothing was applied (structure check failures precede any ingest,
		// and the all-items-failed path mixes nothing), so release the id
		// for a future redelivery.
		if batchID != "" {
			p.seen.Forget(batchID)
		}
		return transport.Receipt{Shard: -1}, ingressError(procErr)
	}
	if batchID != "" {
		p.seen.Done(batchID, sender, senderSeq, hasSeq)
	}
	return transport.Receipt{Shard: -1}, nil
}

// roundClose carries everything a completed round needs on its way to
// the outbox: the epoch, the topology it closed under (which shards are
// remote, and the version delivery is keyed by), the hop depth to stamp
// (watermark + 1), the retired shard slots (still holding the round's
// buffered material) and the mid-round emissions.
type roundClose struct {
	epoch   int
	hop     int
	topo    *route.Topology
	mixers  []core.Shard
	pending []nn.ParamSet
	// emitBase is each retired mixer's emitted count at swap time; the
	// swap already rolled counters up to here into the cumulative shard
	// ledger, so packageRound only adds what Drain emits beyond it.
	emitBase []int
}

// ingest files one encoded update into its shard's mixer and, when the
// round completes, swaps the tier to fresh mixers and returns a
// roundClose for packaging. The expensive stage (decrypt) already ran
// outside any lock in the caller; filing (a header check and one payload
// copy), mixing (layer pointer swaps) and the round accounting
// run under one mutex, which makes round closure atomic: a
// drain can never sweep in an update that belongs to the next round, and
// updates arriving an instant after the swap land in epoch N+1's fresh
// mixers while epoch N drains in the background (cross-round
// pipelining).
//
// The close's hop is the depth to stamp on the delivered round: one past
// the highest incoming depth seen in the current round. Buffered material
// loses its individual depth inside the mixers, so the watermark is what
// keeps depth monotone — in an accidental proxy cycle the watermark grows
// every traversal until the MaxHops check breaks the loop.
//
// keptWire reports whether the shard still references raw after the
// call (core.Shard.RetainsWire); otherwise the caller may reuse it.
func (p *ShardedProxy) ingest(raw []byte, clientID string, hop int, fromHop bool, decryptDur, checkDur time.Duration) (closed *roundClose, shard int, keptWire bool, err error) {
	size := len(raw)
	p.enclave.Alloc(size)

	p.mu.Lock()
	shard = p.topo.Route(clientID, p.rst)
	p.decryptT.add(decryptDur)
	p.updateBytes = size
	tAdd := time.Now()
	out, err := p.shards[shard].AddWire(raw)
	keptWire = err == nil && p.shards[shard].RetainsWire()
	p.storeT.add(checkDur + time.Since(tAdd)) // §6.5 store stage: check + file into the lists
	if err != nil {
		// Route already charged the shard's quota; a rejected update must
		// not consume it.
		p.rst.Load[shard]--
		p.mu.Unlock()
		p.enclave.Free(size)
		return nil, shard, false, fmt.Errorf("proxy: shard %d mix: %w", shard, err)
	}
	t2 := time.Now()
	if out != nil {
		p.pending = append(p.pending, *out)
	}
	if fromHop {
		p.hopReceived++
	} else {
		p.received++
	}
	if hop > p.hopMark {
		p.hopMark = hop
	}
	p.inRound++
	if p.inRound >= p.topo.RoundSize() {
		// The epoch boundary is where the routing plane may change: any
		// staged topology (admin directive, shards-file reload) becomes
		// the next epoch's plan, applied under the same lock as the mixer
		// swap — membership changes can never tear an open round.
		nextTopo := p.planner.Advance()
		fresh, ferr := newShardSet(p.cfg, nextTopo, p.rounds+1, p.slabPool)
		if ferr != nil {
			// Unreachable for a validated topology; leave the round open
			// so the next ingest retries the close.
			p.mixT.add(time.Since(t2))
			p.mu.Unlock()
			return nil, shard, keptWire, ferr
		}
		closed = &roundClose{epoch: p.rounds, hop: p.hopMark + 1, topo: p.topo, mixers: p.shards, pending: p.pending}
		// Roll the retired mixers' counters into the cumulative ledger
		// HERE, under the same lock as the swap, so per-shard Received
		// never appears to regress in a concurrently-polled Status. The
		// drain's emissions land later (see packageRound/emitBase).
		closed.emitBase = make([]int, len(closed.mixers))
		for s, m := range closed.mixers {
			p.shardRecv[s] += m.Received()
			closed.emitBase[s] = m.Emitted()
			p.shardEmit[s] += closed.emitBase[s]
		}
		// A membership change resizes the cumulative per-shard ledgers
		// sum-preservingly: per-shard exactness is not meaningful when
		// the shards themselves changed.
		p.shardRecv = resizeLedger(p.shardRecv, nextTopo.P())
		p.shardEmit = resizeLedger(p.shardEmit, nextTopo.P())
		p.topo = nextTopo
		// The per-round quota loads reset, but the round-robin cursor
		// carries across rounds (as the pre-topology tier's did), so
		// which shards take a non-divisible round's extra updates rotates
		// instead of always starving the last shard.
		rr := p.rst.RR % nextTopo.P()
		p.rst = nextTopo.NewState()
		p.rst.RR = rr
		p.shards = fresh
		p.pending = nil
		// Any retained (failed-commit) material just moved into this
		// close; if its commit fails too, packageRound re-counts it.
		p.retained = 0
		p.rounds++
		p.inRound = 0
		p.hopMark = 0
		p.closing++
	}
	p.mixT.add(time.Since(t2)) // §6.5 mix stage: emission assembly + epoch swap
	p.mu.Unlock()
	return closed, shard, keptWire, nil
}

// destEntry is one destination's share of a closed round on its way to
// the outbox: the tier's ordinary downstream (dest == "") or a remote
// shard address.
type destEntry struct {
	dest string
	// An entry carries mixed material (the downstream entry: views of
	// slab rows, encoded into it) or relayed material (a remote shard's:
	// the images the relay buffered, copied into it) — never both.
	updates []nn.ParamSet
	images  [][]byte
	// shard is the remote shard index the material came from (-1 for the
	// downstream entry), used to return material on a commit failure.
	shard int
}

// count is the number of updates in the share.
func (de destEntry) count() int { return len(de.updates) + len(de.images) }

// cut returns the end of the longest run of the share's updates from lo
// whose entry stays within limit bytes, and the run's encoded size. A run
// takes at least one update: one that alone exceeds the bound cannot be
// made smaller here, and the receiver's refusal quarantines its entry
// with the reason in the log.
func (de destEntry) cut(lo, limit int) (hi, size int) {
	for hi = lo; hi < de.count(); hi++ {
		var n int
		if len(de.updates) > 0 {
			n = nn.EncodedSize(de.updates[hi])
		} else {
			n = len(de.images[hi])
		}
		if hi > lo && outbox.EntrySize(de.dest, hi-lo+1, size+n) > limit {
			break
		}
		size += n
	}
	return hi, size
}

// piece is the share narrowed to updates [lo, hi).
func (de destEntry) piece(lo, hi int) destEntry {
	if len(de.updates) > 0 {
		de.updates = de.updates[lo:hi]
	} else {
		de.images = de.images[lo:hi]
	}
	return de
}

// resizeLedger maps a cumulative per-shard ledger onto a new shard count:
// unchanged when P stays, otherwise the total is preserved and spread
// evenly (per-shard exactness is not meaningful across a membership
// change).
func resizeLedger(old []int, pPrime int) []int {
	if len(old) == pPrime {
		return old
	}
	total := 0
	for _, v := range old {
		total += v
	}
	out := make([]int, pPrime)
	for s := 0; s < pPrime; s++ {
		out[s] = total / pPrime
		if s < total%pPrime {
			out[s]++
		}
	}
	return out
}

// packageRound drains a closed round's retired shard slots and commits
// the round to the outbox in epoch order: one sealed entry for the
// downstream (mid-round emissions plus every local shard's drain) and, in
// a multi-process topology, one sealed entry per remote shard holding the
// material routed to it (relayed to that shard's enclave by the delivery
// dispatcher). A share with no material commits nothing, and a share too
// large for one request body is cut into several entries (see maxEntry),
// each a complete entry with its own sequence number and batch id. It
// runs outside p.mu (and outside the enclave's constant-time gate), so
// ingest of the next epoch proceeds concurrently. On a commit failure the
// material is retained — downstream material in p.pending, remote
// material back in the live relay shard for its address when one exists
// — so nothing mixed (or relayed) is ever dropped.
func (p *ShardedProxy) packageRound(rc *roundClose) error {
	entries := []destEntry{{dest: "", updates: rc.pending, shard: -1}}
	for s, m := range rc.mixers {
		if relay, ok := m.(*core.RelayShard); ok {
			if images := relay.DrainWire(); len(images) > 0 {
				entries = append(entries, destEntry{dest: rc.topo.Spec(s).Addr, images: images, shard: s})
			}
			continue
		}
		entries[0].updates = append(entries[0].updates, m.Drain()...)
	}
	// Encode everything before taking the epoch's commit turn. Each
	// update is append-encoded (a relayed image: copied) straight into
	// its exactly-sized entry — the buffer the queue will hold and the
	// request body the receiver will read — so a round's bytes are
	// written once on their way to the outbox.
	type rawEntry struct {
		destEntry
		raw   []byte
		bytes int
	}
	raws := make([]rawEntry, 0, len(entries))
	var encErr error
pack:
	for _, share := range entries {
		for lo := 0; lo < share.count(); {
			hi, size := share.cut(lo, p.maxEntry)
			de := share.piece(lo, hi)
			lo = hi
			b, err := outbox.NewEntryBuilder(outbox.Envelope{
				Epoch:       uint64(rc.epoch),
				TopoVersion: rc.topo.Version(),
				Hop:         rc.hop,
				Dest:        de.dest,
			}, outbox.EntrySize(de.dest, de.count(), size))
			for i := 0; err == nil && i < len(de.updates); i++ {
				err = b.Append(func(buf []byte) ([]byte, error) { return nn.AppendParamSet(buf, de.updates[i]) })
			}
			for i := 0; err == nil && i < len(de.images); i++ {
				err = b.Append(func(buf []byte) ([]byte, error) { return append(buf, de.images[i]...), nil })
			}
			if err != nil {
				encErr = err
				break pack
			}
			raws = append(raws, rawEntry{destEntry: de, raw: b.Bytes(), bytes: size})
		}
	}
	// Ordered commit: take this epoch's turn even when there is nothing
	// to Put — the epoch chain must advance by exactly one per close or
	// every later commit (and SealState/Flush) waits forever.
	p.mu.Lock()
	for p.putEpoch != rc.epoch {
		p.cond.Wait()
	}
	p.mu.Unlock()
	var failed []destEntry
	committed := 0
	err := encErr
	if encErr != nil {
		failed = entries
	} else {
		for _, re := range raws {
			// A short retry absorbs transient commit failures (disk
			// hiccups) here, while the epoch's commit turn is held: a
			// round retained past this point only re-commits at the NEXT
			// round close, which on a quiescent tier may never come.
			var putErr error
			for attempt := 0; ; attempt++ {
				if _, putErr = p.box.Put(re.raw); putErr == nil || attempt >= 2 {
					break
				}
				time.Sleep(100 * time.Millisecond)
			}
			if putErr != nil {
				failed = append(failed, re.destEntry)
				if err == nil {
					err = putErr
				}
				continue
			}
			p.enclave.Free(re.bytes)
			committed += re.bytes
		}
	}

	p.mu.Lock()
	// The swap already rolled the retired mixers' counters; only the
	// drain's emissions (beyond emitBase) remain, regardless of the
	// commit outcome (they describe mixing history, not delivery). The
	// ledger may have been resized by a concurrent membership change.
	for s, m := range rc.mixers {
		p.shardEmit[s%len(p.shardEmit)] += m.Emitted() - rc.emitBase[s]
	}
	for _, de := range failed {
		if de.dest != "" {
			// Remote-destined material must NOT fall back to the
			// downstream: it is unmixed participant material whose mixing
			// hop is a mixing enclave, and delivering it raw would hand
			// the server individually-linkable updates. Return it to the
			// live relay shard for the same address when the current
			// topology still has one; otherwise file it into the current
			// epoch's shard 0 — a local mixer absorbs it into the open
			// round (over-full buffers stay conservative), a relay slot
			// relays it to that shard's enclave. Either way it is mixed
			// before it travels, is covered by SealState, and rides the
			// next round close.
			s := p.relayShardLocked(de.dest)
			if s < 0 {
				s = 0
				log.Printf("proxy: remote shard %s left the topology with %d uncommitted updates; re-filing them into shard 0 of the current epoch", de.dest, len(de.images))
			}
			updates := core.DecodeImages(de.images) // RestoreEntry speaks ParamSet
			refiled := len(updates)
			for i, u := range updates {
				if rerr := p.shards[s].RestoreEntry(u); rerr != nil {
					// Structurally incompatible with the open round (model
					// changed between epochs) — the only escape left is
					// the pending buffer; it reaches the server mixed with
					// nothing, so be loud about the privacy downgrade.
					log.Printf("proxy: re-file update into shard %d failed (%v); %d updates will deliver downstream UNMIXED", s, rerr, len(updates)-i)
					p.pending = append(append([]nn.ParamSet{}, updates[i:]...), p.pending...)
					refiled = i
					break
				}
			}
			// The re-filed updates were already counted once (the retired
			// relay's AddWire, rolled into the cumulative ledger at the swap);
			// RestoreEntry counted them again inside the live shard, so
			// compensate the carry to keep sum(per-shard Received) equal
			// to the tier's Received.
			p.shardRecv[s%len(p.shardRecv)] -= refiled
			// Both halves await the next round close (re-filed head in a
			// shard, incompatible tail in pending), so both count as
			// retained: Flush must keep failing until they move.
			p.retained += len(updates)
			continue
		}
		// Downstream material is already mixed; retain it in memory and
		// it joins the next downstream entry (and any SealState blob
		// taken before then).
		p.pending = append(append([]nn.ParamSet{}, de.updates...), p.pending...)
		p.retained += len(de.updates)
	}
	p.putEpoch = rc.epoch + 1
	p.closing--
	p.cond.Broadcast()
	p.mu.Unlock()
	if err == nil {
		// The whole round is sealed in the outbox: every emission and
		// drained update was copied into the committed entries, so nothing
		// references the retired mixers' slab rows any more — recycle the
		// chunks for a future epoch's mixers. On a failed commit the
		// retained material still aliases the slabs, so we skip this and
		// let the GC reclaim them instead.
		for _, m := range rc.mixers {
			if sm, ok := m.(*core.StreamMixer); ok {
				sm.ReleaseSlab()
			}
		}
	}
	// What did commit travels now, whatever failed beside it.
	if committed > 0 {
		p.disp.Wake()
		if committed >= handOffBytes {
			runtime.Gosched()
		}
	}
	return err
}

// handOffBytes is the round size from which the goroutine that closed a
// round yields its core to the delivery goroutines Wake just readied:
// the entry it wrote is still in this core's cache and the aggregator
// waits for the round more than one sender waits for its ack, whereas on
// saturated cores a readied goroutine otherwise queues behind the
// senders' own hand-offs. A yield costs a scheduling round trip whatever
// the round holds, so small rounds keep going: mlp_cascade_closed
// commits ≈20KB a round and paid 1.5µs of CPU per update for yielding,
// conv_closed commits 2.7MB and sheds a quarter of its absorb lag
// (DESIGN §11).
const handOffBytes = 256 << 10

// relayShardLocked returns the index of the live relay shard for addr,
// -1 when the current topology has none. Caller holds p.mu.
func (p *ShardedProxy) relayShardLocked(addr string) int {
	for s := 0; s < p.topo.P(); s++ {
		if p.topo.Spec(s).Addr == addr {
			return s
		}
	}
	return -1
}

// deliverCache is the per-entry memo of delivery artefacts (see
// ShardedProxy.dcache). The mutex guards only the map: an entry's memo is
// mutated exclusively by the one worker that owns the entry's lane.
type deliverCache struct {
	mu      sync.Mutex
	entries map[uint64]*deliverMemo
}

// deliverMemo caches one outbox entry's delivery artefacts across retry
// attempts.
type deliverMemo struct {
	env *outbox.Envelope // aliases the queue's (immutable) entry payload
	// body is the /v1/batch request body: the entry's own batch tail on
	// the plaintext server leg (a sub-slice of the payload, no copy), its
	// one hop wrap when cascading or relaying.
	body []byte
	id   string // idempotency id for body
	// sess is the crypto session that wrapped body (nil on the
	// plaintext server leg): a typed session rejection invalidates
	// exactly this session plus the memoized body, and the retry
	// re-wraps under a fresh establish. The idempotency id derives from
	// the entry's identity, not from body, so it survives the re-wrap
	// and redelivery stays exactly-once.
	sess *enclave.Session
}

func (c *deliverCache) get(seq uint64) *deliverMemo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[seq]
}

func (c *deliverCache) put(seq uint64, m *deliverMemo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[uint64]*deliverMemo)
	}
	c.entries[seq] = m
}

func (c *deliverCache) drop(seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, seq)
}

// batchIDFor derives the idempotency id of an outbox entry from what
// already makes the entry unique and restart-stable: the queue's sender
// identity (persisted beside a disk queue) and the entry's never-reused
// sequence number, bound to the epoch, destination and update count the
// entry was committed with. It costs the same for a 2KB round and a
// 200MB one, does not depend on the hop wrap — a 428 re-wrap and a
// redelivery after a restart carry the id the first attempt did — names
// the entry rather than its content (two senders' byte-identical rounds
// are two rounds), and puts no fingerprint of the mixed plaintext into
// a cleartext header. Only a queue without a sender identity (its
// randomness source failed) falls back to hashing payload.
func batchIDFor(sender string, seq uint64, env *outbox.Envelope, payload []byte) string {
	in := payload
	if sender != "" {
		in = make([]byte, 0, 64+len(sender)+len(env.Dest))
		in = append(in, "mixnn/batch-id/v2\x00"...)
		in = append(append(in, sender...), 0)
		in = append(append(in, env.Dest...), 0)
		in = binary.LittleEndian.AppendUint64(in, seq)
		in = binary.LittleEndian.AppendUint64(in, env.Epoch)
		in = binary.LittleEndian.AppendUint32(in, uint32(len(env.Updates)))
	}
	sum := sha256.Sum256(in)
	return hex.EncodeToString(sum[:16])
}

// hopSession pairs a destination's crypto session with the hop key it
// was established against (see ShardedProxy.hopSessions).
type hopSession struct {
	key  *enclave.HopKey
	sess *enclave.Session
}

// hopSessionFor returns the crypto session for a delivery destination,
// establishing one against its current hop key when none exists or the
// cached one was built for a superseded key.
func (p *ShardedProxy) hopSessionFor(base string, key *enclave.HopKey) (*enclave.Session, error) {
	p.hsmu.Lock()
	defer p.hsmu.Unlock()
	if hs := p.hopSessions[base]; hs != nil && hs.key == key {
		return hs.sess, nil
	}
	sess, err := key.NewSession()
	if err != nil {
		return nil, err
	}
	if p.hopSessions == nil {
		p.hopSessions = make(map[string]*hopSession)
	}
	p.hopSessions[base] = &hopSession{key: key, sess: sess}
	return sess, nil
}

// dropHopSession invalidates a destination's session — only if sess is
// still the pinned one, so a stale rejection cannot tear down a fresher
// session.
func (p *ShardedProxy) dropHopSession(base string, sess *enclave.Session) {
	p.hsmu.Lock()
	defer p.hsmu.Unlock()
	if hs := p.hopSessions[base]; hs != nil && hs.sess == sess {
		delete(p.hopSessions, base)
	}
}

// wrapForHop seals payload for tgt's enclave under the destination's
// crypto session, rotating the session once if its counter space is
// exhausted. It returns the session that produced the ciphertext so the
// caller can invalidate precisely it on a typed session rejection.
func (p *ShardedProxy) wrapForHop(tgt hopTarget, payload []byte) ([]byte, *enclave.Session, error) {
	for attempt := 0; ; attempt++ {
		sess, err := p.hopSessionFor(tgt.base, tgt.key)
		if err != nil {
			return nil, nil, fmt.Errorf("proxy: session for %s: %w", tgt.base, err)
		}
		ct, err := sess.Wrap(payload)
		if err == nil {
			return ct, sess, nil
		}
		p.dropHopSession(tgt.base, sess)
		if attempt > 0 {
			return nil, nil, fmt.Errorf("proxy: wrap for %s: %w", tgt.base, err)
		}
	}
}

// hopTarget is the resolved destination of one outbox entry: where to
// POST, and the hop-key material to wrap with (nil key = plaintext to the
// aggregation server).
type hopTarget struct {
	base   string
	key    *enclave.HopKey
	secret string
}

// target resolves an envelope's destination: a remote shard address when
// the entry is a relay leg of a multi-process topology, else the tier's
// cascade next hop or upstream server. A remote address without attested
// key material is a transient error — the material stays queued until
// the operator re-registers the shard (losing a round over a missing key
// would be strictly worse than stalling the queue).
func (p *ShardedProxy) target(env *outbox.Envelope) (hopTarget, error) {
	if env.Dest != "" {
		p.mu.Lock()
		rs, ok := p.remotes[env.Dest]
		p.mu.Unlock()
		if !ok {
			return hopTarget{}, fmt.Errorf("proxy: no attested key for remote shard %s (topology v%d); re-register it via the topology admin endpoint", env.Dest, env.TopoVersion)
		}
		return hopTarget{base: env.Dest, key: rs.Key, secret: rs.Secret}, nil
	}
	if p.cfg.NextHop != "" {
		return hopTarget{base: p.cfg.NextHop, key: p.cfg.NextHopKey, secret: p.cfg.NextHopSecret}, nil
	}
	return hopTarget{base: p.cfg.Upstream}, nil
}

// deliver is the dispatcher callback: it sends one outbox entry (one
// destination's share of a drained round) onward. nil consumes the entry;
// a PermanentError quarantines it; anything else retries with backoff.
// It wraps deliverPayload to evict the entry's memo once the entry leaves
// the queue (acked or quarantined) — the memo map must track only live
// retries, not every entry ever delivered.
func (p *ShardedProxy) deliver(ctx context.Context, seq uint64, payload []byte) error {
	err := p.deliverPayload(ctx, seq, payload)
	var perm *outbox.PermanentError
	if err == nil || errors.As(err, &perm) {
		p.dcache.drop(seq)
	}
	return err
}

func (p *ShardedProxy) deliverPayload(ctx context.Context, seq uint64, payload []byte) error {
	c := p.dcache.get(seq)
	if c == nil {
		env, err := outbox.ParseEnvelope(payload)
		if err != nil {
			// The queue's open hook already authenticated the entry, so a
			// parse failure means a foreign or torn payload: set it aside.
			return outbox.Permanent(err)
		}
		c = &deliverMemo{env: env}
		p.dcache.put(seq, c)
	}
	env := c.env
	if len(env.Updates) == 0 {
		return nil
	}
	tgt, err := p.target(env)
	if err != nil {
		return err
	}
	if c.body == nil {
		// The entry's tail is the batch body (packageRound sized it to the
		// receiver's read bound).
		enc := env.Batch
		if tgt.key != nil {
			if enc, c.sess, err = p.wrapForHop(tgt, enc); err != nil {
				return err
			}
		}
		c.body, c.id = enc, batchIDFor(p.box.SenderID(), seq, env, payload)
	}
	req := transport.BatchRequest{Body: c.body, ID: c.id}
	if tgt.key != nil {
		req.Hop, req.Secret = env.Hop, tgt.secret
	}
	// Sender identity + entry sequence let the receiver detect a stale
	// redelivery even after the id aged out of its dedup window.
	if sender := p.box.SenderID(); sender != "" {
		req.Sender, req.Seq, req.HasSeq = sender, seq, true
	}
	if _, err := p.tr.SendBatch(ctx, tgt.base, req); err != nil {
		if transport.SessionRejected(err) {
			// The downstream enclave lost our session and provably
			// ingested nothing: invalidate the memoized body so the next
			// attempt re-wraps under a fresh establish (the idempotency
			// id derives from the entry's identity and comes out the
			// same, so a downstream that DID apply an earlier attempt
			// still dedups it).
			p.dropHopSession(tgt.base, c.sess)
			c.body, c.id, c.sess = nil, "", nil
		}
		return classifyDelivery(err)
	}
	p.mu.Lock()
	p.forwarded += len(env.Updates)
	p.batches++
	p.mu.Unlock()
	return nil
}

// classifyDelivery maps a transport error onto the dispatcher's retry
// semantics: a typed rejection carrying the stale marker, a definitive
// 4xx, or a depth rejection is permanent (retrying an entry the
// downstream rejects forever would wedge the strictly-ordered queue);
// anything else — including transport-level failures, where the
// downstream is simply unreachable — is transient. Auth failures
// (401/403) stay transient: they usually mean a secret rotation in
// progress, and quarantining a whole round over a recoverable operator
// mistake would lose it.
func classifyDelivery(err error) error {
	if errors.Is(err, transport.ErrNotSupported) {
		// A Loopback receiver that does not serve the operation — the
		// same misconfiguration an HTTP receiver answers with 404, which
		// the branch below quarantines; the two transports must agree on
		// retry policy.
		return outbox.Permanent(fmt.Errorf("proxy: downstream does not serve this operation: %w", err))
	}
	se := transport.AsStatus(err)
	if se == nil {
		return err // transient: downstream unreachable
	}
	code := se.Code
	switch {
	case se.SessionUnknown:
		// The downstream enclave lost the crypto session this entry was
		// wrapped under (restart or cache eviction) and provably
		// ingested nothing. The sender already invalidated the session
		// and memoized body, so the retry re-establishes — transient,
		// NOT the permanent 4xx class: quarantining would lose a good
		// round over a recoverable key-cache condition.
		return fmt.Errorf("proxy: downstream lost the delivery crypto session (re-establishing on retry): %d %s", code, se.Msg)
	case se.Stale && code == http.StatusConflict:
		return outbox.Permanent(fmt.Errorf("proxy: downstream rejected delivery as stale duplicate: %d %s", code, se.Msg))
	case code >= 400 && code < 500 &&
		code != http.StatusUnauthorized && code != http.StatusForbidden &&
		code != http.StatusConflict && // a duplicate still being applied by an earlier attempt
		code != http.StatusRequestTimeout && code != http.StatusTooManyRequests:
		return outbox.Permanent(fmt.Errorf("proxy: downstream rejected delivery: %d %s", code, se.Msg))
	case code == http.StatusLoopDetected:
		// The hop stamp inside the entry is immutable, so a depth
		// rejection can never succeed on retry.
		return outbox.Permanent(fmt.Errorf("proxy: downstream rejected delivery: %d %s", code, se.Msg))
	default:
		return fmt.Errorf("proxy: downstream returned %d %s", code, se.Msg)
	}
}

// AttestHop performs the proxy-to-proxy attestation handshake over
// HTTP: it fetches the next hop's report, verifies it against the
// attestation authority and expected measurement, and returns the
// pinned hop key for ShardedConfig.NextHopKey. httpc may be nil for a
// default client.
func AttestHop(ctx context.Context, nextHopURL string, httpc *http.Client, authority *ecdsa.PublicKey, measurement [32]byte) (*enclave.HopKey, error) {
	return AttestHopOver(ctx, transport.NewHTTP(httpc), nextHopURL, authority, measurement)
}

// AttestHopOver is AttestHop over an arbitrary transport (a Loopback
// tier attests its hops the same way an HTTP one does).
func AttestHopOver(ctx context.Context, tr transport.Transport, nextHopEP string, authority *ecdsa.PublicKey, measurement [32]byte) (*enclave.HopKey, error) {
	rep, nonce, err := transport.FetchReport(ctx, tr, nextHopEP)
	if err != nil {
		return nil, err
	}
	return enclave.TrustHop(rep, authority, measurement, nonce)
}

// shardStateLabel domain-separates the tier's durable state from other
// sealed material; each shard's section is additionally sealed under a
// per-shard derived key (see sectionLabel).
const shardStateLabel = "mixnn/sharded-state/v1"

func sectionLabel(shard int) string {
	switch shard {
	case core.PendingSection:
		return shardStateLabel + "/pending"
	case core.TrustSection:
		return shardStateLabel + "/trust"
	}
	return fmt.Sprintf("%s/shard/%d", shardStateLabel, shard)
}

// SealState exports the whole tier's durable state — every shard's
// buffered layers, the pending (emitted but not yet committed) updates,
// the per-shard ledgers, routing metadata and the round ledger — sealed
// under the enclave's identity-bound keys, so a proxy crash mid-round
// loses no participant material and leaks none to the untrusted host
// (§2.5 sealing applied to the §4.3 lists, tier-wide). Outbox entries are
// NOT in the blob: they are already durable (and sealed) on disk.
// SealState is safe to call concurrently with ingress: it waits for
// in-flight round commits (so no material sits between mixers and the
// outbox) and snapshots under the same mutex that serialises mixing, so
// the blob is always round-consistent.
func (p *ShardedProxy) SealState() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.closing > 0 {
		p.cond.Wait()
	}
	shardRecv := make([]int, len(p.shards))
	shardEmit := make([]int, len(p.shards))
	for s, m := range p.shards {
		shardRecv[s] = p.shardRecv[s] + m.Received()
		shardEmit[s] = p.shardEmit[s] + m.Emitted()
	}
	load := make([]int, len(p.rst.Load))
	copy(load, p.rst.Load)
	// Remote-shard trust material rides the blob (sealed under its own
	// derived key — it carries inter-proxy secrets) so the replacement
	// tier can re-attest its relay peers without an admin directive.
	// Restored-but-not-yet-reattested trust is included too: a tier
	// sealed while a peer was still down must not lose that peer's
	// trust, or its own blob would become unrestorable.
	trust := make(map[string]RemoteTrust)
	for addr, rt := range p.sealedTrust {
		trust[addr] = rt
	}
	for addr, rs := range p.remotes {
		if rs.Trust != nil {
			trust[addr] = *rs.Trust
		}
	}
	var trustBlob []byte
	if len(trust) > 0 {
		var err error
		if trustBlob, err = json.Marshal(trust); err != nil {
			return nil, fmt.Errorf("proxy: marshal remote trust: %w", err)
		}
	}
	raw, err := core.SealShardedState(p.shards, core.ShardedStateMeta{
		Routing:       core.RoutingMode(p.topo.Mode()),
		RRCursor:      p.rst.RR,
		InRound:       p.inRound,
		Rounds:        p.rounds,
		HopMark:       p.hopMark,
		Received:      p.received,
		HopReceived:   p.hopReceived,
		Forwarded:     p.forwarded,
		ShardReceived: shardRecv,
		ShardEmitted:  shardEmit,
		Pending:       p.pending,
		ShardLoad:     load,
		Topo:          p.topo.Marshal(),
		RemoteTrust:   trustBlob,
	}, func(s int, plain []byte) ([]byte, error) {
		return p.enclave.SealLabeled(sectionLabel(s), plain)
	})
	if err != nil {
		return nil, fmt.Errorf("proxy: export tier state: %w", err)
	}
	blob, err := p.enclave.SealLabeled(shardStateLabel, raw)
	if err != nil {
		return nil, fmt.Errorf("proxy: seal tier state: %w", err)
	}
	return blob, nil
}

// RestoreState loads a SealState blob into a freshly-constructed tier
// (same enclave identity and platform).
//
// With AdoptSealedTopology set, the tier comes back under
// EXACTLY the topology it was sealed under — routing mode, shard
// weights, remote placement, quota loads and topology version — so a
// crash-restart lands mid-round with the routing plane intact, whatever
// the replacement's static flags said.
//
// Otherwise the blob's material is resharded into THIS tier's configured
// topology: buffered material is redistributed across the new shards
// with the round's layer-wise aggregate unchanged, so an operator can
// crash a P-shard proxy and bring up a P′-shard replacement mid-round.
// Per-shard mixer ledgers restore exactly for an unchanged shard count
// and as a sum-preserving redistribution otherwise; pending emissions
// restore into the pending buffer and ride the next round's outbox
// entry.
func (p *ShardedProxy) RestoreState(blob []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.received != 0 || p.hopReceived != 0 {
		return fmt.Errorf("proxy: RestoreState on a proxy that already processed updates")
	}
	raw, err := p.enclave.UnsealLabeled(shardStateLabel, blob)
	if err != nil {
		return fmt.Errorf("proxy: unseal tier state: %w", err)
	}
	// Restore into fresh mixers so a failed restore cannot leave the
	// serving tier half-populated. The mixers continue the sealed tier's
	// epoch, so their rand streams don't replay an earlier epoch's.
	epoch, err := core.ShardedStateRounds(raw)
	if err != nil {
		return fmt.Errorf("proxy: restore tier state: %w", err)
	}
	topo := p.topo
	adopted := false
	if p.cfg.AdoptSealedTopology {
		topoBlob, err := core.ShardedStateTopo(raw)
		if err != nil {
			return fmt.Errorf("proxy: restore tier state: %w", err)
		}
		if topoBlob != nil {
			if topo, err = route.Parse(topoBlob); err != nil {
				return fmt.Errorf("proxy: sealed topology: %w", err)
			}
			adopted = true
		}
	}
	fresh, err := newShardSet(p.cfg, topo, epoch, p.slabPool)
	if err != nil {
		return err
	}
	meta, err := core.RestoreShardedState(raw, fresh, func(s int, sealed []byte) ([]byte, error) {
		return p.enclave.UnsealLabeled(sectionLabel(s), sealed)
	})
	if err != nil {
		return fmt.Errorf("proxy: restore tier state: %w", err)
	}
	// Every remote shard of the adopted topology needs either an
	// already-registered key or sealed trust material to re-attest from;
	// with neither the relay leg could never
	// deliver, so refuse the restore up front.
	sealedTrust := make(map[string]RemoteTrust)
	if meta.RemoteTrust != nil {
		if err := json.Unmarshal(meta.RemoteTrust, &sealedTrust); err != nil {
			return fmt.Errorf("proxy: sealed remote trust: %w", err)
		}
	}
	if adopted {
		for _, addr := range topo.Remotes() {
			if _, ok := p.remotes[addr]; ok {
				continue
			}
			if _, ok := sealedTrust[addr]; !ok {
				return fmt.Errorf("proxy: sealed topology names remote shard %q but no attested key is registered (RemoteShards) and the blob carries no trust material for it", addr)
			}
		}
	}
	if meta.Routing < core.RoutingHashRR || meta.Routing > core.RoutingHashQuota {
		return fmt.Errorf("proxy: sealed state uses unknown routing mode %d", meta.Routing)
	}
	if meta.InRound >= topo.RoundSize() {
		return fmt.Errorf("proxy: sealed in-round progress %d does not fit round size %d", meta.InRound, topo.RoundSize())
	}
	p.shards = fresh
	p.topo = topo
	p.planner.Reset(topo)
	p.rst = topo.NewState()
	p.rst.RR = meta.RRCursor % topo.P()
	if adopted && meta.ShardLoad != nil && len(meta.ShardLoad) == topo.P() {
		copy(p.rst.Load, meta.ShardLoad)
	} else {
		// Resharded restore: the sealed per-shard loads describe shards
		// that no longer exist. Spread the open round's routed count
		// round-robin — approximate, but quota enforcement only needs the
		// totals to add up.
		for i := 0; i < meta.InRound; i++ {
			p.rst.Load[i%topo.P()]++
		}
	}
	p.inRound = meta.InRound
	p.rounds = meta.Rounds
	p.putEpoch = meta.Rounds
	p.hopMark = meta.HopMark
	p.received = meta.Received
	p.hopReceived = meta.HopReceived
	p.forwarded = meta.Forwarded
	p.pending = meta.Pending
	p.restoredFrom = meta.SealedShards
	p.shardRecv, p.shardEmit = restoredLedgers(meta, fresh)
	// Keep the sealed trust for addresses still lacking a key;
	// ReattestRemotes (or an explicit RegisterRemote) turns them into
	// deliverable relay legs.
	for addr, rt := range sealedTrust {
		if _, ok := p.remotes[addr]; ok {
			continue
		}
		if p.sealedTrust == nil {
			p.sealedTrust = make(map[string]RemoteTrust)
		}
		p.sealedTrust[addr] = rt
	}
	return nil
}

// ReattestRemotes re-runs the hop attestation handshake for every
// remote shard whose trust material was restored from a seal blob but
// whose key has not been re-attested yet, registering the fresh keys it
// pins (which also wakes the delivery dispatcher: queued relay entries
// for those shards become deliverable). The sealed PINNED key would not
// have been enough — a peer's enclave key does not survive the peer's
// own restart — which is why the blob carries trust material instead.
// A peer that is down stays in the pending set (its queued material
// stalls, it is never lost) and the returned error reports it; calling
// again retries.
func (p *ShardedProxy) ReattestRemotes(ctx context.Context) error {
	p.mu.Lock()
	pending := make(map[string]RemoteTrust, len(p.sealedTrust))
	for addr, rt := range p.sealedTrust {
		if _, ok := p.remotes[addr]; ok {
			continue // registered out of band since the restore
		}
		pending[addr] = rt
	}
	p.mu.Unlock()
	var errs []error
	for addr, rt := range pending {
		rs, err := resolveRemoteShard(ctx, wire.TopologyShardSpec{
			Addr:            addr,
			AuthorityPubDER: rt.AuthorityPubDER,
			MeasurementHex:  rt.MeasurementHex,
			Secret:          rt.Secret,
		}, p.tr)
		if err != nil {
			errs = append(errs, fmt.Errorf("proxy: re-attest remote shard %s: %w", addr, err))
			continue
		}
		if err := p.RegisterRemote(addr, rs); err != nil {
			errs = append(errs, err)
			continue
		}
		p.mu.Lock()
		delete(p.sealedTrust, addr)
		p.mu.Unlock()
	}
	return errors.Join(errs...)
}

// restoredLedgers maps the sealed per-shard mixer ledgers onto the
// restoring tier. With an unchanged shard count the mapping is exact
// (each mixer already re-counted its restored entries; the carry is the
// history beyond them). Across a reshard the totals are preserved and
// spread evenly — per-shard exactness is not meaningful when the shards
// themselves changed.
func restoredLedgers(meta core.ShardedStateMeta, mixers []core.Shard) (recv, emit []int) {
	pPrime := len(mixers)
	recv = make([]int, pPrime)
	emit = make([]int, pPrime)
	if pPrime == meta.SealedShards {
		for s := range mixers {
			if recv[s] = meta.ShardReceived[s] - mixers[s].Received(); recv[s] < 0 {
				recv[s] = 0
			}
			emit[s] = meta.ShardEmitted[s]
		}
		return recv, emit
	}
	totalRecv, totalEmit, restored := 0, 0, 0
	for _, v := range meta.ShardReceived {
		totalRecv += v
	}
	for _, v := range meta.ShardEmitted {
		totalEmit += v
	}
	for _, m := range mixers {
		restored += m.Received()
	}
	carry := totalRecv - restored
	if carry < 0 {
		carry = 0
	}
	for s := 0; s < pPrime; s++ {
		recv[s] = carry / pPrime
		if s < carry%pPrime {
			recv[s]++
		}
		emit[s] = totalEmit / pPrime
		if s < totalEmit%pPrime {
			emit[s]++
		}
	}
	return recv, emit
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

// HandleTopology implements transport.Server: the admin plane. A nil
// directive reads the routing plane; a non-nil one stages it for the
// next round close. Both sides are gated on the inter-proxy secret —
// and staging over the network requires the proxy to HAVE one:
// reshaping the tier is privacy-critical either way (a forged directive
// could shrink the anonymity set to one shard, or attach an
// attacker-attested "remote shard" that receives raw pre-mix updates).
// Operators without a secret still have -shards-file and the Go API.
func (p *ShardedProxy) HandleTopology(ctx context.Context, req transport.TopologyRequest) (wire.TopologyStatus, error) {
	if req.Directive != nil && p.cfg.HopSecret == "" {
		return wire.TopologyStatus{}, transport.Errorf(http.StatusForbidden,
			"topology admin POST requires the proxy to be started with an inter-proxy secret (-hop-secret)")
	}
	if p.cfg.HopSecret != "" &&
		subtle.ConstantTimeCompare([]byte(req.Secret), []byte(p.cfg.HopSecret)) != 1 {
		return wire.TopologyStatus{}, transport.Errorf(http.StatusUnauthorized, "topology admin requires the inter-proxy secret")
	}
	if req.Directive != nil {
		if _, err := p.StageTopology(ctx, *req.Directive); err != nil {
			return wire.TopologyStatus{}, transport.Errorf(http.StatusUnprocessableEntity, "%s", err.Error())
		}
	}
	return p.TopologyStatus(), nil
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
	for _, ls := range p.disp.LaneStats() {
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
			Received: p.shardRecv[s] + m.Received(),
			Emitted:  p.shardEmit[s] + m.Emitted(),
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
	return wire.ShardedProxyStatus{
		Shards:            shards,
		Received:          p.received,
		HopReceived:       p.hopReceived,
		Forwarded:         p.forwarded,
		Rounds:            p.rounds,
		InRound:           p.inRound,
		RoundSize:         p.topo.RoundSize(),
		Epoch:             p.rounds,
		OutboxPending:     pending,
		OutboxLanes:       lanes,
		BatchesSent:       p.batches,
		NextHop:           p.cfg.NextHop,
		MaxHops:           p.cfg.MaxHops,
		TopoVersion:       p.topo.Version(),
		RoutingMode:       p.topo.Mode().String(),
		StagedTopoVersion: stagedVer,
		OutboxQuarantined: p.box.Quarantined(),
		RestoredFrom:      p.restoredFrom,
		UpdateBytes:       p.updateBytes,
		EnclaveUsed:       st.MemoryUsedBytes,
		EnclavePeak:       st.MemoryPeakBytes,
		EnclavePaging:     st.PageEvents,
		DecryptMillis:     p.decryptT.meanMillisExact(),
		DecryptMicros:     p.decryptT.meanMillisExact() * 1000,
		StoreMillis:       p.storeT.meanMillisExact(),
		MixMillis:         p.mixT.meanMillisExact(),
		ProcessMillis:     p.processT.meanMillisExact(),

		SessionsActive:      st.SessionsActive,
		SessionsEstablished: st.SessionsEstablished,
		SessionHits:         st.SessionHits,
		SessionMisses:       st.SessionMisses,
		SessionEvictions:    st.SessionEvictions,
		SessionReplays:      st.SessionReplays,

		AdmissionRateLimited: p.admRate.Load(),
		AdmissionShed:        p.admShed.Load(),
	}
}
