package proxy

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"net/http"
	"sync"
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
	// DeliveryWorkers bounds how many destination lanes deliver at once
	// (default outbox.DefaultWorkers). A lane is drained only by its own
	// goroutine, so per-destination ordering is unaffected by the count.
	DeliveryWorkers int
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
	// ShedQueueDepth is the load-shedding threshold: while the live
	// ingress queue depth (IngressDepth) is at or above it the participant
	// ingress refuses everything with 429. 0 (the default) disables
	// shedding.
	ShedQueueDepth int
	// IngressDepth reports the live ingress queue depth feeding this
	// proxy (e.g. a closure over Loopback.QueueDepth, or a listener's
	// accept backlog); nil = the signal falls back to the
	// committed-but-undelivered outbox backlog, the tier's real
	// ingress-to-egress queue in deployments with no observable
	// transport queue (the HTTP daemon).
	IngressDepth func() int
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
	// dlv is the outbound half — transport, outbox, dispatcher, hop keys
	// and delivery counters — behind its own lock (see delivery.go).
	dlv  *delivery
	seen batchDedup
	// planner owns the routing plane's lifecycle: admin directives stage
	// the next epoch's topology there; the round-close swap advances it.
	planner *route.Planner
	// slabPool recycles the shards' slab chunks (mixers' and relays')
	// across epochs and carries the model's slab layout with them. Chunks return to it only
	// after their round's outbox commit fully succeeded — see packageRound.
	slabPool *core.SlabPool
	// plainPool recycles the plaintext buffers request bodies (single
	// updates and whole batches) are decrypted into (*[]byte). A buffer
	// returns to it as soon as the shards have filed (copied) what it
	// holds, when the request's enclave pass ends.
	plainPool sync.Pool
	// plainReleased, when set (tests), sees a plaintext buffer at the
	// moment it is recycled — after which nothing may read it.
	plainReleased func([]byte)
	// maxEntry bounds one outbox entry so that its batch body, hop-wrapped,
	// fits the receiver's read bound (wire.MaxBodyBytes less wrapMargin);
	// packageRound cuts a larger share into several entries. Tests lower it.
	maxEntry int

	// mu is the round lock: routing state, mixers, round accounting and
	// the commit order. It may be held while taking dlv.mu, never the
	// reverse.
	mu   sync.Mutex
	cond *sync.Cond // signals closing/putEpoch transitions
	// topo is the CURRENT epoch's routing plan and rst its mutable
	// routing state (cursor + per-shard quota loads); both swap with the
	// shards at round close.
	topo *route.Topology
	rst  *route.State
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
	// shardRecv/shardEmit are the per-shard books, cumulative across
	// epoch swaps and restores: updates filed into shard s and updates it
	// emitted, counted where that happens (ingest files and swaps out,
	// packageRound drains), never read back from a shard.
	shardRecv []int
	shardEmit []int

	inRound      int // updates received in the current round
	rounds       int // completed rounds == the epoch being ingested
	hopMark      int // highest incoming hop depth seen this round
	received     int // participant updates ingested (hop 0)
	hopReceived  int // cascade updates ingested (hop >= 1)
	restoredFrom int // shard count of the blob this tier restored from (0 = fresh)
	updateBytes  int

	// metrics is the registry behind /v1/metrics and the one store of
	// what a stage measures (see initControlPlane); Status and the gate's
	// signals read its instruments, and nothing records one under p.mu.
	metrics                              *health.Registry
	decryptUs, storeUs, mixUs, processUs *health.Histogram
	rateLimited, shed                    *health.Counter

	// Control plane (see controlplane.go): the admission gate in front
	// of participant ingress and the short-lived signal snapshot the gate
	// reads instead of polling queues per update.
	admission *health.Admission
	sigMu     sync.Mutex
	sigAt     time.Time
	sig       health.Signals
}

// outboxLabel domain-separates outbox entries from other sealed material.
const outboxLabel = "mixnn/outbox/v1"

// wrapMargin is the room a hop wrap (session header, nonce, tag) may add
// to a batch body on its way to the receiver's read bound.
const wrapMargin = 4096

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
		remotes[addr] = rs.pinned()
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
	var box *outbox.Queue
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
		cfg: cfg, enclave: encl, platform: platform,
		shards: shards, topo: topo, rst: topo.NewState(),
		planner:   route.NewPlanner(topo),
		slabPool:  pool,
		maxEntry:  wire.MaxBodyBytes - wrapMargin,
		shardRecv: make([]int, topo.P()),
		shardEmit: make([]int, topo.P()),
	}
	p.cond = sync.NewCond(&p.mu)
	p.initControlPlane()
	p.dlv = newDelivery(cfg, tr, box, remotes, p.metrics)
	return p, nil
}

// Close stops the delivery dispatcher. Undelivered outbox entries stay
// queued — on disk when OutboxDir is set — for the next process.
func (p *ShardedProxy) Close() {
	p.dlv.disp.Close()
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
	if err := p.dlv.disp.Flush(ctx); err != nil {
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
