package core

import (
	"fmt"
	"math/rand"
	"sync"

	"mixnn/internal/nn"
)

// Shard is one slot of a mixing tier: the contract the proxy's round
// machinery (ingest, round-close drain, seal/restore) needs from a shard
// regardless of WHERE the mixing happens. A local shard is a StreamMixer
// (mixing in this enclave); a remote shard is a RelayShard (material is
// buffered here and relayed to a peer proxy that mixes in its own
// enclave). Implementations must be safe for concurrent use.
type Shard interface {
	// Add files one update; a non-nil return is an emission (a mixed
	// update leaving the shard mid-round).
	Add(u nn.ParamSet) (*nn.ParamSet, error)
	// AddWire files one ENCODED update, letting the shard choose the
	// cheapest path from wire bytes to its storage: a slab mixer copies
	// the payload straight into its slab row, a legacy mixer or relay
	// decodes over the buffer and aliases it. The shard only reads wire;
	// whether the caller gets the buffer back is RetainsWire's answer.
	AddWire(wire []byte) (*nn.ParamSet, error)
	// RetainsWire reports whether material filed with AddWire keeps
	// referencing the wire buffer (until the round's drain has been
	// encoded). When false the caller may reuse the buffer as soon as
	// AddWire returns; when true it must leave it alone.
	RetainsWire() bool
	// Drain empties the shard at round close and returns the remainder.
	Drain() []nn.ParamSet
	// Buffered, Received and Emitted report the shard's ledger.
	Buffered() int
	Received() int
	Emitted() int
	// K is the shard's buffer capacity (the mixing breadth for a local
	// shard, the round quota for a relay).
	K() int
	// SnapshotEntries exports the buffered contents as complete
	// pseudo-updates for sealing; RestoreEntry reverses it. See the
	// sharded-state docs in shardstate.go.
	SnapshotEntries() []nn.ParamSet
	RestoreEntry(u nn.ParamSet) error
}

// RelayShard is the local stand-in for a REMOTE shard of the tier: it
// buffers the round's material routed to that shard so the delivery
// pipeline can relay it — re-encrypted for the remote proxy's enclave —
// when the round closes. It never mixes (the remote enclave does); it
// only needs the same conservation property as a mixer, which holds
// trivially because Drain returns exactly what Add received.
type RelayShard struct {
	mu       sync.Mutex
	k        int
	buf      []nn.ParamSet
	received int
	emitted  int
}

// NewRelayShard builds a relay buffer; k is the shard's round quota
// (capacity hint only — a relay never rejects, because the router already
// enforces quotas).
func NewRelayShard(k int) *RelayShard {
	if k <= 0 {
		k = 1
	}
	return &RelayShard{k: k}
}

// Add implements Shard: buffer, never emit.
func (r *RelayShard) Add(u nn.ParamSet) (*nn.ParamSet, error) {
	if len(u.Layers) == 0 {
		return nil, fmt.Errorf("core: relay of empty update")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = append(r.buf, u)
	r.received++
	return nil, nil
}

// RetainsWire implements Shard: the buffered views alias the buffer.
func (r *RelayShard) RetainsWire() bool { return true }

// AddWire implements Shard: decode without copying where alignment
// allows (the relayed material is re-encoded per destination at round
// close anyway) and buffer. The views alias wire.
func (r *RelayShard) AddWire(wire []byte) (*nn.ParamSet, error) {
	ps, err := nn.DecodeParamSetNoCopy(wire)
	if err != nil {
		return nil, err
	}
	return r.Add(ps)
}

// Drain implements Shard: hand the round's buffered material to the
// relay leg.
func (r *RelayShard) Drain() []nn.ParamSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.buf
	r.buf = nil
	r.emitted += len(out)
	return out
}

// Buffered implements Shard.
func (r *RelayShard) Buffered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Received implements Shard.
func (r *RelayShard) Received() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.received
}

// Emitted implements Shard.
func (r *RelayShard) Emitted() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.emitted
}

// K implements Shard.
func (r *RelayShard) K() int { return r.k }

// SnapshotEntries implements Shard: the buffered updates already are
// complete pseudo-updates.
func (r *RelayShard) SnapshotEntries() []nn.ParamSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]nn.ParamSet, len(r.buf))
	copy(out, r.buf)
	return out
}

// RestoreEntry implements Shard.
func (r *RelayShard) RestoreEntry(u nn.ParamSet) error {
	if len(u.Layers) == 0 {
		return fmt.Errorf("core: restore of empty update")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = append(r.buf, u)
	r.received++
	return nil
}

// Sharded mixing (the multi-proxy tier). A round of C participants is
// partitioned round-robin across P independent shards; each shard mixes
// only the updates routed to it. Because every shard's mixer is
// conservative — the multiset of layers it emits over a round equals the
// multiset it received — the union across shards is conservative too, so
// the layer-wise mean of all outgoing updates equals the layer-wise mean of
// the inputs and the §4.2 aggregation-equivalence theorem survives
// sharding. What sharding trades away is mixing breadth: layers are only
// exchanged within a shard (anonymity set C/P per shard instead of C),
// which is why the deployment cascades shards through a second mixing hop.

// ShardSizes returns the per-shard round sizes of a round-robin partition
// of c participants over p shards: sizes[s] counts the i in [0, c) with
// i % p == s. It panics if p <= 0.
func ShardSizes(c, p int) []int {
	if p <= 0 {
		panic(fmt.Sprintf("core: ShardSizes with %d shards", p))
	}
	sizes := make([]int, p)
	for s := range sizes {
		sizes[s] = c / p
		if s < c%p {
			sizes[s]++
		}
	}
	return sizes
}

// shardUpdates partitions updates round-robin: shard s receives updates
// i with i % p == s, in arrival order.
func shardUpdates(updates []nn.ParamSet, p int) [][]nn.ParamSet {
	shards := make([][]nn.ParamSet, p)
	for i, u := range updates {
		s := i % p
		shards[s] = append(shards[s], u)
	}
	return shards
}

// clampShards bounds the shard count to [1, c] so every shard sees at
// least one update.
func clampShards(p, c int) int {
	if p <= 0 {
		p = 1
	}
	if p > c {
		p = c
	}
	return p
}

// ShardedStreamTransform runs one independent k-buffer StreamMixer per
// shard over a round-robin partition of the round and concatenates the
// shards' outputs (emissions followed by the round-close drain, per shard).
// With Shards = 1 it reduces exactly to StreamTransform. It satisfies
// fl.UpdateTransform.
type ShardedStreamTransform struct {
	// K is the per-shard list capacity; it is clamped to the shard's round
	// size (so the buffer always fills and drains within the round).
	K int
	// Shards is the shard count P (defaults to 1; clamped to the number of
	// updates).
	Shards int
	// Slab runs each shard's mixer in slab-backed storage mode. The
	// output is bit-identical to the legacy mode for the same rng (the
	// mixing decisions consume the identical RNG sequence; only storage
	// differs) — which is exactly what the equivalence fuzz targets pin.
	Slab bool
}

// Name implements fl.UpdateTransform.
func (t ShardedStreamTransform) Name() string { return "mixnn-sharded" }

// Apply implements fl.UpdateTransform.
func (t ShardedStreamTransform) Apply(updates []nn.ParamSet, rng *rand.Rand) ([]nn.ParamSet, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("core: sharded stream mix of zero updates")
	}
	p := clampShards(t.Shards, len(updates))
	out := make([]nn.ParamSet, 0, len(updates))
	for s, part := range shardUpdates(updates, p) {
		k := t.K
		if k <= 0 || k > len(part) {
			k = len(part)
		}
		var m *StreamMixer
		var err error
		if t.Slab {
			m, err = NewStreamMixerSlab(k, rng, nil)
		} else {
			m, err = NewStreamMixer(k, rng)
		}
		if err != nil {
			return nil, err
		}
		for i, u := range part {
			mixed, err := m.Add(u)
			if err != nil {
				return nil, fmt.Errorf("core: shard %d update %d: %w", s, i, err)
			}
			if mixed != nil {
				out = append(out, *mixed)
			}
		}
		out = append(out, m.Drain()...)
	}
	return out, nil
}

// ShardedTransform is the batch mixer (§4.2) applied per shard: each shard
// mixes its partition with one independent uniform permutation per unit at
// the chosen granularity. With Shards = 1 it reduces exactly to Transform.
// It satisfies fl.UpdateTransform.
type ShardedTransform struct {
	// Granularity defaults to GranularityLayer (the paper's design).
	Granularity Granularity
	// Shards is the shard count P (defaults to 1; clamped to the number of
	// updates).
	Shards int
}

// Name implements fl.UpdateTransform.
func (t ShardedTransform) Name() string { return "mixnn-sharded-batch" }

// Apply implements fl.UpdateTransform.
func (t ShardedTransform) Apply(updates []nn.ParamSet, rng *rand.Rand) ([]nn.ParamSet, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("core: sharded batch mix of zero updates")
	}
	g := t.Granularity
	if g == 0 {
		g = GranularityLayer
	}
	p := clampShards(t.Shards, len(updates))
	out := make([]nn.ParamSet, 0, len(updates))
	for s, part := range shardUpdates(updates, p) {
		mixed, _, err := BatchMixAssignment(part, rng, g)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s, err)
		}
		out = append(out, mixed...)
	}
	return out, nil
}
