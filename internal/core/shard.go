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
// enclave). Implementations must be safe for concurrent use. Ingress is
// wire-only: inside the tier an update is a validated wire image or a
// slab row, never a ParamSet tree built for the occasion.
type Shard interface {
	// AddWire files one ENCODED update, fully validating it against the
	// round's model structure, by copying its payload into a slab row
	// (mixers and relays store alike). A non-nil return is an emission
	// (a mixed update leaving the shard mid-round). Nothing the shard
	// keeps references wire, so the caller may reuse the buffer as soon
	// as AddWire returns.
	AddWire(wire []byte) (*nn.ParamSet, error)
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
// when the round closes. It never mixes (the remote enclave does): it
// files each update into a slab row drawn from the tier's SlabPool, as a
// mixer does, and Drain hands the rows' views back unmixed in arrival
// order, conservation trivially.
type RelayShard struct {
	mu       sync.Mutex
	k        int
	store    *slabStore
	rows     []nn.ParamSet // the buffered rows' views, in arrival order
	received int
	emitted  int
}

// NewRelayShard builds a relay buffer; k is the shard's round quota
// (capacity hint only — a relay never rejects for room, because the
// router already enforces quotas). Its rows come from pool in chunks of
// minChunkRows, the size the tier's mixers draw, so relays and mixers
// recycle each other's chunks; nil allocates chunks that die with it.
func NewRelayShard(k int, pool *SlabPool) *RelayShard {
	if k <= 0 {
		k = 1
	}
	return &RelayShard{k: k, store: newSlabStore(minChunkRows, pool)}
}

// AddWire implements Shard: decode the update into a fresh row (the
// round's first update settles the structure, as for a mixer), never
// emit.
func (r *RelayShard) AddWire(wire []byte) (*nn.ParamSet, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return nil, r.file(r.store.fileWire(wire))
}

// file buffers a freshly filed row's view. Caller holds r.mu.
func (r *RelayShard) file(view nn.ParamSet, err error) error {
	if err != nil {
		return fmt.Errorf("core: update incompatible with relay model structure: %w", err)
	}
	r.rows = append(r.rows, view)
	r.received++
	return nil
}

// Drain implements Shard: the buffered rows, unmixed, in arrival order.
// The views stay valid until ReleaseSlab.
func (r *RelayShard) Drain() []nn.ParamSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.rows
	r.rows = nil
	r.emitted += len(out)
	return out
}

// ReleaseSlab recycles the relay's rows into its pool, under the same
// contract as StreamMixer.ReleaseSlab: only after the round's entries
// committed, and ignored while material is still buffered.
func (r *RelayShard) ReleaseSlab() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.rows) == 0 {
		r.store.release()
	}
}

// Buffered implements Shard.
func (r *RelayShard) Buffered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rows)
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

// SnapshotEntries implements Shard: the buffered rows' views, so a seal
// blob's relay section encodes to the bytes the updates arrived as.
func (r *RelayShard) SnapshotEntries() []nn.ParamSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]nn.ParamSet(nil), r.rows...)
}

// RestoreEntry implements Shard: a restored (or re-filed) update is
// copied into a fresh row.
func (r *RelayShard) RestoreEntry(u nn.ParamSet) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.file(r.store.fileParamSet(u))
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
// With Shards = 1 it is the paper's single §4.3 stream: it feeds the
// round through a fresh k-buffer mixer and drains it, so the server
// receives exactly as many updates as participants sent. The mixers are
// the tier's own, so the offline experiments run the code a proxy runs.
// It satisfies fl.UpdateTransform.
type ShardedStreamTransform struct {
	// K is the per-shard list capacity; it is clamped to the shard's round
	// size (so the buffer always fills and drains within the round).
	K int
	// Shards is the shard count P (defaults to 1; clamped to the number of
	// updates).
	Shards int
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
		m, err := NewStreamMixerSlab(k, rng, nil)
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
