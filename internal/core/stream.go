package core

import (
	"fmt"
	"math/rand"
	"sync"

	"mixnn/internal/nn"
)

// StreamMixer is the paper's §4.3 enclave implementation of mixing: the
// parameters of each layer are stored in per-layer lists of capacity k.
// The first k updates fill the lists. Every further update causes the
// mixer to pick at random and remove one element from each list, assemble
// those elements into an outgoing update, and file the arriving update's
// layers into the freed slots.
//
// Storage is a slab (slab.go): every accepted update is copied (or
// wire-decoded) into one stride-length row of a contiguous float64 chunk
// and the lists hold that row's pre-built view, so nothing the mixer
// keeps aliases the caller's ParamSet or wire bytes.
//
// A StreamMixer is safe for concurrent use: Add, Drain, the counters and
// the state snapshot methods serialise on an internal mutex, so the
// sharded proxy tier can drive one mixer per shard from concurrent
// request handlers.
type StreamMixer struct {
	k   int
	rng *rand.Rand

	mu       sync.Mutex
	slab     *slabStore
	lists    [][]nn.LayerParams
	buffered int
	emitted  int
	received int
}

// NewStreamMixerSlab creates a mixer with per-layer lists of capacity k,
// its storage in contiguous per-round float64 slabs drawn from pool. pool
// may be nil (the mixer then allocates chunks that die with it instead of
// recycling them at the epoch swap).
func NewStreamMixerSlab(k int, rng *rand.Rand, pool *SlabPool) (*StreamMixer, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: stream mixer requires k > 0, got %d", k)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: stream mixer requires a rand source")
	}
	return &StreamMixer{k: k, rng: rng, slab: newSlabStore(k, pool)}, nil
}

// K returns the list capacity.
func (m *StreamMixer) K() int { return m.k }

// Buffered returns the number of updates currently held in the lists.
func (m *StreamMixer) Buffered() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buffered
}

// Received returns the total number of updates accepted.
func (m *StreamMixer) Received() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.received
}

// Emitted returns the total number of mixed updates produced.
func (m *StreamMixer) Emitted() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.emitted
}

// Add accepts one participant update, copying it into a slab row. While
// the lists are filling (fewer than k buffered) it returns (nil, nil).
// Once the lists are full, each Add returns exactly one mixed update
// assembled from randomly-drawn buffered layers, with the arriving layers
// taking the freed slots.
func (m *StreamMixer) Add(u nn.ParamSet) (*nn.ParamSet, error) {
	if len(u.Layers) == 0 {
		return nil, fmt.Errorf("core: empty update")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	row, err := m.slab.fileParamSet(u)
	if err != nil {
		return nil, fmt.Errorf("core: update incompatible with mixer model structure")
	}
	return m.addLocked(row)
}

// AddWire ingests one ENCODED update: it is decoded straight into a fresh
// slab row (header-skeleton validation plus one bulk payload copy — no
// intermediate ParamSet, no per-tensor allocation) and the row's view is
// mixed. Emission semantics and the RNG call sequence are those of Add.
func (m *StreamMixer) AddWire(wire []byte) (*nn.ParamSet, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	row, err := m.slab.fileWire(wire)
	if err != nil {
		return nil, fmt.Errorf("core: update incompatible with mixer model structure: %w", err)
	}
	return m.addLocked(row)
}

// addLocked runs the §4.3 fill/swap step on a filed row's view. Caller
// holds m.mu.
func (m *StreamMixer) addLocked(row nn.ParamSet) (*nn.ParamSet, error) {
	m.received++
	if m.buffered < m.k {
		m.bufferLocked(row)
		return nil, nil
	}

	out := m.slab.emission(len(m.lists))
	for li := range m.lists {
		pick := m.rng.Intn(len(m.lists[li]))
		out.Layers[li] = m.lists[li][pick]
		// Replace the drawn element with the arriving layer ("the empty
		// element in each list is then filled out with information coming
		// from the incoming update", §4.3).
		m.lists[li][pick] = row.Layers[li]
	}
	m.emitted++
	return out, nil
}

// bufferLocked appends a filed row's layers to the lists, creating them
// on the round's first row. Caller holds m.mu.
func (m *StreamMixer) bufferLocked(row nn.ParamSet) {
	if m.lists == nil {
		m.lists = make([][]nn.LayerParams, len(row.Layers))
		for i := range m.lists {
			m.lists[i] = make([]nn.LayerParams, 0, m.k)
		}
	}
	for li, lp := range row.Layers {
		m.lists[li] = append(m.lists[li], lp)
	}
	m.buffered++
}

// Drain empties the lists at the end of a round, emitting the remaining
// buffered material as mixed updates (each assembled from one random
// element per layer, without replacement). After Drain the mixer is ready
// for a new round. The paper's proxy drains once all C participants of a
// round have been forwarded, which restores L = C and therefore exact
// aggregation equivalence. The drained updates' Layers slices come from
// the emission arena, so a drain allocates O(1), not O(round).
func (m *StreamMixer) Drain() []nn.ParamSet {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]nn.ParamSet, m.buffered)
	for i := range out {
		out[i].Layers = m.slab.layers(len(m.lists))
		for li := range m.lists {
			pick := m.rng.Intn(len(m.lists[li]))
			last := len(m.lists[li]) - 1
			out[i].Layers[li] = m.lists[li][pick]
			m.lists[li][pick] = m.lists[li][last]
			m.lists[li] = m.lists[li][:last]
		}
	}
	m.emitted += m.buffered
	m.buffered = 0
	return out
}
