package core

import (
	"bytes"
	"sync"
	"sync/atomic"

	"mixnn/internal/nn"
)

// SlabPool recycles slab chunks across rounds: a round-scoped pool, in
// the sense that a chunk returns to it exactly once — at the epoch swap,
// after the retired shards' round has been drained, encoded and
// committed to the outbox — and is handed to a later epoch's fresh
// shards (mixers and relays alike). Steady-state rounds therefore
// allocate no slab storage and no per-row view structures at all: the
// chunk carries its ParamSet views with it, and because a recycled chunk
// keeps its layout, the views are valid the moment the chunk is reused.
//
// Matching is by layout identity (skeleton bytes): a pooled chunk of a
// different model structure or a smaller row count is dropped to the GC
// rather than reshaped. The pool also carries the tier's slab layout
// across epochs (LayoutFor). It is safe for concurrent use and a nil
// *SlabPool is valid (every get allocates, every put discards, every
// LayoutFor derives).
type SlabPool struct {
	p      sync.Pool
	layout atomic.Pointer[nn.SlabLayout]
}

// NewSlabPool builds an empty pool.
func NewSlabPool() *SlabPool { return &SlabPool{} }

// LayoutFor returns the slab layout of one encoded update: the layout
// the pool last handed out when wire has exactly that structure (one
// CheckWire, no allocation), else one derived from wire through the
// untrusted-input decoder, which the pool then remembers — a model
// change mid-run costs one derivation. Either way wire is fully
// validated.
func (p *SlabPool) LayoutFor(wire []byte) (*nn.SlabLayout, error) {
	if p != nil {
		if l := p.layout.Load(); l != nil && l.CheckWire(wire) == nil {
			return l, nil
		}
	}
	l, err := nn.SlabLayoutFromWire(wire)
	if err == nil && p != nil {
		p.layout.Store(l)
	}
	return l, err
}

// get hands out a chunk of at least rows rows of layout's stride: a
// recycled one when the pool holds a match, a fresh allocation (slab and
// per-row views together) otherwise. The rows' contents are whatever the
// previous round left; every user overwrites a row before publishing it.
func (p *SlabPool) get(layout *nn.SlabLayout, rows int) *SlabChunk {
	// A pool may hold chunks of an older topology's shape (membership or
	// model changes); try a few before giving up so one stale chunk does
	// not defeat recycling forever.
	for i := 0; p != nil && i < 4; i++ {
		v := p.p.Get()
		if v == nil {
			break
		}
		c := v.(*SlabChunk)
		if c.rows >= rows && bytes.Equal(c.skeleton, layout.Skeleton()) {
			return c
		}
	}
	return NewSlabChunk(layout, rows)
}

// put returns a chunk for a later round. The caller guarantees nothing
// references its rows or views any more.
func (p *SlabPool) put(c *SlabChunk) {
	if p != nil && c != nil {
		p.p.Put(c)
	}
}

// SlabChunk is one contiguous allocation of slab rows plus the ParamSet
// views materialised over them (one per row, bulk-allocated). Chunks are
// never grown or reshaped: a store that outgrows its chunk appends a new
// one, so every view handed out stays valid for the whole round.
type SlabChunk struct {
	skeleton []byte // layout identity (aliases the layout's skeleton)
	rows     int
	stride   int
	data     []float64
	views    []nn.ParamSet
}

// NewSlabChunk allocates a chunk of rows rows of layout's stride, its
// per-row views included. An owner that fills one chunk over and over —
// the aggregation server, one round at a time — keeps it instead of
// cycling it through a pool.
func NewSlabChunk(layout *nn.SlabLayout, rows int) *SlabChunk {
	data := make([]float64, rows*layout.Stride())
	return &SlabChunk{
		skeleton: layout.Skeleton(),
		rows:     rows,
		stride:   layout.Stride(),
		data:     data,
		views:    layout.NewChunkViews(data, rows),
	}
}

// Row returns row i's storage (Stride() scalars).
func (c *SlabChunk) Row(i int) []float64 { return c.data[i*c.stride : (i+1)*c.stride] }

// Views returns the chunk's pre-built per-row ParamSet views; Views()[i]
// aliases Row(i) and shows whatever the row holds at the time it is read.
func (c *SlabChunk) Views() []nn.ParamSet { return c.views }

// slabStore is a slab shard's storage (a StreamMixer's or a RelayShard's):
// each accepted update occupies one stride-length row of a chunk, and what
// the mixing lists hold are LayerParams drawn from the row's pre-built
// view — so the mixer's swap/drain logic runs over tensors that all live
// in a handful of flat float64 allocations.
//
// Rows are never reused within a round: an emitted update's view aliases
// its row until the round's outbox entry is committed, so the store only
// ever appends. The whole round's storage is recycled at once through
// the SlabPool (see StreamMixer.ReleaseSlab). The store is guarded by
// the owning shard's mutex.
type slabStore struct {
	pool      *SlabPool
	layout    *nn.SlabLayout
	chunkRows int
	chunks    []*SlabChunk
	used      int // rows used in the last chunk

	// Emission arenas: mid-round emissions hand out *nn.ParamSet whose
	// struct and Layers slice come from bulk allocations, and drained
	// updates take their Layers slices from the same arena, so neither
	// allocates per update. Exhausted arenas are abandoned to the GC
	// (outstanding emissions keep them alive) and replaced.
	emSets    []nn.ParamSet
	emSetUsed int
	emLayers  []nn.LayerParams
	emLayUsed int
}

// minChunkRows is the smallest chunk a store draws: a mixer of K ≤ 8 and
// every relay draw the same shape, so the shared pool hands either kind's
// chunks to the other.
const minChunkRows = 8

func newSlabStore(k int, pool *SlabPool) *slabStore {
	return &slabStore{pool: pool, chunkRows: max(k, minChunkRows)}
}

// nextRow claims a fresh row, returning its pre-built view and storage.
func (s *slabStore) nextRow() (nn.ParamSet, []float64) {
	if len(s.chunks) == 0 || s.used == s.chunkRows {
		s.chunks = append(s.chunks, s.pool.get(s.layout, s.chunkRows))
		s.used = 0
	}
	c := s.chunks[len(s.chunks)-1]
	view, row := c.views[s.used], c.Row(s.used)
	s.used++
	return view, row
}

// fileWire decodes one encoded update straight into a fresh row and
// returns its view — the wire-bytes → slab path with no intermediate
// materialisation. The round's first update settles its layout.
func (s *slabStore) fileWire(wire []byte) (nn.ParamSet, error) {
	if s.layout == nil {
		l, err := s.pool.LayoutFor(wire)
		if err != nil {
			return nn.ParamSet{}, err
		}
		s.layout = l
	}
	view, row := s.nextRow()
	if err := s.layout.DecodeIntoSlab(row, wire); err != nil {
		s.used-- // the row was never published; reclaim it
		return nn.ParamSet{}, err
	}
	return view, nil
}

// fileParamSet copies one already-decoded update into a fresh row and
// returns its view (seal restores and the offline transforms hold trees).
func (s *slabStore) fileParamSet(u nn.ParamSet) (nn.ParamSet, error) {
	if s.layout == nil {
		l, err := nn.NewSlabLayout(u)
		if err != nil {
			return nn.ParamSet{}, err
		}
		s.layout = l
	}
	view, row := s.nextRow()
	if err := s.layout.CopyIntoRow(row, u); err != nil {
		s.used--
		return nn.ParamSet{}, err
	}
	return view, nil
}

// emission hands out an emission ParamSet with a Layers slice of length
// L, both drawn from the arenas.
func (s *slabStore) emission(L int) *nn.ParamSet {
	if s.emSetUsed == len(s.emSets) {
		s.emSets = make([]nn.ParamSet, s.chunkRows)
		s.emSetUsed = 0
	}
	out := &s.emSets[s.emSetUsed]
	s.emSetUsed++
	out.Layers = s.layers(L)
	return out
}

// layers hands out a Layers slice of length L from the arena, room for
// chunkRows updates at a time.
func (s *slabStore) layers(L int) []nn.LayerParams {
	if s.emLayUsed+L > len(s.emLayers) {
		s.emLayers = make([]nn.LayerParams, s.chunkRows*L)
		s.emLayUsed = 0
	}
	out := s.emLayers[s.emLayUsed : s.emLayUsed+L : s.emLayUsed+L]
	s.emLayUsed += L
	return out
}

// release returns every chunk to the pool for the next epoch's shards.
// The caller (ReleaseSlab) guarantees no view into the chunks is still
// referenced.
func (s *slabStore) release() {
	for i, c := range s.chunks {
		s.pool.put(c)
		s.chunks[i] = nil
	}
	s.chunks = nil
	s.used = 0
	s.emSets = nil
	s.emSetUsed = 0
	s.emLayers = nil
	s.emLayUsed = 0
}

// ReleaseSlab recycles a mixer's storage into its pool. It is the
// round-scoped half of the pool lifecycle: the proxy calls it on a
// RETIRED epoch's mixers after the round's outbox entry committed — at
// that point every emission and drained update of the round has been
// encoded into the sealed entry, so no live reference into the slab
// remains. It must NOT be called while the round's material can still be
// referenced (a failed commit retains emissions that alias the slab; the
// proxy skips the release and lets the GC reclaim the chunks instead). A
// mixer without a pool, or one still holding buffered material, ignores
// the call.
func (m *StreamMixer) ReleaseSlab() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.slab.pool == nil || m.buffered != 0 {
		return
	}
	m.slab.release()
	m.lists = nil
}
