package core

import (
	"math/rand"
	"testing"

	"mixnn/internal/nn"
)

// encodeAll serialises updates to wire bytes (fresh buffer each — the
// slab ingress takes ownership of the buffer it is handed).
func encodeAll(t testing.TB, updates []nn.ParamSet) [][]byte {
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

// TestSlabAddWireBitEquivalent drives the identical update stream through
// the tree-list reference (Add of each decoded update) and a slab mixer
// (AddWire) with the same seed: every emission and the round-close drain
// must be BIT-identical, because the slab store changes storage, not
// mixing decisions.
func TestSlabAddWireBitEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	updates := makeUpdates(23, 3, rng)
	wires := encodeAll(t, updates)

	ref := &refStream{k: 5, rng: rand.New(rand.NewSource(7))}
	slab, err := NewStreamMixerSlab(5, rand.New(rand.NewSource(7)), NewSlabPool())
	if err != nil {
		t.Fatal(err)
	}

	var refOut, slabOut []nn.ParamSet
	for i := range updates {
		ro := ref.add(updates[i])
		so, err := slab.AddWire(wires[i])
		if err != nil {
			t.Fatal(err)
		}
		if (ro == nil) != (so == nil) {
			t.Fatalf("update %d: reference emitted %v, slab emitted %v", i, ro != nil, so != nil)
		}
		if ro != nil {
			refOut = append(refOut, *ro)
			slabOut = append(slabOut, *so)
		}
	}
	sameUpdates(t, "slab stream", append(slabOut, slab.Drain()...), append(refOut, ref.drain()...))
	if got := slab.Received(); got != len(updates) {
		t.Fatalf("slab received %d, want %d", got, len(updates))
	}
}

// TestSlabWireRoundtripBitExact proves the skeleton encoder closes the
// loop: wire → slab row → AppendWire must reproduce the input bytes
// exactly (the outbox encode path re-emits what ingress absorbed).
func TestSlabWireRoundtripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := makeUpdates(1, 4, rng)[0]
	wire, err := nn.EncodeParamSet(u)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := nn.SlabLayoutFromWire(wire)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, layout.Stride())
	if err := layout.DecodeIntoSlab(row, wire); err != nil {
		t.Fatal(err)
	}
	out, err := layout.AppendWire(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(wire) {
		t.Fatal("AppendWire did not reproduce the input bytes")
	}
}

// TestSlabRejectsForeignStructure pins the header-skeleton check: an
// update of a different model structure must be rejected without
// corrupting the mixer (the claimed row is reclaimed, counters and later
// ingress are unaffected).
func TestSlabRejectsForeignStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	good := makeUpdates(4, 2, rng)
	bad := makeUpdates(1, 3, rng)[0] // different layer count
	goodWires := encodeAll(t, good)
	badWire := encodeAll(t, []nn.ParamSet{bad})[0]

	m, err := NewStreamMixerSlab(2, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddWire(goodWires[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddWire(badWire); err == nil {
		t.Fatal("slab mixer accepted a structurally foreign update")
	}
	if _, err := m.Add(bad); err == nil {
		t.Fatal("slab mixer accepted a structurally foreign decoded update")
	}
	if got := m.Received(); got != 1 {
		t.Fatalf("received %d after rejections, want 1", got)
	}
	// The mixer keeps working on compatible material.
	for _, w := range goodWires[1:] {
		if _, err := m.AddWire(w); err != nil {
			t.Fatal(err)
		}
	}
	emitted := m.Emitted()
	if got := len(m.Drain()) + emitted; got != len(good) {
		t.Fatalf("drained+emitted %d, want %d", got, len(good))
	}
}

// TestSlabPoolRecyclesChunks pins the round-scoped pool lifecycle: after
// ReleaseSlab, a fresh mixer of the same layout draws the SAME chunk
// (same backing array) instead of allocating.
func TestSlabPoolRecyclesChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	updates := makeUpdates(6, 2, rng)
	wires := encodeAll(t, updates)
	pool := NewSlabPool()

	recycled := func() bool {
		m1, err := NewStreamMixerSlab(4, rand.New(rand.NewSource(1)), pool)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range wires {
			if _, err := m1.AddWire(w); err != nil {
				t.Fatal(err)
			}
		}
		m1.Drain()
		first := &m1.slab.chunks[0].data[0]
		m1.ReleaseSlab()

		m2, err := NewStreamMixerSlab(4, rand.New(rand.NewSource(2)), pool)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m2.AddWire(wires[0]); err != nil {
			t.Fatal(err)
		}
		return &m2.slab.chunks[0].data[0] == first
	}
	// Under the race detector sync.Pool.Put drops one item in four on
	// purpose, so one miss proves nothing there; eight in a row would.
	for attempt := 0; attempt < 8; attempt++ {
		if recycled() {
			return
		}
	}
	t.Fatal("fresh mixer did not recycle the released chunk")
}

// TestSlabReleaseRefusesBufferedMaterial: a mixer still holding a round's
// material must not recycle its storage out from under it.
func TestSlabReleaseRefusesBufferedMaterial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	wires := encodeAll(t, makeUpdates(2, 2, rng))
	pool := NewSlabPool()
	m, err := NewStreamMixerSlab(4, rand.New(rand.NewSource(1)), pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wires {
		if _, err := m.AddWire(w); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseSlab() // must be a no-op: 2 updates still buffered
	if got := len(m.Drain()); got != 2 {
		t.Fatalf("drained %d updates after a refused release, want 2", got)
	}
}

// TestSlabRestorePastK pins the over-full restore contract: restores may
// push the buffer past k and the mixer stays conservative.
func TestSlabRestorePastK(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	updates := makeUpdates(7, 2, rng)
	m, err := NewStreamMixerSlab(2, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range updates {
		if err := m.RestoreEntry(u); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Buffered(); got != len(updates) {
		t.Fatalf("buffered %d, want %d", got, len(updates))
	}
	drained := m.Drain()
	if len(drained) != len(updates) {
		t.Fatalf("drained %d, want %d", len(drained), len(updates))
	}
	before, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	after, err := nn.Average(drained)
	if err != nil {
		t.Fatal(err)
	}
	// 1e-9, not 0: Drain reorders which entry each layer ends up in, so
	// the mean's float additions run in a different order.
	if !before.ApproxEqual(after, 1e-9) {
		t.Fatal("over-full slab restore changed the aggregate")
	}
}

// TestSlabAddWireSteadyStateAllocs pins the tentpole's allocation claim
// at the mixer level: once the slab's first chunk exists, AddWire on the
// emit path stays under 2 allocations per update on average (the row
// store, views, and emission structures are all amortised arenas; the
// occasional chunk/arena growth is the only allocation left).
func TestSlabAddWireSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	updates := makeUpdates(64, 3, rng)
	wires := encodeAll(t, updates)
	m, err := NewStreamMixerSlab(8, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the buffer and force the first chunk + arenas into existence.
	for _, w := range wires[:16] {
		if _, err := m.AddWire(w); err != nil {
			t.Fatal(err)
		}
	}
	i := 16
	avg := testing.AllocsPerRun(32, func() {
		if _, err := m.AddWire(wires[i%len(wires)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg > 2 {
		t.Fatalf("steady-state AddWire costs %.1f allocs/update, want <= 2", avg)
	}
}

// TestSlabPoolChunks: a chunk's views show what is decoded into its rows,
// a recycled chunk (when the pool still holds it) serves a smaller
// request of the same layout, and a nil pool still hands out working
// chunks.
func TestSlabPoolChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	u := makeUpdates(1, 3, rng)[0]
	layout, err := nn.NewSlabLayout(u)
	if err != nil {
		t.Fatal(err)
	}
	wire := encodeAll(t, []nn.ParamSet{u})[0]
	for _, pool := range []*SlabPool{NewSlabPool(), nil} {
		c := pool.get(layout, 4)
		if len(c.Views()) != 4 || len(c.Row(3)) != layout.Stride() {
			t.Fatalf("chunk has %d views, row of %d scalars", len(c.Views()), len(c.Row(3)))
		}
		if err := layout.DecodeIntoSlab(c.Row(2), wire); err != nil {
			t.Fatal(err)
		}
		if !c.Views()[2].ApproxEqual(u, 0) {
			t.Fatal("view 2 does not show what was decoded into row 2")
		}
		pool.put(c)
		again := pool.get(layout, 3)
		if len(again.Views()) < 3 || len(again.Row(2)) != layout.Stride() {
			t.Fatal("chunk after a put/get cycle cannot hold the rows asked for")
		}
	}
}

// TestRetainsWire pins who keeps an AddWire buffer: no shard does. A
// mixer and a relay each copy what they file, so the proxy
// may recycle the buffer the moment AddWire returns — overwriting it
// changes nothing the shard drains or seals.
func TestRetainsWire(t *testing.T) {
	updates := makeUpdates(3, 3, rand.New(rand.NewSource(1)))
	want, _ := nn.Average(updates)
	for name, s := range map[string]Shard{
		"slab":  must(NewStreamMixerSlab(3, rand.New(rand.NewSource(2)), nil)),
		"relay": NewRelayShard(3, NewSlabPool()),
	} {
		for _, buf := range encodeAll(t, updates) {
			if out, err := s.AddWire(buf); err != nil || out != nil {
				t.Fatalf("%s: AddWire = %v, %v", name, out, err)
			}
			for i := range buf {
				buf[i] = 0xFF // the next update decrypted into the recycled buffer
			}
		}
		for i, e := range s.SnapshotEntries() {
			if !e.ApproxEqual(updates[i], 0) {
				t.Fatalf("%s: sealed entry %d followed the wire buffer", name, i)
			}
		}
		got, err := nn.Average(s.Drain())
		if err != nil || !got.ApproxEqual(want, 1e-12) {
			t.Fatalf("%s: drained updates followed the wire buffer (%v)", name, err)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestRelayShardKeepsWireImages: a relay files each update into a slab
// row of the round's structure and refuses anything else — a malformed
// image or an update of another model — without touching the pool's
// carried layout. Drain hands back the updates unmixed in arrival order,
// SnapshotEntries → RestoreEntry lands the same updates in a restored
// relay, and none of it follows the buffers AddWire was handed.
func TestRelayShardKeepsWireImages(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	updates := makeUpdates(5, 3, rng)
	images := encodeAll(t, updates)
	pool := NewSlabPool()
	r := NewRelayShard(5, pool)
	for _, img := range images {
		if out, err := r.AddWire(img); err != nil || out != nil {
			t.Fatalf("AddWire = %v, %v", out, err)
		}
	}
	carried, err := pool.LayoutFor(images[0])
	if err != nil {
		t.Fatal(err)
	}
	foreign := encodeAll(t, makeUpdates(1, 2, rng))[0]
	for _, bad := range [][]byte{nil, images[0][:len(images[0])-1], append(append([]byte{}, images[0]...), 0), foreign} {
		if _, err := r.AddWire(bad); err == nil {
			t.Fatalf("relay accepted a %d-byte image outside the round's structure", len(bad))
		}
	}
	if l, _ := pool.LayoutFor(images[1]); l != carried {
		t.Fatal("rejected images replaced the pool's carried layout")
	}
	for _, img := range images {
		clear(img)
	}

	snap := r.SnapshotEntries()
	if len(snap) != len(updates) || r.Buffered() != len(updates) || r.Received() != len(updates) {
		t.Fatalf("snapshot of %d entries, %d buffered, %d received, want %d of each", len(snap), r.Buffered(), r.Received(), len(updates))
	}
	restored := NewRelayShard(5, nil)
	for i, u := range snap {
		if !u.ApproxEqual(updates[i], 0) {
			t.Fatalf("snapshot entry %d differs from its input", i)
		}
		if err := restored.RestoreEntry(u); err != nil {
			t.Fatal(err)
		}
	}

	drained := r.Drain()
	if len(drained) != len(updates) || r.Buffered() != 0 || r.Emitted() != len(updates) {
		t.Fatalf("drained %d updates, buffered %d, emitted %d", len(drained), r.Buffered(), r.Emitted())
	}
	for i, u := range restored.Drain() {
		if !drained[i].ApproxEqual(updates[i], 0) || !u.ApproxEqual(updates[i], 0) {
			t.Fatalf("drained update %d is not its input, in arrival order", i)
		}
	}
}

// TestLayoutCarriedAcrossEpochs: the pool carries the model's layout from
// one epoch's mixers to the next, so after epoch 0 no round derives a
// layout (the pool still holds the very pointer — a derivation would
// have stored a new one); a structure change between epochs is
// re-derived once, accepted, and carried from then on.
func TestLayoutCarriedAcrossEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pool := NewSlabPool()
	epoch := func(images [][]byte) *nn.SlabLayout {
		t.Helper()
		m, err := NewStreamMixerSlab(2, rng, pool)
		if err != nil {
			t.Fatal(err)
		}
		relay := NewRelayShard(len(images), pool)
		emitted := 0
		for _, img := range images {
			out, err := m.AddWire(img)
			if err != nil {
				t.Fatal(err)
			}
			if out != nil {
				emitted++
			}
			if _, err := relay.AddWire(img); err != nil {
				t.Fatal(err)
			}
		}
		if got := emitted + len(m.Drain()); got != len(images) || relay.Buffered() != len(images) {
			t.Fatalf("epoch mixed %d and relayed %d of %d updates", got, relay.Buffered(), len(images))
		}
		m.ReleaseSlab()
		return pool.layout.Load()
	}
	modelA := encodeAll(t, makeUpdates(6, 2, rng))
	first := epoch(modelA)
	for e := 1; e < 4; e++ {
		if got := epoch(modelA); got != first {
			t.Fatalf("epoch %d derived its own layout instead of adopting the carried one", e)
		}
	}
	modelB := encodeAll(t, makeUpdates(6, 3, rng))
	changed := epoch(modelB)
	if changed == first || changed.CheckWire(modelB[0]) != nil {
		t.Fatal("a structure change was not re-derived")
	}
	if got := epoch(modelB); got != changed {
		t.Fatal("the re-derived layout was not carried to the next epoch")
	}
	// Back again: one more derivation, and the pooled model-B chunks are
	// dropped rather than reshaped.
	if back := epoch(modelA); back == changed || back.CheckWire(modelA[0]) != nil {
		t.Fatal("switching back did not re-derive model A's layout")
	}
}
