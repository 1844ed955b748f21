package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mixnn/internal/nn"
	"mixnn/internal/tensor"
)

func TestStreamMixerFillsThenEmits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	updates := makeUpdates(7, 3, rng)
	m, err := NewStreamMixerSlab(4, rng, nil)
	if err != nil {
		t.Fatal(err)
	}

	// First k=4 updates buffer without emitting.
	for i := 0; i < 4; i++ {
		out, err := m.Add(updates[i])
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			t.Fatalf("update %d emitted during fill phase", i)
		}
	}
	if m.Buffered() != 4 {
		t.Fatalf("buffered = %d, want 4", m.Buffered())
	}

	// Each further update emits exactly one mixed update.
	for i := 4; i < 7; i++ {
		out, err := m.Add(updates[i])
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			t.Fatalf("update %d did not emit once buffer full", i)
		}
	}
	if m.Buffered() != 4 {
		t.Fatalf("buffered after steady state = %d, want 4", m.Buffered())
	}
	if m.Emitted() != 3 || m.Received() != 7 {
		t.Fatalf("emitted/received = %d/%d, want 3/7", m.Emitted(), m.Received())
	}

	// Drain flushes the remaining 4.
	rest := m.Drain()
	if len(rest) != 4 {
		t.Fatalf("drained %d updates, want 4", len(rest))
	}
	if m.Buffered() != 0 {
		t.Fatalf("buffered after drain = %d, want 0", m.Buffered())
	}
}

func TestStreamMixerConservesLayers(t *testing.T) {
	// Over a full round, every (participant, layer) value must appear in
	// the output exactly once — the conservation property behind
	// aggregation equivalence.
	rng := rand.New(rand.NewSource(2))
	c, l := 9, 4
	updates := makeUpdates(c, l, rng)
	m, err := NewStreamMixerSlab(3, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []nn.ParamSet
	for _, u := range updates {
		out, err := m.Add(u)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			emitted = append(emitted, *out)
		}
	}
	emitted = append(emitted, m.Drain()...)
	if len(emitted) != c {
		t.Fatalf("emitted %d updates for %d participants", len(emitted), c)
	}

	for j := 0; j < l; j++ {
		// Match emitted layer-j tensors back to source participants.
		used := make([]bool, c)
		for _, e := range emitted {
			found := -1
			for src := 0; src < c; src++ {
				if tensor.Equal(e.Layers[j].Tensors[0], updates[src].Layers[j].Tensors[0]) {
					found = src
					break
				}
			}
			if found < 0 {
				t.Fatalf("layer %d of an emitted update matches no participant", j)
			}
			if used[found] {
				t.Fatalf("layer %d of participant %d appears twice", j, found)
			}
			used[found] = true
		}
	}

	before, _ := nn.Average(updates)
	after, err := nn.Average(emitted)
	if err != nil {
		t.Fatal(err)
	}
	if !before.ApproxEqual(after, 1e-9) {
		t.Fatal("stream mixing changed the aggregate")
	}
}

func TestStreamMixerRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := NewStreamMixerSlab(0, rng, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewStreamMixerSlab(2, nil, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	m, err := NewStreamMixerSlab(2, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(nn.ParamSet{}); err == nil {
		t.Fatal("empty update accepted")
	}
	good := makeUpdates(1, 2, rng)[0]
	if _, err := m.Add(good); err != nil {
		t.Fatal(err)
	}
	bad := makeUpdates(1, 3, rng)[0]
	if _, err := m.Add(bad); err == nil {
		t.Fatal("incompatible update accepted")
	}
}

func TestStreamTransformRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	updates := makeUpdates(10, 3, rng)
	tr := ShardedStreamTransform{K: 4}
	out, err := tr.Apply(updates, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(updates) {
		t.Fatalf("transform returned %d updates for %d inputs", len(out), len(updates))
	}
	before, _ := nn.Average(updates)
	after, err := nn.Average(out)
	if err != nil {
		t.Fatal(err)
	}
	if !before.ApproxEqual(after, 1e-9) {
		t.Fatal("stream transform changed the aggregate")
	}
}

func TestStreamTransformClampsK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	updates := makeUpdates(3, 2, rng)
	// K larger than the population must still emit everything.
	out, err := ShardedStreamTransform{K: 50}.Apply(updates, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("emitted %d, want 3", len(out))
	}
}

// Property: for any population size and k, the stream mixer emits exactly
// the updates it received (conservation) and preserves the aggregate.
func TestQuickStreamConservation(t *testing.T) {
	f := func(seed int64, c8, k8 uint8) bool {
		c := int(c8%12) + 1
		k := int(k8%8) + 1
		rng := rand.New(rand.NewSource(seed))
		updates := makeUpdates(c, 3, rng)
		out, err := ShardedStreamTransform{K: k}.Apply(updates, rng)
		if err != nil || len(out) != c {
			return false
		}
		before, err1 := nn.Average(updates)
		after, err2 := nn.Average(out)
		if err1 != nil || err2 != nil {
			return false
		}
		return before.ApproxEqual(after, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDrainAllocsConstant pins a drain's cost: the drained updates take
// their Layers slices from the emission arena, so draining a full mixer
// costs the result slice and at most an arena refill or two, whatever k.
func TestDrainAllocsConstant(t *testing.T) {
	const k, runs = 32, 8
	wires := encodeAll(t, makeUpdates(k, 3, rand.New(rand.NewSource(31))))
	full := make([]*StreamMixer, runs+1) // AllocsPerRun warms up once
	for i := range full {
		m, err := NewStreamMixerSlab(k, rand.New(rand.NewSource(int64(i))), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range wires {
			if _, err := m.AddWire(w); err != nil {
				t.Fatal(err)
			}
		}
		full[i] = m
	}
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		if n := len(full[i].Drain()); n != k {
			t.Fatalf("drained %d of %d", n, k)
		}
		i++
	})
	if avg > 4 {
		t.Fatalf("draining %d updates costs %.0f allocations, want <= 4", k, avg)
	}
}
