package core

import (
	"math/rand"
	"sync"
	"testing"

	"mixnn/internal/nn"
)

func TestShardedStreamPreservesAggregation(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, c := range []int{4, 13, 64} {
			rng := rand.New(rand.NewSource(int64(p*100 + c)))
			updates := makeUpdates(c, 3, rng)
			tr := ShardedStreamTransform{K: 3, Shards: p}
			mixed, err := tr.Apply(updates, rng)
			if err != nil {
				t.Fatal(err)
			}
			if len(mixed) != len(updates) {
				t.Fatalf("P=%d C=%d: %d outputs from %d inputs", p, c, len(mixed), len(updates))
			}
			before, err := nn.Average(updates)
			if err != nil {
				t.Fatal(err)
			}
			after, err := nn.Average(mixed)
			if err != nil {
				t.Fatal(err)
			}
			if !before.ApproxEqual(after, 1e-9) {
				t.Fatalf("P=%d C=%d: sharded stream mixing changed the aggregate", p, c)
			}
		}
	}
}

func TestShardedStreamConservesLayers(t *testing.T) {
	// Every input layer value must appear exactly once across the outputs:
	// sharding must not drop, duplicate or cross-contaminate material.
	rng := rand.New(rand.NewSource(7))
	updates := makeUpdates(12, 3, rng)
	tr := ShardedStreamTransform{K: 2, Shards: 3}
	mixed, err := tr.Apply(updates, rng)
	if err != nil {
		t.Fatal(err)
	}
	for li := 0; li < 3; li++ {
		seen := make(map[float64]int)
		for _, u := range updates {
			seen[u.Layers[li].Tensors[0].Data()[0]]++
		}
		for _, m := range mixed {
			seen[m.Layers[li].Tensors[0].Data()[0]]--
		}
		for v, n := range seen {
			if n != 0 {
				t.Fatalf("layer %d: value %v has count imbalance %d after sharded mixing", li, v, n)
			}
		}
	}
}

func TestShardedStreamMixesOnlyWithinShard(t *testing.T) {
	// With round-robin routing, shard s holds exactly the updates i with
	// i % p == s; an emitted layer must originate from the same shard as
	// the slot it fills. makeUpdates tags layer j of update i with base
	// value i*100+j, so the source participant is recoverable.
	rng := rand.New(rand.NewSource(8))
	const c, p = 12, 3
	updates := makeUpdates(c, 2, rng)
	tr := ShardedStreamTransform{K: 2, Shards: p}
	mixed, err := tr.Apply(updates, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Outputs are concatenated shard by shard; shard s contributes as
	// many outputs as the partition routed to it.
	parts := shardUpdates(updates, p)
	idx := 0
	for s := 0; s < p; s++ {
		for n := 0; n < len(parts[s]); n++ {
			for li := range mixed[idx].Layers {
				base := mixed[idx].Layers[li].Tensors[0].Data()[0]
				src := int(base+0.5) / 100 // recover i from i*100+j tag
				if src%p != s {
					t.Fatalf("output %d layer %d came from participant %d (shard %d), want shard %d",
						idx, li, src, src%p, s)
				}
			}
			idx++
		}
	}
}

func TestShardedStreamReducesToStreamWhenOneShard(t *testing.T) {
	rng1 := rand.New(rand.NewSource(9))
	updates := makeUpdates(8, 3, rand.New(rand.NewSource(10)))
	one, err := ShardedStreamTransform{K: 4, Shards: 1}.Apply(updates, rng1)
	if err != nil {
		t.Fatal(err)
	}
	// One shard is the paper's single §4.3 stream.
	ref := &refStream{k: 4, rng: rand.New(rand.NewSource(9))}
	var plain []nn.ParamSet
	for _, u := range updates {
		if e := ref.add(u); e != nil {
			plain = append(plain, *e)
		}
	}
	sameUpdates(t, "single-shard stream", one, append(plain, ref.drain()...))
}

func TestShardedTransformsClampShards(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	updates := makeUpdates(2, 2, rng)
	out, err := ShardedStreamTransform{K: 1, Shards: 8}.Apply(updates, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("clamped sharded stream produced %d outputs, want 2", len(out))
	}
}

// TestStreamMixerConcurrentAdd drives one mixer from many goroutines (the
// sharded proxy's request handlers do exactly this) and checks the
// accounting under the race detector.
func TestStreamMixerConcurrentAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	updates := makeUpdates(64, 3, rng)
	m, err := NewStreamMixerSlab(8, rand.New(rand.NewSource(13)), nil)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		emitted []nn.ParamSet
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(updates); i += 8 {
				out, err := m.Add(updates[i])
				if err != nil {
					t.Error(err)
					return
				}
				if out != nil {
					mu.Lock()
					emitted = append(emitted, *out)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	emitted = append(emitted, m.Drain()...)
	if m.Received() != len(updates) {
		t.Fatalf("received %d, want %d", m.Received(), len(updates))
	}
	if len(emitted) != len(updates) {
		t.Fatalf("emitted %d updates, want %d", len(emitted), len(updates))
	}
	before, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	after, err := nn.Average(emitted)
	if err != nil {
		t.Fatal(err)
	}
	if !before.ApproxEqual(after, 1e-9) {
		t.Fatal("concurrent mixing changed the aggregate")
	}
}
