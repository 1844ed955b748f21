package core

import (
	"math/rand"
	"testing"

	"mixnn/internal/nn"
)

// asShards adapts a concrete mixer slice to the Shard interface the
// seal/restore API takes.
func asShards(ms []*StreamMixer) []Shard {
	out := make([]Shard, len(ms))
	for i, m := range ms {
		out[i] = m
	}
	return out
}

// FuzzShardedStateRestore feeds arbitrary bytes to the tier-state
// restorer: it must reject garbage without panicking (the blob crosses
// the sealing boundary, so a compromised host could feed anything).
func FuzzShardedStateRestore(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	mixers := make([]*StreamMixer, 2)
	for s := range mixers {
		m, err := NewStreamMixer(3, rand.New(rand.NewSource(int64(s))))
		if err != nil {
			f.Fatal(err)
		}
		mixers[s] = m
	}
	for i, u := range makeUpdates(3, 2, rng) {
		if _, err := mixers[i%2].Add(u); err != nil {
			f.Fatal(err)
		}
	}
	blob, err := SealShardedState(asShards(mixers), ShardedStateMeta{Routing: 1, InRound: 3}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte("MXSH"))
	f.Add([]byte{})
	f.Add(forgedEntryCountBlob())

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := make([]*StreamMixer, 2)
		for s := range fresh {
			// Alternate the restored tier's storage mode by input length:
			// garbage must be rejected cleanly by both.
			var m *StreamMixer
			var err error
			if len(data)%2 == 0 {
				m, err = NewStreamMixerSlab(3, rand.New(rand.NewSource(int64(10+s))), nil)
			} else {
				m, err = NewStreamMixer(3, rand.New(rand.NewSource(int64(10+s))))
			}
			if err != nil {
				t.Fatal(err)
			}
			fresh[s] = m
		}
		if _, err := restoreInto(data, asShards(fresh), nil); err != nil {
			return
		}
		// Anything accepted must leave the tier usable and conservative:
		// drained output count equals the restored buffer.
		buffered, drained := 0, 0
		for _, m := range fresh {
			buffered += m.Buffered()
		}
		for _, m := range fresh {
			drained += len(m.Drain())
		}
		if drained != buffered {
			t.Fatalf("restored tier drained %d of %d buffered", drained, buffered)
		}
	})
}

// FuzzShardedAggregationEquivalence is the shard-aware property test: for
// every granularity, shard count P ∈ {1, 2, 4} and round size C up to 64,
// both sharded transforms must emit exactly C updates whose layer-wise
// mean equals the mean of the inputs within 1e-9 (the §4.2 theorem
// extended across shards).
func FuzzShardedAggregationEquivalence(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(1), int64(1))
	f.Add(uint8(13), uint8(2), uint8(2), int64(2))
	f.Add(uint8(64), uint8(4), uint8(3), int64(3))
	f.Add(uint8(1), uint8(4), uint8(1), int64(4))

	f.Fuzz(func(t *testing.T, cRaw, pRaw, gRaw uint8, seed int64) {
		c := int(cRaw)%64 + 1
		p := shardChoices[int(pRaw)%len(shardChoices)]
		granularities := []Granularity{GranularityLayer, GranularityTensor, GranularityModel}
		g := granularities[int(gRaw)%len(granularities)]

		rng := rand.New(rand.NewSource(seed))
		updates := makeUpdates(c, 3, rng)
		before, err := nn.Average(updates)
		if err != nil {
			t.Fatal(err)
		}

		check := func(name string, mixed []nn.ParamSet, err error) {
			if err != nil {
				t.Fatalf("C=%d P=%d g=%s: %s: %v", c, p, g, name, err)
			}
			if len(mixed) != c {
				t.Fatalf("C=%d P=%d g=%s: %s emitted %d updates", c, p, g, name, len(mixed))
			}
			after, err := nn.Average(mixed)
			if err != nil {
				t.Fatal(err)
			}
			if !before.ApproxEqual(after, 1e-9) {
				t.Fatalf("C=%d P=%d g=%s: %s changed the aggregate", c, p, g, name)
			}
		}

		batch, err := ShardedTransform{Granularity: g, Shards: p}.Apply(updates, rng)
		check("sharded batch", batch, err)
		// The stream mixer always works at layer granularity; sweep it over
		// the same C × P grid with a k that exercises emit-then-drain. The
		// legacy and slab storage modes run on identical fresh RNGs: beyond
		// the mean property, their outputs must be BIT-identical (slab mode
		// changes storage, not mixing decisions).
		stream, err := ShardedStreamTransform{K: 2, Shards: p}.Apply(updates, rand.New(rand.NewSource(seed+7)))
		check("sharded stream", stream, err)
		slab, err := ShardedStreamTransform{K: 2, Shards: p, Slab: true}.Apply(updates, rand.New(rand.NewSource(seed+7)))
		check("sharded slab stream", slab, err)
		for i := range stream {
			if !stream[i].ApproxEqual(slab[i], 0) {
				t.Fatalf("C=%d P=%d: slab output %d is not bit-identical to legacy", c, p, i)
			}
		}
	})
}

// shardChoices is the P grid both shard-aware fuzz targets sweep.
var shardChoices = []int{1, 2, 4}

// FuzzSealRestoreRoundtrip is the crash-restart property test, the
// durable-state sibling of FuzzShardedAggregationEquivalence: for every
// shard count P over {1, 2, 4}, sealed list capacity k and restored list
// capacity k′ over [1, 4], sealing a P-shard tier after an arbitrary
// prefix of the round and restoring into a fresh P-shard tier of k′-wide
// mixers must leave the finished round's layer-wise mean equal to the
// mean of all C inputs within 1e-9 — material is neither lost nor
// double-counted across the crash, even when the restored lists are
// narrower than what they receive (the over-full case RestoreEntry's
// "past k" clause exists for) or wider.
func FuzzSealRestoreRoundtrip(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint8(1), uint8(2), uint8(2), int64(1))
	f.Add(uint8(13), uint8(6), uint8(2), uint8(0), uint8(1), int64(2))
	f.Add(uint8(64), uint8(33), uint8(2), uint8(1), uint8(3), int64(3))
	f.Add(uint8(6), uint8(5), uint8(0), uint8(2), uint8(0), int64(4))

	f.Fuzz(func(t *testing.T, cRaw, splitRaw, pRaw, kPrimeRaw, kRaw uint8, seed int64) {
		c := int(cRaw)%64 + 1
		split := int(splitRaw) % (c + 1) // seal after split ∈ [0, c] updates
		p := shardChoices[int(pRaw)%len(shardChoices)]
		k := int(kRaw)%4 + 1
		// The byte that once chose a restore shard count P′ (restore no
		// longer reshards) chooses the restored mixers' capacity instead.
		kPrime := int(kPrimeRaw)%4 + 1

		// The storage-mode dimension rides the seed instead of a new fuzz
		// parameter (which would orphan the existing corpus): both the
		// sealed tier and the restored tier independently run slab-backed
		// or legacy, covering all four cross-restore combinations.
		slabSealed := seed&1 == 0
		slabRestored := seed&2 == 0

		rng := rand.New(rand.NewSource(seed))
		updates := makeUpdates(c, 3, rng)
		before, err := nn.Average(updates)
		if err != nil {
			t.Fatal(err)
		}

		newMixer := func(slab bool, k int, seed int64) (*StreamMixer, error) {
			if slab {
				return NewStreamMixerSlab(k, rand.New(rand.NewSource(seed)), nil)
			}
			return NewStreamMixer(k, rand.New(rand.NewSource(seed)))
		}
		tier := make([]*StreamMixer, p)
		for s := range tier {
			if tier[s], err = newMixer(slabSealed, k, seed+int64(s)); err != nil {
				t.Fatal(err)
			}
		}
		var emitted []nn.ParamSet
		for i, u := range updates[:split] {
			out, err := tier[i%p].Add(u)
			if err != nil {
				t.Fatal(err)
			}
			if out != nil {
				emitted = append(emitted, *out)
			}
		}

		blob, err := SealShardedState(asShards(tier), ShardedStateMeta{
			Routing: 1, RRCursor: split, InRound: split, Received: split,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		restored := make([]*StreamMixer, p)
		for s := range restored {
			if restored[s], err = newMixer(slabRestored, kPrime, seed+100+int64(s)); err != nil {
				t.Fatal(err)
			}
		}
		meta, err := restoreInto(blob, asShards(restored), nil)
		if err != nil {
			t.Fatalf("C=%d split=%d P=%d k=%d k'=%d: restore: %v", c, split, p, k, kPrime, err)
		}
		if meta.SealedShards != p || meta.InRound != split {
			t.Fatalf("meta = %+v, want SealedShards=%d InRound=%d", meta, p, split)
		}

		// The remaining clients finish the round on the restored tier.
		for i, u := range updates[split:] {
			out, err := restored[i%p].Add(u)
			if err != nil {
				t.Fatal(err)
			}
			if out != nil {
				emitted = append(emitted, *out)
			}
		}
		for _, m := range restored {
			emitted = append(emitted, m.Drain()...)
		}
		if len(emitted) != c {
			t.Fatalf("C=%d split=%d P=%d k=%d k'=%d: round emitted %d updates", c, split, p, k, kPrime, len(emitted))
		}
		after, err := nn.Average(emitted)
		if err != nil {
			t.Fatal(err)
		}
		if !before.ApproxEqual(after, 1e-9) {
			t.Fatalf("C=%d split=%d P=%d k=%d k'=%d: seal/restore changed the aggregate", c, split, p, k, kPrime)
		}
	})
}
