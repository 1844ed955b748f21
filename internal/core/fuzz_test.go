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
		m, err := NewStreamMixerSlab(3, rand.New(rand.NewSource(int64(s))), nil)
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
			m, err := NewStreamMixerSlab(3, rand.New(rand.NewSource(int64(10+s))), nil)
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
// round sizes C up to 64, the batch transform at every granularity and
// the sharded stream transform at every shard count P ∈ {1, 2, 4} must
// emit exactly C updates whose layer-wise mean equals the mean of the
// inputs within 1e-9 (the §4.2 theorem extended across shards), and the
// stream's output must be bit-identical to the tree-list reference.
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

		batch, err := Transform{Granularity: g}.Apply(updates, rng)
		check("batch", batch, err)
		// The stream mixer always works at layer granularity; sweep it over
		// the same C × P grid with a k that exercises emit-then-drain. On
		// identical fresh rand sources its slab store must emit exactly what
		// the tree-list reference does: storage is all the slab changes.
		stream, err := ShardedStreamTransform{K: 2, Shards: p}.Apply(updates, rand.New(rand.NewSource(seed+7)))
		check("sharded stream", stream, err)
		sameUpdates(t, "sharded stream", stream, refShardedStream(updates, 2, p, rand.New(rand.NewSource(seed+7))))
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
// "past k" clause exists for) or wider. The round's output must also be
// bit-identical to a tree-list reference tier that crosses the crash by
// its own snapshot.
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

		// The pool dimension rides the seed instead of a new fuzz
		// parameter (which would orphan the existing corpus): the sealed
		// tier and the restored tier each draw their slabs from one shared
		// SlabPool or from none, covering all four combinations. The
		// crashed tier's storage goes back to the pool after the seal, so
		// a restored tier on the pool may file into recycled chunks.
		pool := NewSlabPool()
		poolIf := func(bit int64) *SlabPool {
			if seed&bit == 0 {
				return pool
			}
			return nil
		}

		rng := rand.New(rand.NewSource(seed))
		updates := makeUpdates(c, 3, rng)
		before, err := nn.Average(updates)
		if err != nil {
			t.Fatal(err)
		}

		// Every tier runs beside a tree-list reference tier on the same
		// rand sources; the round's output must match it bit for bit.
		var emitted, refEmitted []nn.ParamSet
		newTiers := func(k int, seed int64, pool *SlabPool) ([]*StreamMixer, []*refStream) {
			tier, ref := make([]*StreamMixer, p), make([]*refStream, p)
			for s := range tier {
				var err error
				if tier[s], err = NewStreamMixerSlab(k, rand.New(rand.NewSource(seed+int64(s))), pool); err != nil {
					t.Fatal(err)
				}
				ref[s] = &refStream{k: k, rng: rand.New(rand.NewSource(seed + int64(s)))}
			}
			return tier, ref
		}
		feed := func(tier []*StreamMixer, ref []*refStream, updates []nn.ParamSet) {
			for i, u := range updates {
				out, err := tier[i%p].Add(u)
				if err != nil {
					t.Fatal(err)
				}
				if out != nil {
					// A clone: the emission must outlive its slab's release.
					emitted = append(emitted, out.Clone())
				}
				if out := ref[i%p].add(u); out != nil {
					refEmitted = append(refEmitted, *out)
				}
			}
		}
		tier, ref := newTiers(k, seed, poolIf(1))
		feed(tier, ref, updates[:split])

		blob, err := SealShardedState(asShards(tier), ShardedStateMeta{
			Routing: 1, RRCursor: split, InRound: split, Received: split,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range tier {
			m.Drain()
			m.ReleaseSlab()
		}
		restored, refRestored := newTiers(kPrime, seed+100, poolIf(2))
		for s := range refRestored {
			for _, e := range ref[s].snapshot() {
				refRestored[s].file(e)
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
		feed(restored, refRestored, updates[split:])
		for s, m := range restored {
			emitted = append(emitted, m.Drain()...)
			refEmitted = append(refEmitted, refRestored[s].drain()...)
		}
		if len(emitted) != c {
			t.Fatalf("C=%d split=%d P=%d k=%d k'=%d: round emitted %d updates", c, split, p, k, kPrime, len(emitted))
		}
		sameUpdates(t, "seal/restore round", emitted, refEmitted)
		after, err := nn.Average(emitted)
		if err != nil {
			t.Fatal(err)
		}
		if !before.ApproxEqual(after, 1e-9) {
			t.Fatalf("C=%d split=%d P=%d k=%d k'=%d: seal/restore changed the aggregate", c, split, p, k, kPrime)
		}
	})
}
