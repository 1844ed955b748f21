package core

import (
	"math/rand"
	"testing"

	"mixnn/internal/nn"
)

// refStream is the §4.3 stream mixer as the paper writes it: per-layer
// lists over the callers' ParamSet trees, nothing copied. The slab store
// is held to it bit for bit — the same updates and the same rand source
// must give the same emissions, drain and snapshot, because storage is
// all the slab store changes.
type refStream struct {
	k     int
	rng   *rand.Rand
	lists [][]nn.LayerParams
}

func (r *refStream) buffered() int {
	if len(r.lists) == 0 {
		return 0
	}
	return len(r.lists[0])
}

// file appends u's layers to the lists: the fill phase, and a restore
// (which may go past k).
func (r *refStream) file(u nn.ParamSet) {
	if r.lists == nil {
		r.lists = make([][]nn.LayerParams, len(u.Layers))
	}
	for li, lp := range u.Layers {
		r.lists[li] = append(r.lists[li], lp)
	}
}

func (r *refStream) add(u nn.ParamSet) *nn.ParamSet {
	if r.buffered() < r.k {
		r.file(u)
		return nil
	}
	out := nn.ParamSet{Layers: make([]nn.LayerParams, len(r.lists))}
	for li, list := range r.lists {
		pick := r.rng.Intn(len(list))
		out.Layers[li], list[pick] = list[pick], u.Layers[li]
	}
	return &out
}

func (r *refStream) drain() []nn.ParamSet {
	var out []nn.ParamSet
	for r.buffered() > 0 {
		ps := nn.ParamSet{Layers: make([]nn.LayerParams, len(r.lists))}
		for li, list := range r.lists {
			pick, last := r.rng.Intn(len(list)), len(list)-1
			ps.Layers[li], list[pick] = list[pick], list[last]
			r.lists[li] = list[:last]
		}
		out = append(out, ps)
	}
	return out
}

// snapshot is what a seal blob holds of the mixer: entry j is slot j of
// every list.
func (r *refStream) snapshot() []nn.ParamSet {
	out := make([]nn.ParamSet, r.buffered())
	for j := range out {
		out[j].Layers = make([]nn.LayerParams, len(r.lists))
		for li, list := range r.lists {
			out[j].Layers[li] = list[j]
		}
	}
	return out
}

// refShardedStream is ShardedStreamTransform over reference mixers: shard
// s of p mixes the updates i with i%p == s, the shards' outputs in shard
// order.
func refShardedStream(updates []nn.ParamSet, k, p int, rng *rand.Rand) []nn.ParamSet {
	p = min(max(p, 1), len(updates))
	var out []nn.ParamSet
	for s := 0; s < p; s++ {
		r := &refStream{k: k, rng: rng}
		if n := (len(updates) - s + p - 1) / p; k <= 0 || k > n {
			r.k = n
		}
		for i := s; i < len(updates); i += p {
			if e := r.add(updates[i]); e != nil {
				out = append(out, *e)
			}
		}
		out = append(out, r.drain()...)
	}
	return out
}

// sameUpdates fails unless got and want hold the same updates, bit for
// bit, in the same order.
func sameUpdates(t testing.TB, what string, got, want []nn.ParamSet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d updates, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].ApproxEqual(want[i], 0) {
			t.Fatalf("%s: update %d is not bit-identical to the reference", what, i)
		}
	}
}
