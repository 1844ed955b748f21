package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mixnn/internal/nn"
)

// newTier builds p fresh mixers with capacity k each, as the Shard
// interface the seal/restore API operates on.
func newTier(t testing.TB, p, k int) []Shard {
	t.Helper()
	tier := make([]Shard, p)
	for s := range tier {
		m, err := NewStreamMixerSlab(k, rand.New(rand.NewSource(int64(100+s))), nil)
		if err != nil {
			t.Fatal(err)
		}
		tier[s] = m
	}
	return tier
}

// restoreInto opens blob and files it into shards, the restart of a
// caller that already holds the shard set.
func restoreInto(blob []byte, shards []Shard, open OpenSectionFunc) (ShardedStateMeta, error) {
	st, err := OpenShardedState(blob, open)
	if err != nil {
		return ShardedStateMeta{}, err
	}
	return st.Meta, st.FileInto(shards)
}

// feedTier routes updates round-robin into the tier — as wire images,
// the one way in the Shard contract has — and collects whatever the
// mixers emit.
func feedTier(t testing.TB, tier []Shard, updates []nn.ParamSet) []nn.ParamSet {
	t.Helper()
	var out []nn.ParamSet
	for i, raw := range encodeAll(t, updates) {
		mixed, err := tier[i%len(tier)].AddWire(raw)
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		if mixed != nil {
			out = append(out, *mixed)
		}
	}
	return out
}

func drainTier(tier []Shard) []nn.ParamSet {
	var out []nn.ParamSet
	for _, m := range tier {
		out = append(out, m.Drain()...)
	}
	return out
}

// TestShardedStateSealedSections drives the per-shard seal/open hooks: the
// open func must be called with the seal-time shard indices, and a
// mismatched open must surface as an error, not silent corruption.
func TestShardedStateSealedSections(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tier := newTier(t, 3, 2)
	feedTier(t, tier, makeUpdates(5, 2, rng))

	xor := func(shard int, data []byte) []byte {
		out := make([]byte, len(data))
		for i, b := range data {
			out[i] = b ^ byte(shard+1)
		}
		return out
	}
	var sealed []int
	blob, err := SealShardedState(tier, ShardedStateMeta{Routing: 1}, func(s int, plain []byte) ([]byte, error) {
		sealed = append(sealed, s)
		return xor(s, plain), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The pending section seals first (as PendingSection), then one call
	// per shard.
	if len(sealed) != 4 || sealed[0] != PendingSection || sealed[1] != 0 || sealed[2] != 1 || sealed[3] != 2 {
		t.Fatalf("seal called for shards %v, want [%d 0 1 2]", sealed, PendingSection)
	}

	var opened []int
	if _, err := restoreInto(blob, newTier(t, 3, 2), func(s int, sec []byte) ([]byte, error) {
		opened = append(opened, s)
		return xor(s, sec), nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(opened) != 4 {
		t.Fatalf("open called for shards %v, want all 4 sections", opened)
	}

	// Opening with the wrong per-shard key material must fail loudly.
	if _, err := restoreInto(blob, newTier(t, 3, 2), func(s int, sec []byte) ([]byte, error) {
		return xor(s+1, sec), nil
	}); err == nil {
		t.Fatal("mismatched section opener accepted")
	}
	// As must skipping the opener entirely.
	if _, err := restoreInto(blob, newTier(t, 3, 2), nil); err == nil {
		t.Fatal("sealed sections restored without an opener")
	}
}

// TestShardedStateLedgersAndPendingRoundTrip pins the v2 additions: the
// per-shard mixer ledgers and the pending-emission buffer survive
// seal/restore, with same-shape restores landing each shard's material
// back in its own mixer.
func TestShardedStateLedgersAndPendingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	updates := makeUpdates(9, 2, rng)

	tier := newTier(t, 2, 2)
	emitted := feedTier(t, tier, updates[:6]) // both k=2 mixers overflow → emissions
	if len(emitted) == 0 {
		t.Fatal("tier emitted nothing; test setup broken")
	}
	blob, err := SealShardedState(tier, ShardedStateMeta{
		Routing: 1, InRound: 6, Received: 6,
		ShardReceived: []int{13, 7}, ShardEmitted: []int{9, 4},
		Pending: emitted,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	fresh := newTier(t, 2, 2)
	meta, err := restoreInto(blob, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.ShardReceived) != 2 || meta.ShardReceived[0] != 13 || meta.ShardReceived[1] != 7 {
		t.Fatalf("ShardReceived = %v, want [13 7]", meta.ShardReceived)
	}
	if len(meta.ShardEmitted) != 2 || meta.ShardEmitted[0] != 9 || meta.ShardEmitted[1] != 4 {
		t.Fatalf("ShardEmitted = %v, want [9 4]", meta.ShardEmitted)
	}
	if len(meta.Pending) != len(emitted) {
		t.Fatalf("restored %d pending updates, want %d", len(meta.Pending), len(emitted))
	}
	// Same-shape restore: each mixer holds exactly what it held at seal.
	for s := range tier {
		if fresh[s].Buffered() != tier[s].Buffered() {
			t.Fatalf("shard %d buffered %d, sealed %d", s, fresh[s].Buffered(), tier[s].Buffered())
		}
	}
	// The whole round — buffered everywhere plus pending — is conserved:
	// finishing it must reproduce the classic mean.
	var out []nn.ParamSet
	out = append(out, meta.Pending...)
	out = append(out, feedTier(t, fresh, updates[6:])...)
	out = append(out, drainTier(fresh)...)
	want, _ := nn.Average(updates)
	got, err := nn.Average(out)
	if err != nil {
		t.Fatal(err)
	}
	if !want.ApproxEqual(got, 1e-9) {
		t.Fatal("pending + buffered restore broke conservation")
	}

	// Mismatched ledger lengths are rejected at seal time.
	if _, err := SealShardedState(tier, ShardedStateMeta{ShardReceived: []int{1}}, nil); err == nil {
		t.Fatal("mismatched shard ledger length accepted")
	}
}

func TestRestoreShardedStateRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tier := newTier(t, 2, 2)
	feedTier(t, tier, makeUpdates(3, 2, rng))
	blob, err := SealShardedState(tier, ShardedStateMeta{Routing: 1, InRound: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() []Shard { return newTier(t, 2, 2) }
	t.Run("garbage", func(t *testing.T) {
		if _, err := restoreInto([]byte("not a blob"), fresh(), nil); err == nil {
			t.Fatal("garbage accepted")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0] = 'Z'
		if _, err := restoreInto(bad, fresh(), nil); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[4] = 0xFE
		if _, err := restoreInto(bad, fresh(), nil); err == nil {
			t.Fatal("future version accepted")
		}
	})
	t.Run("retired versions", func(t *testing.T) {
		// Versions 1–3 are answered by name — the version found and the
		// version wanted — by the open step and so by the restore.
		for v := byte(1); v <= 3; v++ {
			old := append([]byte(nil), blob...)
			old[4] = v
			_, rerr := restoreInto(old, fresh(), nil)
			_, oerr := OpenShardedState(old, nil)
			for _, err := range []error{rerr, oerr} {
				if err == nil {
					t.Fatalf("version %d accepted", v)
				}
				for _, want := range []string{fmt.Sprintf("version %d is no longer supported", v), "want 4", "release that sealed it"} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("version %d: err = %v, want it to mention %q", v, err, want)
					}
				}
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := restoreInto(blob[:len(blob)-5], fresh(), nil); err == nil {
			t.Fatal("truncated blob accepted")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := restoreInto(append(append([]byte(nil), blob...), 0xAA), fresh(), nil); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	})
	t.Run("non-fresh target", func(t *testing.T) {
		used := fresh()
		feedTier(t, used, makeUpdates(1, 2, rng))
		if _, err := restoreInto(blob, used, nil); err == nil {
			t.Fatal("restore into used tier accepted")
		}
	})
	t.Run("different shard count", func(t *testing.T) {
		// An open round keeps the shard set it was sealed under: P′ ≠ P is
		// refused, wider or narrower, before any target shard is touched.
		for _, pPrime := range []int{1, 3} {
			target := newTier(t, pPrime, 2)
			_, err := restoreInto(blob, target, nil)
			if err == nil || !strings.Contains(err.Error(), "2-shard blob") {
				t.Fatalf("restore of a 2-shard blob into %d shards: err = %v", pPrime, err)
			}
			for s, m := range target {
				if m.Received() != 0 || m.Buffered() != 0 {
					t.Fatalf("refused restore touched target shard %d (received %d, buffered %d)", s, m.Received(), m.Buffered())
				}
			}
		}
	})
	t.Run("zero target shards", func(t *testing.T) {
		if _, err := restoreInto(blob, nil, nil); err == nil {
			t.Fatal("restore into empty tier accepted")
		}
	})
	t.Run("forged section length", func(t *testing.T) {
		// A valid header claiming a near-limit section length against a
		// tiny blob must be rejected before any large allocation.
		var forged bytes.Buffer
		forged.WriteString("MXSH")
		for _, v := range []uint32{ShardedStateVersion, 1} {
			binary.Write(&forged, binary.LittleEndian, v)
		}
		forged.WriteByte(1)
		for i := 0; i < 4; i++ {
			binary.Write(&forged, binary.LittleEndian, uint32(0))
		}
		for i := 0; i < 3; i++ { // tier ledger
			binary.Write(&forged, binary.LittleEndian, uint64(0))
		}
		for i := 0; i < 2; i++ { // shard 0 ledger
			binary.Write(&forged, binary.LittleEndian, uint64(0))
		}
		binary.Write(&forged, binary.LittleEndian, uint32(0)) // shard 0 load
		binary.Write(&forged, binary.LittleEndian, uint32(0)) // no topology
		// Forge the trust-section length (the first length-prefixed
		// section).
		binary.Write(&forged, binary.LittleEndian, uint32(maxSectionBytes-1))
		if _, err := restoreInto(forged.Bytes(), fresh(), nil); err == nil {
			t.Fatal("forged oversized section length accepted")
		}
	})
	t.Run("forged entry count", func(t *testing.T) {
		// A 4-byte pending section claiming 1<<20 entries passes the count
		// limit; it must be refused on the bytes present, before the
		// 24 MiB slice its count asks for is allocated.
		forged := forgedEntryCountBlob()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := restoreInto(forged, newTier(t, 1, 2), nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("forged section entry count accepted")
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("refusing a 4-byte section claiming 1<<20 entries allocated %d bytes", grew)
		}
	})
}

// forgedEntryCountBlob is a one-shard blob, valid up to its pending
// section: 4 bytes that claim maxSectionEntries entries.
func forgedEntryCountBlob() []byte {
	blob := []byte("MXSH")
	blob = binary.LittleEndian.AppendUint32(blob, ShardedStateVersion)
	blob = binary.LittleEndian.AppendUint32(blob, 1) // shards
	blob = append(blob, 1)                           // routing
	blob = append(blob, make([]byte, 4*4+3*8)...)    // rr, inRound, rounds, hopMark; tier ledger
	blob = append(blob, make([]byte, 2*8+4)...)      // shard 0 ledger and load
	blob = append(blob, make([]byte, 4+4)...)        // no topology, no trust
	blob = binary.LittleEndian.AppendUint32(blob, 4) // pending section: 4 bytes...
	return binary.LittleEndian.AppendUint32(blob, maxSectionEntries)
}

func TestSealShardedStateRejects(t *testing.T) {
	if _, err := SealShardedState(nil, ShardedStateMeta{}, nil); err == nil {
		t.Fatal("seal of zero shards accepted")
	}
	tier := newTier(t, 1, 2)
	if _, err := SealShardedState(tier, ShardedStateMeta{InRound: -1}, nil); err == nil {
		t.Fatal("negative ledger field accepted")
	}
}

// TestRestoredOverfullMixerStaysConservative pins the over-stuffed
// restore contract restoreEntry documents: a mixer holding more than k
// entries still swap-emits one update per Add and drains completely.
func TestRestoredOverfullMixerStaysConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	updates := makeUpdates(6, 2, rng)

	tier := newTier(t, 1, 4)
	if got := feedTier(t, tier, updates[:4]); len(got) != 0 {
		t.Fatalf("tier emitted %d during fill", len(got))
	}
	blob, err := SealShardedState(tier, ShardedStateMeta{Routing: 1, InRound: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The k=4 mixer's 4 buffered entries land in a k=2 mixer: over-full by 2.
	narrow := newTier(t, 1, 2)
	if _, err := restoreInto(blob, narrow, nil); err != nil {
		t.Fatal(err)
	}
	if narrow[0].Buffered() != 4 {
		t.Fatalf("buffered = %d, want 4", narrow[0].Buffered())
	}
	var emitted []nn.ParamSet
	emitted = append(emitted, feedTier(t, narrow, updates[4:])...)
	if len(emitted) != 2 {
		t.Fatalf("over-full mixer emitted %d on 2 adds, want 2", len(emitted))
	}
	emitted = append(emitted, drainTier(narrow)...)
	if len(emitted) != 6 {
		t.Fatalf("round emitted %d, want 6", len(emitted))
	}
	want, _ := nn.Average(updates)
	got, err := nn.Average(emitted)
	if err != nil {
		t.Fatal(err)
	}
	if !want.ApproxEqual(got, 1e-9) {
		t.Fatal("over-full restore broke conservation")
	}
}

// TestSealShardedStateConcurrentWithAdd exercises the seal path against
// concurrent mixing at the core level (run under -race): snapshotting a
// tier while every shard is being fed must neither race nor produce an
// unparseable blob.
func TestSealShardedStateConcurrentWithAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const p, rounds = 3, 40
	tier := newTier(t, p, 2)
	updates := encodeAll(t, makeUpdates(rounds, 2, rng))

	var wg sync.WaitGroup
	for s := 0; s < p; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < rounds; i += p {
				if _, err := tier[s].AddWire(updates[i]); err != nil {
					t.Errorf("shard %d add %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	sealDone := make(chan struct{})
	go func() {
		defer close(sealDone)
		for j := 0; j < 50; j++ {
			blob, err := SealShardedState(tier, ShardedStateMeta{Routing: 1}, nil)
			if err != nil {
				t.Errorf("concurrent seal: %v", err)
				return
			}
			if _, err := restoreInto(blob, newTier(t, p, 2), nil); err != nil {
				t.Errorf("concurrent seal produced unrestorable blob: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-sealDone
}

// TestShardedStateV3TopoAndLoads pins the v3 additions: the opaque
// topology blob and per-shard quota loads round-trip, and the open step
// yields the topology before any shard exists to restore into.
func TestShardedStateV3TopoAndLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tier := newTier(t, 2, 2)
	feedTier(t, tier, makeUpdates(3, 2, rng))
	topoBlob := []byte("opaque-topology-bytes")
	blob, err := SealShardedState(tier, ShardedStateMeta{
		Routing:   3,
		InRound:   3,
		ShardLoad: []int{2, 1},
		Topo:      topoBlob,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := OpenShardedState(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(opened.Meta.Topo) != string(topoBlob) {
		t.Fatalf("opened topo = %q, want %q", opened.Meta.Topo, topoBlob)
	}
	meta, err := restoreInto(blob, newTier(t, 2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Routing != 3 {
		t.Fatalf("routing tag = %d, want the sealed 3", meta.Routing)
	}
	if len(meta.ShardLoad) != 2 || meta.ShardLoad[0] != 2 || meta.ShardLoad[1] != 1 {
		t.Fatalf("ShardLoad = %v, want [2 1]", meta.ShardLoad)
	}
	if string(meta.Topo) != string(topoBlob) {
		t.Fatalf("restored topo = %q", meta.Topo)
	}
	// Mismatched load length is rejected at seal time.
	if _, err := SealShardedState(tier, ShardedStateMeta{ShardLoad: []int{1}}, nil); err == nil {
		t.Fatal("mismatched shard-load length accepted")
	}
	// The open step rejects garbage gracefully.
	if _, err := OpenShardedState([]byte("garbage"), nil); err == nil {
		t.Fatal("garbage accepted by the open step")
	}
}

// TestRelayShardConservation: the remote-placement buffer is trivially
// conservative (Drain returns exactly what AddWire received) and
// implements the full Shard contract including snapshot/restore.
func TestRelayShardConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	updates := makeUpdates(4, 2, rng)
	r := NewRelayShard(4, nil)
	for _, raw := range encodeAll(t, updates) {
		out, err := r.AddWire(raw)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			t.Fatal("relay shard emitted mid-round")
		}
	}
	if r.Buffered() != 4 || r.Received() != 4 || r.Emitted() != 0 {
		t.Fatalf("ledger = %d/%d/%d", r.Buffered(), r.Received(), r.Emitted())
	}
	snap := r.SnapshotEntries()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	drained := r.Drain()
	if len(drained) != 4 || r.Buffered() != 0 || r.Emitted() != 4 {
		t.Fatalf("drain: %d entries, buffered %d, emitted %d", len(drained), r.Buffered(), r.Emitted())
	}
	for i := range drained {
		got, _ := nn.Average([]nn.ParamSet{drained[i]})
		want, _ := nn.Average([]nn.ParamSet{updates[i]})
		if !got.ApproxEqual(want, 0) {
			t.Fatalf("drained entry %d differs from input (relay must not mix)", i)
		}
	}
	// Restore path: entries land back, counted.
	r2 := NewRelayShard(4, nil)
	for _, u := range snap {
		if err := r2.RestoreEntry(u); err != nil {
			t.Fatal(err)
		}
	}
	if r2.Buffered() != 4 || r2.Received() != 4 {
		t.Fatalf("restored relay ledger = %d/%d", r2.Buffered(), r2.Received())
	}
	empty, err := nn.EncodeParamSet(nn.ParamSet{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddWire(empty); err == nil {
		t.Fatal("empty update accepted by relay")
	}
}

// TestShardedStateRelayInTier: a tier mixing StreamMixers and a
// RelayShard seals and restores like any other tier — the relay's
// buffered (unmixed) material is a shard section like the rest, and that
// section is byte-identical to the relayed updates' wire images in
// arrival order, before and after a restore.
func TestShardedStateRelayInTier(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	updates := makeUpdates(6, 2, rng)
	m, err := NewStreamMixerSlab(2, rand.New(rand.NewSource(5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	tier := []Shard{m, NewRelayShard(3, NewSlabPool())}
	emitted := feedTier(t, tier, updates)
	// feedTier routes update i to shard i%2: the relay took 1, 3 and 5.
	wantSection := binary.LittleEndian.AppendUint32(nil, 3)
	for i, img := range encodeAll(t, updates) {
		if i%2 == 1 {
			wantSection = append(wantSection, img...)
		}
	}
	relaySection := func(shards []Shard) {
		t.Helper()
		var got []byte
		if _, err := SealShardedState(shards, ShardedStateMeta{}, func(s int, plain []byte) ([]byte, error) {
			if s == 1 {
				got = plain
			}
			return plain, nil
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantSection) {
			t.Fatal("the relay's sealed section is not its inputs' wire images in arrival order")
		}
	}
	relaySection(tier)
	blob, err := SealShardedState(tier, ShardedStateMeta{Routing: 3, InRound: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewStreamMixerSlab(2, rand.New(rand.NewSource(6)), nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := []Shard{m2, NewRelayShard(3, nil)}
	if _, err := restoreInto(blob, fresh, nil); err != nil {
		t.Fatal(err)
	}
	relaySection(fresh)
	out := append([]nn.ParamSet{}, emitted...)
	out = append(out, drainTier(fresh)...)
	want, _ := nn.Average(updates)
	got, err := nn.Average(out)
	if err != nil {
		t.Fatal(err)
	}
	if !want.ApproxEqual(got, 1e-9) {
		t.Fatal("relay-bearing tier broke conservation across seal/restore")
	}
}
