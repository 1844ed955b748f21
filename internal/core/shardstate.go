package core

import (
	"encoding/binary"
	"fmt"

	"mixnn/internal/nn"
)

// Shard-aware durable state for a whole mixing tier: this file snapshots
// every shard of a tier plus the routing metadata and round ledger that
// make the snapshot restorable into a tier of the same shape.
//
// Binary layout (little-endian), versioned so the format can evolve:
//
//	magic    [4]byte "MXSH"
//	version  uint32 (currently 4)
//	shards   uint32 P at seal time
//	routing  uint8  routing mode tag (internal/route's; informational —
//	  the topology section is what a restore parses)
//	rr       uint32 round-robin routing cursor
//	inRound  uint32 updates received in the open round
//	rounds   uint32 completed rounds (the tier's delivery epoch)
//	hopMark  uint32 round hop-depth watermark
//	received, hopReceived, forwarded uint64 (tier ledger)
//	per shard: shardReceived uint64, shardEmitted uint64 (shard ledger)
//	per shard: shardLoad uint32 (updates routed this round — the
//	  quota-routing state of the open round)
//	topoLen  uint32, topo bytes (the routing-plane topology blob,
//	  opaque here — internal/route marshals it; zero length = none)
//	trustLen uint32, trust section (the remote shards' attestation
//	  trust material, opaque here and sealed under TrustSection; zero
//	  length = none)
//	pendingLen uint32, pending section (updates the mixers emitted
//	  mid-round that have not yet been committed to the delivery outbox)
//	per shard: sectionLen uint32, section bytes
//
// Each shard section holds that shard's buffered material as complete
// pseudo-updates (one ParamSet assembled from slot j of every per-layer
// list). Because a mixer's lists always have equal length, slot-major
// regrouping is lossless. Each section restores into the shard it was
// sealed from: an open round's shard membership fixes its anonymity sets
// and quotas, so a restore never redraws it (a new shape is staged through
// the routing plane and applies at the next round close).
//
// Sections pass through SealSectionFunc/OpenSectionFunc so the proxy can
// encrypt each shard's material under a per-shard derived sealing key
// (enclave.SealLabeled); core itself stays crypto-free and tests run on
// plaintext sections (nil funcs).
//
// Section layout: entries uint32, then one ParamSet encoding per entry.
const (
	shardedStateMagic = "MXSH"

	// ShardedStateVersion is the seal-blob format version, the only one
	// written and the only one read: a blob of any other version is
	// refused with an error naming both (checkStateVersion). A mid-round
	// sealed by an older release is restored and drained by that release.
	ShardedStateVersion = 4

	// maxSealedShards bounds the shard count a blob may claim (the blob
	// crosses the sealing boundary, so parse limits guard allocations).
	maxSealedShards = 1 << 12
	// maxSectionBytes bounds one shard section.
	maxSectionBytes = 512 << 20
	// maxSectionEntries bounds the buffered pseudo-updates per section.
	maxSectionEntries = 1 << 20
)

// PendingSection is the shard index SealSectionFunc/OpenSectionFunc see
// for the pending-emission section, which belongs to no single shard.
const PendingSection = -1

// TrustSection is the shard index SealSectionFunc/OpenSectionFunc see
// for the remote-trust section: the attestation trust material of
// the tier's remote shards, opaque to core (the proxy owns the
// encoding). It carries inter-proxy secrets, so it is sealed like
// buffered participant material.
const TrustSection = -2

// SealSectionFunc seals one shard's plaintext section (e.g. under a
// per-shard derived enclave key). The pending-emission section is sealed
// with shard == PendingSection. A nil func stores sections as-is.
type SealSectionFunc func(shard int, plain []byte) ([]byte, error)

// OpenSectionFunc reverses SealSectionFunc for the shard index recorded
// at seal time.
type OpenSectionFunc func(shard int, sealed []byte) ([]byte, error)

// ShardedStateMeta is the routing metadata and round ledger sealed next
// to the shard buffers.
type ShardedStateMeta struct {
	// SealedShards is the shard count P of the tier that produced the
	// blob. It is an output of OpenShardedState (ignored on seal,
	// where it is taken from the mixer slice).
	SealedShards int
	// Routing is the tier's routing mode tag as internal/route numbers
	// it, written for the record only: core never interprets it, and a
	// restore takes the mode from the Topo section.
	Routing uint8
	// RRCursor is the sticky mode's anonymous-traffic cursor.
	RRCursor int
	// InRound counts updates received in the open round.
	InRound int
	// Rounds counts completed rounds.
	Rounds int
	// HopMark is the open round's cascade-depth watermark.
	HopMark int
	// Received, HopReceived and Forwarded are the tier's lifetime
	// ingress/egress ledger.
	Received    int
	HopReceived int
	Forwarded   int
	// ShardReceived and ShardEmitted are the per-shard mixer ledgers
	// (cumulative across epochs), len P at seal time.
	ShardReceived []int
	ShardEmitted  []int
	// Pending holds updates the mixers emitted mid-round that were not
	// yet committed to the delivery outbox when the tier was sealed. They
	// restore into the replacement tier's pending buffer, not its mixers.
	Pending []nn.ParamSet
	// ShardLoad is the open round's per-shard routed-update count (the
	// quota-enforcement state), len P at seal time.
	ShardLoad []int
	// Topo is the routing plane's marshalled topology, opaque to core
	// (internal/route owns the encoding); nil when the tier sealed none.
	Topo []byte
	// RemoteTrust is the remote shards' attestation trust material,
	// opaque to core (the proxy owns the encoding); it is sealed under
	// the TrustSection index; nil when the tier has no remote shards.
	RemoteTrust []byte
}

// SnapshotEntries exports the mixer's buffered contents as complete
// pseudo-updates: entry j holds slot j of every per-layer list. The
// returned ParamSets alias the buffered tensors (which are never mutated
// in place), so the caller may encode them without holding the lock.
// It implements Shard.
func (m *StreamMixer) SnapshotEntries() []nn.ParamSet {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]nn.ParamSet, m.buffered)
	for j := range out {
		ps := nn.ParamSet{Layers: make([]nn.LayerParams, len(m.lists))}
		for li := range m.lists {
			ps.Layers[li] = m.lists[li][j]
		}
		out[j] = ps
	}
	return out
}

// RestoreEntry files one restored pseudo-update into the mixer. Unlike
// Add it never emits, and it may push the buffer PAST k: a blob sealed
// from mixers with more capacity legitimately restores into smaller ones,
// and a failed relay commit re-files into a live mixer (packageRound). An
// over-full mixer stays conservative — every subsequent Add swap-emits
// exactly one update and the round-close Drain empties whatever remains —
// so aggregation equivalence is unaffected; the extra occupancy only
// widens that shard's anonymity set. It implements Shard.
func (m *StreamMixer) RestoreEntry(u nn.ParamSet) error {
	if len(u.Layers) == 0 {
		return fmt.Errorf("core: restore of empty update")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lists == nil && m.received != 0 {
		return fmt.Errorf("core: RestoreEntry on a non-fresh mixer")
	}
	// Restores may push past k: chunks grow, they never reject.
	row, err := m.slab.fileParamSet(u)
	if err != nil {
		return fmt.Errorf("core: restored update incompatible with mixer model structure")
	}
	m.bufferLocked(row)
	m.received++
	return nil
}

// marshalSection encodes one shard's buffered pseudo-updates into one
// exactly-sized allocation.
func marshalSection(entries []nn.ParamSet) ([]byte, error) {
	size := 4
	for _, e := range entries {
		size += nn.EncodedSize(e)
	}
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(entries)))
	for i, e := range entries {
		var err error
		if buf, err = nn.AppendParamSet(buf, e); err != nil {
			return nil, fmt.Errorf("core: marshal shard entry %d: %w", i, err)
		}
	}
	return buf, nil
}

// unmarshalSection decodes one shard section back into pseudo-updates.
func unmarshalSection(data []byte) ([]nn.ParamSet, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("core: section of %d bytes holds no entry count", len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	rest := data[4:]
	// Bound the count by what the bytes present can hold — no entry is
	// smaller than the codec's fixed header — before allocating: a forged
	// count must not buy 24 MiB of slice against a 4-byte section.
	if n > maxSectionEntries || int(n) > len(rest)/nn.EncodedSize(nn.ParamSet{}) {
		return nil, fmt.Errorf("core: section entry count %d exceeds what its %d bytes can hold", n, len(rest))
	}
	entries := make([]nn.ParamSet, 0, n)
	for i := uint32(0); i < n; i++ {
		ps, tail, err := nn.DecodeParamSetPrefix(rest)
		if err != nil {
			return nil, fmt.Errorf("core: read section entry %d: %w", i, err)
		}
		entries, rest = append(entries, ps), tail
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after section entries", len(rest))
	}
	return entries, nil
}

// leCursor moves little-endian values between a byte slice and the
// variables its methods are handed: appending them when writing is set,
// consuming them otherwise. Because every method takes a pointer and
// works in the cursor's direction, ONE walk over the fields
// (stateImage.layout) is both the blob's writer and its reader. The error
// is sticky: after the first failure every method is a no-op, so the walk
// reads straight through and its caller checks err once.
type leCursor struct {
	buf     []byte
	off     int // next unread byte (reading only)
	writing bool
	err     error
}

func (c *leCursor) failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// take consumes n bytes, bounded by the bytes actually present.
func (c *leCursor) take(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.buf)-c.off {
		c.failf("core: sharded state truncated at %s (offset %d): need %d bytes, have %d", what, c.off, n, len(c.buf)-c.off)
		return nil
	}
	b := c.buf[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// count moves a non-negative int as a width-byte (4 or 8) unsigned word.
func (c *leCursor) count(v *int, width int, what string) {
	switch {
	case c.err != nil:
	case c.writing && *v < 0:
		c.failf("core: negative %s %d", what, *v)
	case c.writing && width == 4:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
	case c.writing:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	default:
		if b := c.take(width, what); len(b) == 4 {
			*v = int(binary.LittleEndian.Uint32(b))
		} else if len(b) == 8 {
			*v = int(binary.LittleEndian.Uint64(b))
		}
	}
}

// section moves one length-prefixed byte string. Reading, the length is
// bounded by maxSectionBytes and by the bytes actually present before
// anything is touched — a forged header must not buy a 512 MiB allocation
// against a tiny blob — and *b comes back aliasing the blob, nil when the
// section is empty.
func (c *leCursor) section(b *[]byte, what string) {
	n := len(*b)
	c.count(&n, 4, what)
	if c.err != nil {
		return
	}
	if n > maxSectionBytes {
		c.failf("core: %s length %d exceeds limit %d", what, n, maxSectionBytes)
		return
	}
	if c.writing {
		c.buf = append(c.buf, *b...)
		return
	}
	*b = nil
	if n > 0 {
		*b = c.take(n, what)
	}
}

// stateImage is a seal blob's content in blob order, every section still
// in its stored (sealed) form: what layout reads or writes.
type stateImage struct {
	meta           *ShardedStateMeta
	trust, pending []byte
	shards         [][]byte
}

// layout walks the blob — the binary layout at the top of this file — in
// the cursor's direction. It is the only code that knows that layout.
func (im *stateImage) layout(c *leCursor) {
	m := im.meta
	if c.writing {
		c.buf = append(c.buf, shardedStateMagic...)
	} else if magic := c.take(4, "magic"); c.err == nil && string(magic) != shardedStateMagic {
		c.failf("core: bad sharded state magic %q", magic)
	}
	version := ShardedStateVersion
	c.count(&version, 4, "version")
	if c.err == nil {
		c.err = checkStateVersion(version)
	}
	c.count(&m.SealedShards, 4, "shard count")
	if c.err == nil && (m.SealedShards == 0 || m.SealedShards > maxSealedShards) {
		c.failf("core: sealed shard count %d out of range [1,%d]", m.SealedShards, maxSealedShards)
	}
	if c.err != nil {
		return
	}
	if c.writing {
		c.buf = append(c.buf, m.Routing)
	} else if b := c.take(1, "routing mode"); b != nil {
		m.Routing = b[0]
	}
	for _, v := range []*int{&m.RRCursor, &m.InRound, &m.Rounds, &m.HopMark} {
		c.count(v, 4, "ledger field")
	}
	for _, v := range []*int{&m.Received, &m.HopReceived, &m.Forwarded} {
		c.count(v, 8, "ledger field")
	}
	if !c.writing {
		m.ShardReceived = make([]int, m.SealedShards)
		m.ShardEmitted = make([]int, m.SealedShards)
		m.ShardLoad = make([]int, m.SealedShards)
		im.shards = make([][]byte, m.SealedShards)
	}
	for s := range im.shards {
		c.count(&m.ShardReceived[s], 8, "shard received count")
		c.count(&m.ShardEmitted[s], 8, "shard emitted count")
	}
	for s := range im.shards {
		c.count(&m.ShardLoad[s], 4, "shard load")
	}
	c.section(&m.Topo, "topology")
	c.section(&im.trust, "trust section")
	c.section(&im.pending, "pending section")
	for s := range im.shards {
		c.section(&im.shards[s], "shard section")
	}
	if !c.writing && c.err == nil && c.off != len(c.buf) {
		c.failf("core: %d trailing bytes after sharded state", len(c.buf)-c.off)
	}
}

// SealShardedState exports a whole tier — every shard's buffered layers
// plus routing metadata and the round ledger — as one versioned blob.
// The name mirrors the proxy operation the blob exists for: the caller
// (the enclave-hosted proxy) wraps the result with its sealing key; seal,
// when non-nil, additionally protects each shard section individually.
func SealShardedState(shards []Shard, meta ShardedStateMeta, seal SealSectionFunc) ([]byte, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: seal of zero shards")
	}
	if meta.ShardReceived != nil && len(meta.ShardReceived) != len(shards) {
		return nil, fmt.Errorf("core: %d shard-received entries for %d shards", len(meta.ShardReceived), len(shards))
	}
	if meta.ShardEmitted != nil && len(meta.ShardEmitted) != len(shards) {
		return nil, fmt.Errorf("core: %d shard-emitted entries for %d shards", len(meta.ShardEmitted), len(shards))
	}
	if meta.ShardLoad != nil && len(meta.ShardLoad) != len(shards) {
		return nil, fmt.Errorf("core: %d shard-load entries for %d shards", len(meta.ShardLoad), len(shards))
	}
	// Per-shard ledgers the caller does not supply: the mixers' own
	// counters stand in (a tier that never swapped mixers), loads are zero.
	meta.SealedShards = len(shards)
	if meta.ShardReceived == nil {
		meta.ShardReceived = make([]int, len(shards))
		for s, m := range shards {
			meta.ShardReceived[s] = m.Received()
		}
	}
	if meta.ShardEmitted == nil {
		meta.ShardEmitted = make([]int, len(shards))
		for s, m := range shards {
			meta.ShardEmitted[s] = m.Emitted()
		}
	}
	if meta.ShardLoad == nil {
		meta.ShardLoad = make([]int, len(shards))
	}
	sealed := func(idx int, plain []byte) ([]byte, error) {
		if seal == nil {
			return plain, nil
		}
		return seal(idx, plain)
	}
	im := stateImage{meta: &meta, shards: make([][]byte, len(shards))}
	var err error
	// The trust section carries inter-proxy secrets, so it is sealed like
	// buffered participant material; an absent one stays zero-length.
	if len(meta.RemoteTrust) > 0 {
		if im.trust, err = sealed(TrustSection, meta.RemoteTrust); err != nil {
			return nil, fmt.Errorf("core: seal trust section: %w", err)
		}
	}
	if im.pending, err = marshalSection(meta.Pending); err != nil {
		return nil, fmt.Errorf("core: pending section: %w", err)
	}
	if im.pending, err = sealed(PendingSection, im.pending); err != nil {
		return nil, fmt.Errorf("core: seal pending section: %w", err)
	}
	for s, m := range shards {
		if im.shards[s], err = marshalSection(m.SnapshotEntries()); err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s, err)
		}
		if im.shards[s], err = sealed(s, im.shards[s]); err != nil {
			return nil, fmt.Errorf("core: seal shard %d section: %w", s, err)
		}
	}
	c := leCursor{writing: true}
	im.layout(&c)
	return c.buf, c.err
}

// checkStateVersion refuses every seal-blob version but the current one,
// naming the version found and the version wanted. Older layouts lack
// fields a restore depends on (ledgers, topology, remote trust), so a
// blob an older release sealed is finished by that release, not guessed
// at by this one.
func checkStateVersion(v int) error {
	if v >= 1 && v < ShardedStateVersion {
		return fmt.Errorf("core: sharded state version %d is no longer supported, want %d; restore and drain it with the release that sealed it", v, ShardedStateVersion)
	}
	if v != ShardedStateVersion {
		return fmt.Errorf("core: sharded state version %d, want %d", v, ShardedStateVersion)
	}
	return nil
}

// OpenedState is a seal blob parsed once, before any shard exists to
// restore into: Meta says under which epoch and topology to build the
// shard set (a restoring proxy seeds its mixers' rand streams from
// Meta.Rounds and shapes them after Meta.Topo), FileInto then files the
// held per-shard sections into it.
type OpenedState struct {
	// Meta carries the sealed tier's ledger (tier-wide and per-shard), the
	// pending emissions, and the shard count in SealedShards. Topo aliases
	// the blob, and so does RemoteTrust when no opener was given.
	Meta     ShardedStateMeta
	sections [][]nn.ParamSet
}

// OpenShardedState parses a SealShardedState blob: header, ledgers, loads,
// topology, trust and pending sections into Meta, the shard sections
// decoded and held. open must reverse the SealSectionFunc used at seal
// time (nil for plaintext sections). No shard is involved yet, so a blob
// that fails to parse cannot leave a tier half-populated.
func OpenShardedState(blob []byte, open OpenSectionFunc) (*OpenedState, error) {
	st := &OpenedState{}
	im := stateImage{meta: &st.Meta}
	c := leCursor{buf: blob}
	if im.layout(&c); c.err != nil {
		return nil, c.err
	}
	opened := func(idx int, section []byte) ([]byte, error) {
		if len(section) == 0 || open == nil {
			return section, nil
		}
		plain, err := open(idx, section)
		if err != nil {
			return nil, fmt.Errorf("core: open section: %w", err)
		}
		return plain, nil
	}
	var err error
	if st.Meta.RemoteTrust, err = opened(TrustSection, im.trust); err != nil {
		return nil, fmt.Errorf("core: trust section: %w", err)
	}
	if im.pending, err = opened(PendingSection, im.pending); err == nil {
		st.Meta.Pending, err = unmarshalSection(im.pending)
	}
	if err != nil {
		return nil, fmt.Errorf("core: pending section: %w", err)
	}
	st.sections = make([][]nn.ParamSet, len(im.shards))
	for s, section := range im.shards {
		if section, err = opened(s, section); err == nil {
			st.sections[s], err = unmarshalSection(section)
		}
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s, err)
		}
	}
	return st, nil
}

// FileInto files the held shard sections into a tier of fresh shards of
// the sealed shape, each section into the shard it was sealed from. A
// shard-count mismatch or a used shard is refused before any target shard
// is touched.
func (st *OpenedState) FileInto(shards []Shard) error {
	if len(shards) != st.Meta.SealedShards {
		return fmt.Errorf("core: restore of a %d-shard blob into %d shards: an open round keeps the shard set it was sealed under", st.Meta.SealedShards, len(shards))
	}
	for s, m := range shards {
		if m.Received() != 0 || m.Buffered() != 0 {
			return fmt.Errorf("core: restore into non-fresh mixer (shard %d)", s)
		}
	}
	for s, entries := range st.sections {
		for i, e := range entries {
			if err := shards[s].RestoreEntry(e); err != nil {
				return fmt.Errorf("core: restore shard %d entry %d: %w", s, i, err)
			}
		}
	}
	return nil
}
