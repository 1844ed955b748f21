// Package outbox implements the durable delivery queue between the MixNN
// proxy's round drains and its upstream forwarder. Once a shard tier
// drains a round, the mixed material has left the mixers; before this
// package existed a downstream outage mid-drain silently lost those
// updates and skewed the layer-wise mean the paper's equivalence argument
// depends on. The outbox closes that gap: a drained round is committed to
// disk as one sealed, versioned entry BEFORE any network send is
// attempted, and a background dispatcher (dispatcher.go) retries delivery
// with bounded backoff until the downstream acknowledges it.
//
// Like internal/core, the package is crypto-free: entries pass through
// caller-supplied Seal/Open funcs so the proxy can encrypt them under an
// enclave-derived key (enclave.SealLabeled) and nothing mixed ever rests
// on the untrusted host in plaintext. Tests run on nil funcs (plaintext).
//
// Disk layout: one file per entry, named ob-<seq>.ent with a
// zero-padded monotone sequence so lexical order is delivery order.
// Writes are tmp-file + rename (an entry is either fully present or
// absent); acknowledged entries are removed; entries that fail to open or
// parse are quarantined by rename to ob-<seq>.bad — consume-by-rename,
// like the proxy's sealed state blob — so the queue keeps draining past
// garbage while the evidence stays inspectable.
package outbox

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// SealFunc encrypts an entry before it touches disk (e.g. under an
// enclave-derived key). Nil stores entries in plaintext.
type SealFunc func(plain []byte) ([]byte, error)

// OpenFunc reverses SealFunc.
type OpenFunc func(sealed []byte) ([]byte, error)

// ErrEmpty is returned by NextIn when the lane holds no deliverable entry.
var ErrEmpty = errors.New("outbox: empty")

// Queue is the delivery queue contract shared by the durable on-disk
// outbox and the in-memory variant: per-destination-ordered Put/NextIn/Ack
// with quarantine for undeliverable entries and a stable sender identity
// for receiver-side redelivery detection. An entry is delivered whole —
// one batch — or not at all; there is no partial-delivery state.
//
// Entries are partitioned into lanes keyed by the envelope destination
// (LaneOf), so a dead peer's backlog never blocks deliveries bound for
// the cascade hop, the aggregation server, or a healthy peer. Ordering
// is guaranteed per lane, not across lanes.
type Queue interface {
	// Put commits one entry and returns its sequence number. For the disk
	// queue the entry is durable (sealed, atomically renamed into place)
	// before Put returns. The entry joins the lane named by its envelope
	// destination (LaneOf of the plaintext payload).
	Put(payload []byte) (uint64, error)
	// NextIn returns the oldest entry of one lane, opened. Corrupt or
	// unopenable entries are quarantined and skipped so one bad entry
	// cannot wedge the lane. ErrEmpty when the lane is drained.
	NextIn(lane string) (uint64, []byte, error)
	// Lanes lists the lanes that currently hold pending entries, sorted.
	Lanes() []string
	// LaneLens counts every lane's pending entries in ONE consistent
	// snapshot (a single lock acquisition), so the per-lane depths sum
	// to the queue's total at that instant — per-lane reads would each
	// race the dispatcher's acks.
	LaneLens() map[string]int
	// Ack consumes a delivered entry.
	Ack(seq uint64) error
	// Quarantine sets aside an entry the receiver permanently rejected.
	Quarantine(seq uint64, reason error) error
	// Len counts entries awaiting delivery.
	Len() int
	// Quarantined counts entries set aside since the queue was opened,
	// including (for the disk queue) .bad files a previous process left
	// behind — the operator surface for material that left the delivery
	// path.
	Quarantined() int
	// SenderID is a stable identity for this queue (persisted alongside
	// the disk queue, ephemeral for the in-memory one). Receivers use it
	// with the entry sequence number to recognise stale redeliveries
	// that have aged out of their dedup window.
	SenderID() string
}

// Envelope is the payload of one outbox entry: one destination's share
// of a drained round. Binary layout (little-endian), versioned so the
// format can evolve:
//
//	magic   [4]byte "MXOB"
//	version uint32 (3 — the only version written or read)
//	epoch   uint64  round number the material belongs to
//	topoVer uint64  routing-plane topology version the round closed
//	                under — the epoch+topology key delivery is tracked by
//	hop     uint32  cascade depth to stamp on delivery (watermark + 1)
//	destLen uint16, dest bytes: remote-shard address this entry is
//	                addressed to; empty = the tier's upstream/next-hop
//	tail — a complete wire.BatchEnvelope body, so the /v1/batch request
//	body is a sub-slice of the entry instead of a re-encoded copy:
//	  magic   [4]byte "MXBE"
//	  version uint8 (1)
//	  count   uint32  updates in the round
//	  per update: len uint32, bytes (an encoded nn.ParamSet — opaque here)
//
// Ownership: an entry's bytes are IMMUTABLE from Put to Ack. The parsed
// Updates and Batch alias the payload handed to ParseEnvelope, the
// dispatcher memoises them across retries, and Loopback hands request
// bodies to the receiver without copying — so neither the sender nor a
// receiver may decrypt, decode or otherwise write in place over them.
type Envelope struct {
	Epoch       uint64
	TopoVersion uint64
	Hop         int
	// Dest is the remote shard address the entry must be relayed to
	// (re-encrypted for that shard's enclave); empty means the tier's
	// ordinary downstream (upstream server or cascade next hop).
	Dest    string
	Updates [][]byte
	// Batch is the entry's tail: the complete wire.BatchEnvelope body of
	// Updates, aliasing the parsed payload — the /v1/batch request body as
	// it stands. nil only for an entry without updates (a batch envelope
	// cannot be empty; nothing is sent for one). Marshal ignores it.
	Batch []byte
}

const (
	envelopeMagic = "MXOB"

	// EnvelopeVersion is the entry format Marshal and EntryBuilder write
	// and the only one ParseEnvelope reads; versions 1 and 2 are refused
	// by name (parseHeader).
	EnvelopeVersion = 3

	// maxEnvelopeUpdates bounds the updates one entry may claim (entries
	// cross the sealing boundary, so parse limits guard allocations).
	maxEnvelopeUpdates = 1 << 20
	// maxEnvelopeItemBytes bounds one encoded update inside an entry.
	maxEnvelopeItemBytes = 512 << 20
	// maxEnvelopeDestBytes bounds the destination address.
	maxEnvelopeDestBytes = 1 << 10

	// envelopeFixedHeader is magic + version + epoch + topoVer + hop +
	// destLen; the destination follows it.
	envelopeFixedHeader = 4 + 4 + 8 + 8 + 4 + 2
	// batchMagic/batchVersion/batchHeader restate wire.BatchEnvelope's
	// framing (magic, version, count): the entry tail must BE that body, and
	// FuzzEnvelopeAlias holds the two packages to it.
	batchMagic   = "MXBE"
	batchVersion = 1
	batchHeader  = 4 + 1 + 4
)

// EntrySize returns the exact size of a v3 entry addressed to dest that
// carries count updates of payloadBytes encoded bytes in total.
func EntrySize(dest string, count, payloadBytes int) int {
	return envelopeFixedHeader + len(dest) + batchHeader + 4*count + payloadBytes
}

// EntryBuilder assembles a v3 entry in place, so a producer that can
// append-encode its updates (nn.AppendParamSet) writes each update's
// bytes exactly once — straight into the entry the queue will hold —
// instead of encoding them elsewhere and copying them in. Size the
// builder with EntrySize and the entry is one allocation.
type EntryBuilder struct {
	buf      []byte
	countOff int
	count    uint32
}

// NewEntryBuilder starts an entry with hdr's epoch, topology version, hop
// and destination (hdr.Updates and hdr.Batch are ignored); size is the
// capacity to reserve.
func NewEntryBuilder(hdr Envelope, size int) (*EntryBuilder, error) {
	if hdr.Hop < 0 {
		return nil, fmt.Errorf("outbox: negative hop %d", hdr.Hop)
	}
	if len(hdr.Dest) > maxEnvelopeDestBytes {
		return nil, fmt.Errorf("outbox: destination exceeds %d bytes", maxEnvelopeDestBytes)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, envelopeMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, EnvelopeVersion)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.TopoVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hdr.Hop))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(hdr.Dest)))
	buf = append(buf, hdr.Dest...)
	buf = append(buf, batchMagic...)
	buf = append(buf, batchVersion)
	b := &EntryBuilder{countOff: len(buf)}
	b.buf = binary.LittleEndian.AppendUint32(buf, 0) // count, patched by Bytes
	return b, nil
}

// Append adds one update: encode appends the update's bytes to the slice
// it is given and returns the extended slice. A failed encode leaves the
// builder as it was.
func (b *EntryBuilder) Append(encode func(buf []byte) ([]byte, error)) error {
	if b.count >= maxEnvelopeUpdates {
		return fmt.Errorf("outbox: more than %d updates in one entry", maxEnvelopeUpdates)
	}
	lenOff := len(b.buf)
	buf, err := encode(binary.LittleEndian.AppendUint32(b.buf, 0))
	if err != nil {
		return err
	}
	n := len(buf) - lenOff - 4
	if n < 0 || n > maxEnvelopeItemBytes {
		return fmt.Errorf("outbox: update %d is %d bytes, outside [0, %d]", b.count, n, maxEnvelopeItemBytes)
	}
	binary.LittleEndian.PutUint32(buf[lenOff:], uint32(n))
	b.buf = buf
	b.count++
	return nil
}

// Bytes returns the finished entry. The builder must not be used again.
func (b *EntryBuilder) Bytes() []byte {
	binary.LittleEndian.PutUint32(b.buf[b.countOff:], b.count)
	return b.buf
}

// Marshal encodes the envelope (current version) into one exactly-sized
// allocation.
func (e *Envelope) Marshal() ([]byte, error) {
	if len(e.Updates) > maxEnvelopeUpdates {
		return nil, fmt.Errorf("outbox: %d updates exceed the per-entry limit", len(e.Updates))
	}
	payload := 0
	for _, u := range e.Updates {
		payload += len(u)
	}
	b, err := NewEntryBuilder(*e, EntrySize(e.Dest, len(e.Updates), payload))
	if err != nil {
		return nil, err
	}
	for _, u := range e.Updates {
		if err := b.Append(func(buf []byte) ([]byte, error) { return append(buf, u...), nil }); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// parseHeader decodes an entry's header (magic through dest) by offset
// arithmetic and returns it with the offset the tail starts at. dest
// aliases data.
func parseHeader(data []byte) (env Envelope, dest []byte, off int, err error) {
	if len(data) < 4 || string(data[:4]) != envelopeMagic {
		return env, nil, 0, fmt.Errorf("outbox: bad entry magic %q", data[:min(len(data), 4)])
	}
	if len(data) < 8 {
		return env, nil, 0, fmt.Errorf("outbox: entry truncated before its version")
	}
	switch version := binary.LittleEndian.Uint32(data[4:]); version {
	case EnvelopeVersion:
	case 1, 2:
		return env, nil, 0, fmt.Errorf("outbox: entry version %d is no longer supported, want %d; finish it with the release that wrote it", version, EnvelopeVersion)
	default:
		return env, nil, 0, fmt.Errorf("outbox: entry version %d, want %d", version, EnvelopeVersion)
	}
	if len(data) < envelopeFixedHeader {
		return env, nil, 0, fmt.Errorf("outbox: entry truncated inside its header")
	}
	env.Epoch = binary.LittleEndian.Uint64(data[8:])
	env.TopoVersion = binary.LittleEndian.Uint64(data[16:])
	env.Hop = int(binary.LittleEndian.Uint32(data[24:]))
	destLen := int(binary.LittleEndian.Uint16(data[28:]))
	off = envelopeFixedHeader
	if destLen > maxEnvelopeDestBytes || destLen > len(data)-off {
		return env, nil, 0, fmt.Errorf("outbox: destination length %d out of range", destLen)
	}
	return env, data[off : off+destLen], off + destLen, nil
}

// ParseEnvelope decodes an entry payload (version 3 only), validating
// structure before allocating. The result ALIASES data — Updates and
// Batch are sub-slices of it, not copies — so data must stay unmodified
// for as long as the envelope is in use (see Envelope). The only
// allocations are the envelope, its destination string and one slice of
// update headers.
func ParseEnvelope(data []byte) (*Envelope, error) {
	hdr, dest, off, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	env := &hdr
	env.Dest = string(dest)
	tail := off
	if len(data)-off < batchHeader || string(data[off:off+4]) != batchMagic || data[off+4] != batchVersion {
		return nil, fmt.Errorf("outbox: entry tail is not a version-%d batch body", batchVersion)
	}
	off += 5
	count := binary.LittleEndian.Uint32(data[off:])
	off += 4
	// Each update needs at least its length prefix, so a count the entry
	// cannot hold is rejected before the header slice is sized by it.
	if count > maxEnvelopeUpdates || uint64(count) > uint64(len(data)-off)/4 {
		return nil, fmt.Errorf("outbox: entry claims %d updates", count)
	}
	env.Updates = make([][]byte, count)
	for i := range env.Updates {
		if len(data)-off < 4 {
			return nil, fmt.Errorf("outbox: entry truncated at update %d", i)
		}
		// uint64 comparisons: int(n) would go negative on 32-bit
		// platforms for adversarial lengths ≥ 2³¹ and bypass the bounds.
		n := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if uint64(n) > maxEnvelopeItemBytes || uint64(n) > uint64(len(data)-off) {
			return nil, fmt.Errorf("outbox: update %d length %d exceeds remaining bytes", i, n)
		}
		env.Updates[i] = data[off : off+int(n) : off+int(n)]
		off += int(n)
	}
	if off != len(data) {
		return nil, fmt.Errorf("outbox: %d trailing bytes after entry", len(data)-off)
	}
	if count > 0 {
		env.Batch = data[tail:len(data):len(data)]
	}
	return env, nil
}

// LaneOf extracts the delivery lane of an entry payload by decoding only
// the envelope header (magic through dest), without touching the update
// bodies. Payloads that do not parse as envelopes cannot be steered
// anywhere better, so they land in the default lane "" — the tier's
// ordinary downstream — where delivery (not lane indexing) decides
// whether to quarantine them.
func LaneOf(payload []byte) string {
	_, dest, _, err := parseHeader(payload)
	if err != nil {
		return ""
	}
	return string(dest)
}

// laneIndex is the pending-entry index both queues keep: each pending
// seq's delivery lane, and every lane's pending seqs in ascending order.
// Both are derived from the envelope headers. It has no lock of its own —
// the queue embedding it guards it with the queue's mutex.
type laneIndex struct {
	laneOf map[uint64]string
	lanes  map[string][]uint64
}

func newLaneIndex() laneIndex {
	return laneIndex{laneOf: make(map[uint64]string), lanes: make(map[string][]uint64)}
}

// add files seq at the tail of lane (seqs are assigned ascending).
func (x *laneIndex) add(seq uint64, lane string) {
	x.laneOf[seq] = lane
	x.lanes[lane] = append(x.lanes[lane], seq)
}

// drop forgets seq and reports the lane it was pending in.
func (x *laneIndex) drop(seq uint64) (lane string, tracked bool) {
	if lane, tracked = x.laneOf[seq]; !tracked {
		return "", false
	}
	delete(x.laneOf, seq)
	for i, s := range x.lanes[lane] {
		if s == seq {
			x.lanes[lane] = append(x.lanes[lane][:i], x.lanes[lane][i+1:]...)
			break
		}
	}
	if len(x.lanes[lane]) == 0 {
		delete(x.lanes, lane)
	}
	return lane, true
}

// head returns the oldest pending seq of lane.
func (x *laneIndex) head(lane string) (seq uint64, ok bool) {
	if len(x.lanes[lane]) == 0 {
		return 0, false
	}
	return x.lanes[lane][0], true
}

// names lists the lanes holding pending entries, sorted.
func (x *laneIndex) names() []string {
	out := make([]string, 0, len(x.lanes))
	for lane := range x.lanes {
		out = append(out, lane)
	}
	sort.Strings(out)
	return out
}

// lens counts every lane's pending entries.
func (x *laneIndex) lens() map[string]int {
	out := make(map[string]int, len(x.lanes))
	for lane, seqs := range x.lanes {
		out[lane] = len(seqs)
	}
	return out
}

// len counts the pending entries of all lanes.
func (x *laneIndex) len() int { return len(x.laneOf) }

// Disk is the durable on-disk queue.
type Disk struct {
	dir    string
	seal   SealFunc
	open   OpenFunc
	sender string

	mu   sync.Mutex
	next uint64 // next sequence number to assign
	// The lane index is recorded at Put and rebuilt at Open.
	laneIndex
	// heads caches the opened payload at the head of each lane between
	// retry attempts (entries are immutable once written), so a long
	// outage does not re-read and re-decrypt the same round every backoff
	// tick.
	heads map[string]headCache
	// quarantined counts entries set aside: .bad files found at Open
	// plus quarantines since.
	quarantined int
}

// headCache is one lane's memoised head entry.
type headCache struct {
	seq     uint64
	payload []byte
}

const (
	entrySuffix      = ".ent"
	quarantineSuffix = ".bad"
	senderFile       = "sender.id"
	// seqFile persists the next sequence number. The sender identity is
	// durable, and receivers key their stale-redelivery watermark on
	// (sender, seq) — so a sequence number must NEVER be reused, even
	// after a restart over a fully-drained (or quarantined-at-head)
	// directory where no .ent file remains to witness the high mark.
	seqFile = "seq.next"
)

func entryName(seq uint64) string { return fmt.Sprintf("ob-%016x%s", seq, entrySuffix) }

// Open opens (creating if needed) an outbox directory and indexes the
// entries a previous process left behind — that carry-over is what makes
// round delivery survive a crash. Quarantined (.bad) leftovers are
// counted and reported loudly: they are rounds that left the delivery
// path and need an operator.
//
// A directory holding a per-update progress marker (.prog, written by a
// release that still forwarded update by update) is refused: its entry
// was partly delivered, and this release sends entries whole, which would
// count the confirmed updates twice.
func Open(dir string, seal SealFunc, open OpenFunc) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("outbox: create dir: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("outbox: scan dir: %w", err)
	}
	d := &Disk{
		dir: dir, seal: seal, open: open,
		laneIndex: newLaneIndex(),
		heads:     make(map[string]headCache),
	}
	var seqs []uint64 // carried-over entries
	for _, de := range names {
		name := de.Name()
		if strings.HasSuffix(name, quarantineSuffix) {
			d.quarantined++
			// A quarantined entry's sequence number is still consumed:
			// the receiver may have recorded it in its watermark.
			var seq uint64
			if _, err := fmt.Sscanf(name, "ob-%016x", &seq); err == nil && seq >= d.next {
				d.next = seq + 1
			}
			continue
		}
		if strings.HasSuffix(name, ".prog") {
			return nil, fmt.Errorf("outbox: %s holds the per-update delivery marker %s: its entry was partly delivered update by update, and delivering it whole would count the confirmed updates twice; finish it with the release that wrote it", dir, name)
		}
		var seq uint64
		// Sscanf ignores trailing input, so require an exact round-trip of
		// the name — otherwise ob-N.ent.bad / ob-N.ent.tmp leftovers would
		// be indexed as phantom entries.
		if _, err := fmt.Sscanf(name, "ob-%016x"+entrySuffix, &seq); err != nil || name != entryName(seq) {
			continue // tmp files, foreign files
		}
		seqs = append(seqs, seq)
		if seq >= d.next {
			d.next = seq + 1
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	// The persisted counter wins over anything derived from surviving
	// files: acknowledged entries leave no .ent witness, but their
	// sequence numbers are burned at the receivers.
	if raw, err := os.ReadFile(filepath.Join(dir, seqFile)); err == nil {
		var next uint64
		if _, err := fmt.Sscanf(strings.TrimSpace(string(raw)), "%d", &next); err == nil && next > d.next {
			d.next = next
		}
	}
	// Rebuild the lane index: each carried-over entry is opened once to
	// read its envelope destination. Entries that fail to read or unseal
	// here would fail identically at delivery time, so they are
	// quarantined now instead of wedging a lane later; the opened payloads
	// are NOT retained (a restart after a long outage could hold many
	// rounds) — only the lane label is.
	for _, seq := range seqs {
		raw, rerr := os.ReadFile(filepath.Join(dir, entryName(seq)))
		if rerr == nil && d.open != nil {
			raw, rerr = d.open(raw)
		}
		if rerr != nil {
			d.quarantineLocked(seq)
			continue
		}
		d.add(seq, LaneOf(raw))
	}
	if d.sender, err = loadSenderID(dir); err != nil {
		return nil, err
	}
	if d.quarantined > 0 {
		log.Printf("outbox: WARNING: %d quarantined entries (%s files) in %s — rounds that left the delivery path; inspect and re-inject or discard", d.quarantined, quarantineSuffix, dir)
	}
	return d, nil
}

// loadSenderID reads (or mints) the queue's stable sender identity.
func loadSenderID(dir string) (string, error) {
	path := filepath.Join(dir, senderFile)
	raw, err := os.ReadFile(path)
	if err == nil && len(raw) >= 8 {
		return strings.TrimSpace(string(raw)), nil
	}
	id, err := mintSenderID()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, []byte(id), 0o600); err != nil {
		return "", fmt.Errorf("outbox: persist sender id: %w", err)
	}
	return id, nil
}

// mintSenderID draws a fresh random sender identity.
func mintSenderID() (string, error) {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("outbox: draw sender id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Dir returns the outbox directory.
func (d *Disk) Dir() string { return d.dir }

// Put seals the payload and commits it via tmp-file + rename, so a crash
// or full disk mid-write cannot leave a truncated entry where a good one
// should be.
func (d *Disk) Put(payload []byte) (uint64, error) {
	// The lane is read from the plaintext header, before sealing hides it.
	lane := LaneOf(payload)
	if d.seal != nil {
		var err error
		if payload, err = d.seal(payload); err != nil {
			return 0, fmt.Errorf("outbox: seal entry: %w", err)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	seq := d.next
	// Burn the sequence number durably BEFORE the entry exists: once the
	// entry is (ever) sent, the receiver's watermark remembers (sender,
	// seq), and a post-restart reuse would make fresh rounds look like
	// stale redeliveries — quarantined unseen. Best-effort on purpose: a
	// failed counter write must not fail the round commit, and Open also
	// rebuilds the counter from every on-disk witness.
	seqTmp := filepath.Join(d.dir, seqFile+".tmp")
	if err := os.WriteFile(seqTmp, []byte(fmt.Sprintf("%d\n", seq+1)), 0o600); err == nil {
		os.Rename(seqTmp, filepath.Join(d.dir, seqFile))
	}
	path := filepath.Join(d.dir, entryName(seq))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, payload, 0o600); err != nil {
		return 0, fmt.Errorf("outbox: write entry: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("outbox: commit entry: %w", err)
	}
	d.next = seq + 1
	d.add(seq, lane)
	return seq, nil
}

// NextIn returns the oldest entry of one lane, opened. Entries that fail
// to read or unseal are quarantined and skipped, so the lane drains past
// garbage a corrupted disk (or an adversarial host) left in the directory.
func (d *Disk) NextIn(lane string) (uint64, []byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nextInLocked(lane)
}

func (d *Disk) nextInLocked(lane string) (uint64, []byte, error) {
	for {
		seq, ok := d.head(lane)
		if !ok {
			return 0, nil, ErrEmpty
		}
		if h, ok := d.heads[lane]; ok && h.seq == seq {
			return seq, h.payload, nil
		}
		raw, err := os.ReadFile(filepath.Join(d.dir, entryName(seq)))
		if err == nil && d.open != nil {
			raw, err = d.open(raw)
		}
		if err != nil {
			d.quarantineLocked(seq)
			continue
		}
		d.heads[lane] = headCache{seq: seq, payload: raw}
		return seq, raw, nil
	}
}

// Lanes lists the lanes that currently hold pending entries, sorted.
func (d *Disk) Lanes() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.names()
}

// LaneLens snapshots every lane's depth under one lock acquisition.
func (d *Disk) LaneLens() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lens()
}

// Ack consumes a delivered entry.
func (d *Disk) Ack(seq uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropLocked(seq)
	if err := os.Remove(filepath.Join(d.dir, entryName(seq))); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("outbox: ack entry %d: %w", seq, err)
	}
	return nil
}

// SenderID returns the queue's persisted sender identity.
func (d *Disk) SenderID() string { return d.sender }

// Quarantined counts entries set aside since (and found at) Open.
func (d *Disk) Quarantined() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.quarantined
}

// Quarantine renames an entry the downstream permanently rejected to its
// .bad name so delivery continues and the operator keeps the evidence.
func (d *Disk) Quarantine(seq uint64, reason error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.quarantineLocked(seq)
	return nil
}

func (d *Disk) quarantineLocked(seq uint64) {
	d.dropLocked(seq)
	d.quarantined++
	path := filepath.Join(d.dir, entryName(seq))
	if err := os.Rename(path, path+quarantineSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		// The entry could not even be set aside; remove it so the queue
		// is not wedged forever.
		os.Remove(path)
	}
}

func (d *Disk) dropLocked(seq uint64) {
	if lane, tracked := d.drop(seq); tracked && d.heads[lane].seq == seq {
		delete(d.heads, lane)
	}
}

// Len counts entries awaiting delivery.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.len()
}

// Memory is the in-memory queue used when no outbox directory is
// configured: delivery is still decoupled from ingress (and retried), but
// entries do not survive the process.
type Memory struct {
	sender string

	mu          sync.Mutex
	entries     map[uint64][]byte
	next        uint64
	quarantined int
	laneIndex
}

// NewMemory builds an empty in-memory queue.
func NewMemory() *Memory {
	id, err := mintSenderID()
	if err != nil {
		// The system randomness source is broken; an empty sender id only
		// disables receiver-side aged-redelivery detection.
		id = ""
	}
	return &Memory{entries: make(map[uint64][]byte), laneIndex: newLaneIndex(), sender: id}
}

// Put implements Queue.
func (m *Memory) Put(payload []byte) (uint64, error) {
	lane := LaneOf(payload)
	m.mu.Lock()
	defer m.mu.Unlock()
	seq := m.next
	m.next++
	m.entries[seq] = payload
	m.add(seq, lane)
	return seq, nil
}

// NextIn implements Queue.
func (m *Memory) NextIn(lane string) (uint64, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seq, ok := m.head(lane)
	if !ok {
		return 0, nil, ErrEmpty
	}
	return seq, m.entries[seq], nil
}

// Lanes implements Queue.
func (m *Memory) Lanes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.names()
}

// LaneLens implements Queue: every lane's depth under one lock
// acquisition.
func (m *Memory) LaneLens() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lens()
}

// Ack implements Queue.
func (m *Memory) Ack(seq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropLocked(seq)
	return nil
}

// Quarantine implements Queue (dropping the entry — there is no disk to
// keep evidence on — but still counting it for the operator surface).
func (m *Memory) Quarantine(seq uint64, reason error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropLocked(seq)
	m.quarantined++
	return nil
}

// Quarantined implements Queue.
func (m *Memory) Quarantined() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.quarantined
}

// SenderID implements Queue.
func (m *Memory) SenderID() string { return m.sender }

func (m *Memory) dropLocked(seq uint64) {
	delete(m.entries, seq)
	m.drop(seq)
}

// Len implements Queue.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
