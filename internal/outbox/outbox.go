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
// There is one queue type (queue.go) over two stores: a directory (Open)
// and a map (NewMemory, for a tier without an outbox directory — still
// asynchronous and retried, not crash-durable). The queue writes Put,
// NextIn, Ack and Quarantine once; a store only keeps bytes by sequence
// number. The queue's lane table is also the dispatcher's book: a lane's
// pending entries, its opened head entry (which carries the deliverer's
// memo until the entry is acked or quarantined) and its retry state sit
// in one record under the queue's one mutex, so the dispatcher keeps
// only its goroutines, channels and lifetime.
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
	"encoding/binary"
	"fmt"

	"mixnn/internal/wire"
)

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
//	tail — a complete wire.BatchEnvelope body of the updates (each an
//	       encoded nn.ParamSet, opaque here), written by wire.BatchWriter
//	       and read by wire.DecodeBatchEnvelope, so the /v1/batch request
//	       body is a sub-slice of the entry instead of a re-encoded copy
//
// Ownership: an entry's bytes are IMMUTABLE from Put to Ack. The parsed
// Updates and Batch alias the payload handed to ParseEnvelope, a
// deliverer memoises them in the lane head's Entry.Memo across retries,
// and Loopback hands request
// bodies to the receiver without copying — so neither the sender nor a
// receiver may decrypt, decode or otherwise write in place over them.
// Ack ends that: the acked payload becomes the queue's to reuse for a
// later entry (Queue.NewEntry), so nothing may hold a slice of it past
// the delivery that Ack acknowledges.
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

	// envelopeVersion is the entry format Marshal and Queue.NewEntry
	// write and the only one ParseEnvelope reads; versions 1 and 2 are
	// refused by name (parseHeader).
	envelopeVersion = 3

	// maxEnvelopeDestBytes bounds the destination address (entries cross
	// the sealing boundary, so parse limits guard allocations).
	maxEnvelopeDestBytes = 1 << 10

	// envelopeFixedHeader is magic + version + epoch + topoVer + hop +
	// destLen; the destination follows it.
	envelopeFixedHeader = 4 + 4 + 8 + 8 + 4 + 2
)

// EntrySize returns the exact size of an entry addressed to dest that
// carries count updates of payloadBytes encoded bytes in total.
func EntrySize(dest string, count, payloadBytes int) int {
	return envelopeFixedHeader + len(dest) + wire.BatchSize(count, payloadBytes)
}

// buildEntry writes the header of an entry with hdr's epoch, topology
// version, hop and destination over buf's storage (hdr.Updates and
// hdr.Batch are ignored) and starts its tail. The producer appends the
// updates to the returned writer, and its Finish is the whole entry.
func buildEntry(buf []byte, hdr Envelope) (wire.BatchWriter, error) {
	if hdr.Hop < 0 {
		return wire.BatchWriter{}, fmt.Errorf("outbox: negative hop %d", hdr.Hop)
	}
	if len(hdr.Dest) > maxEnvelopeDestBytes {
		return wire.BatchWriter{}, fmt.Errorf("outbox: destination exceeds %d bytes", maxEnvelopeDestBytes)
	}
	buf = append(buf[:0], envelopeMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, envelopeVersion)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.TopoVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hdr.Hop))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(hdr.Dest)))
	buf = append(buf, hdr.Dest...)
	return wire.StartBatch(buf), nil
}

// Marshal encodes the envelope (current version) into one exactly-sized
// allocation.
func (e *Envelope) Marshal() ([]byte, error) {
	payload := 0
	for _, u := range e.Updates {
		payload += len(u)
	}
	b, err := buildEntry(make([]byte, 0, EntrySize(e.Dest, len(e.Updates), payload)), *e)
	if err != nil {
		return nil, err
	}
	for _, u := range e.Updates {
		if err := b.Append(func(buf []byte) ([]byte, error) { return append(buf, u...), nil }); err != nil {
			return nil, err
		}
	}
	return b.Finish(), nil
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
	case envelopeVersion:
	case 1, 2:
		return env, nil, 0, fmt.Errorf("outbox: entry version %d is no longer supported, want %d; finish it with the release that wrote it", version, envelopeVersion)
	default:
		return env, nil, 0, fmt.Errorf("outbox: entry version %d, want %d", version, envelopeVersion)
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

// emptyTail is the tail of an entry without updates: the batch body the
// writer finishes with none. DecodeBatchEnvelope refuses it (nothing is
// sent for an empty share), so ParseEnvelope recognises it first.
var emptyTail = func() string {
	w := wire.StartBatch(nil)
	return string(w.Finish())
}()

// ParseEnvelope decodes an entry payload (version 3 only), validating
// structure before allocating. The result ALIASES data — Updates and
// Batch are sub-slices of it, not copies — so data must stay unmodified
// for as long as the envelope is in use (see Envelope). The only
// allocations are the envelope, its destination string and one slice of
// update headers. An entry without updates parses with none and a nil
// Batch.
func ParseEnvelope(data []byte) (*Envelope, error) {
	hdr, dest, off, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	env := &hdr
	env.Dest = string(dest)
	if tail := data[off:len(data):len(data)]; string(tail) != emptyTail {
		batch, err := wire.DecodeBatchEnvelope(tail)
		if err != nil {
			return nil, fmt.Errorf("outbox: entry tail: %w", err)
		}
		env.Updates, env.Batch = batch.Updates, tail
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
