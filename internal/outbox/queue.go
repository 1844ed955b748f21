package outbox

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// SealFunc encrypts an entry before it touches disk (e.g. under an
// enclave-derived key). Nil stores entries in plaintext.
type SealFunc func(plain []byte) ([]byte, error)

// OpenFunc reverses SealFunc.
type OpenFunc func(sealed []byte) ([]byte, error)

// ErrEmpty is returned by NextIn when the lane holds no deliverable entry.
var ErrEmpty = errors.New("outbox: empty")

// Entry is one pending entry, opened: what the dispatcher hands a
// DeliverFunc. Payload is immutable (see Envelope). Memo belongs to the
// DeliverFunc: the entry waits at its lane's head between retry attempts
// and the memo with it, until the entry is acked or quarantined — so what
// an attempt derives from the payload (a parsed envelope, a wrapped
// request body) is not derived again every backoff tick.
type Entry struct {
	Seq     uint64
	Payload []byte
	Memo    any
}

// lane is one delivery lane's record in the queue's table: its pending
// entries and the dispatcher's retry state for it, guarded by the queue's
// mutex. A lane that drains stays in the table, so its counters describe
// the destination for as long as the queue is open; it leaves the
// queue's active list, so a walk of the lanes holding entries (Start,
// Backlog) scales with those, not with every destination ever seen.
type lane struct {
	name string
	seqs []uint64 // pending entries, ascending: delivery order
	// head is the opened entry at seqs[0], once read: a directory store
	// does not re-read and re-open the same round every backoff tick, and
	// the DeliverFunc's memo lives in it. nil until read, and again once
	// the entry leaves the lane.
	head      *Entry
	running   bool          // the Dispatcher started this lane's goroutine
	wake      chan struct{} // 1-slot: Wake's signal to that goroutine
	busy      bool          // the lane holds a delivery slot
	backoff   time.Duration // delay the last failure scheduled (0 = healthy)
	notBefore time.Time     // next attempt is gated until this instant
	delivered uint64        // entries acknowledged on this lane
	failures  uint64        // transient delivery failures on this lane
}

// Queue is the delivery queue: per-destination-ordered Put/NextIn/Ack,
// quarantine for undeliverable entries and a stable sender identity for
// receiver-side redelivery detection, over a directory store (Open) or a
// map store (NewMemory). An entry is delivered whole — one batch — or not
// at all; there is no partial-delivery state.
//
// Entries are partitioned into lanes keyed by the envelope destination
// (LaneOf), so a dead peer's backlog never blocks deliveries bound for
// the cascade hop, the aggregation server, or a healthy peer. Ordering
// is guaranteed per lane, not across lanes.
//
// At most one Dispatcher may drain a Queue: the lane table holds that
// dispatcher's goroutine flags, wake signals, slots and backoff.
type Queue struct {
	store  store
	seal   SealFunc
	open   OpenFunc
	sender string

	// mu guards everything below. A Dispatcher takes it too — the lane
	// table is its book — and nobody holds it across a delivery attempt.
	mu    sync.Mutex
	next  uint64 // next sequence number to assign
	lanes map[string]*lane
	// active lists the lanes holding entries, sorted by name.
	active []string
	// bySeq maps each pending entry to its lane, so an ack finds it
	// without a search; len(bySeq) is the queue's depth.
	bySeq map[uint64]*lane
	// quarantined counts entries set aside: .bad files found at Open
	// plus quarantines since.
	quarantined int
	// spares holds up to maxSpares acked payloads for NewEntry to build
	// the next entries in, newest last.
	spares [][]byte
}

// maxSpares bounds the acked payloads a queue keeps for reuse: a tier
// commits about one entry per destination per round, so two cover the
// round being built while the last one's buffer is still on its way
// back, and what the queue pins stays two entries' worth, each bounded
// by the receiver's read bound.
const maxSpares = 2

// poisonSpares overwrites an acked payload as it becomes a spare, so a
// holder that kept a slice of it past its delivery reads garbage at once
// instead of a later round some day. On under the race detector; tests
// turn it on in any build.
var poisonSpares = raceEnabled

func newQueue(s store, seal SealFunc, open OpenFunc) *Queue {
	return &Queue{store: s, seal: seal, open: open, lanes: make(map[string]*lane), bySeq: make(map[uint64]*lane)}
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
func Open(dir string, seal SealFunc, open OpenFunc) (*Queue, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("outbox: create dir: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("outbox: scan dir: %w", err)
	}
	q := newQueue(dirStore{dir}, seal, open)
	var seqs []uint64 // carried-over entries
	for _, de := range names {
		name := de.Name()
		if strings.HasSuffix(name, quarantineSuffix) {
			q.quarantined++
			// A quarantined entry's sequence number is still consumed:
			// the receiver may have recorded it in its watermark.
			var seq uint64
			if _, err := fmt.Sscanf(name, "ob-%016x", &seq); err == nil && seq >= q.next {
				q.next = seq + 1
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
		if seq >= q.next {
			q.next = seq + 1
		}
	}
	slices.Sort(seqs)
	// The persisted counter wins over anything derived from surviving
	// files: acknowledged entries leave no .ent witness, but their
	// sequence numbers are burned at the receivers.
	if raw, err := os.ReadFile(filepath.Join(dir, seqFile)); err == nil {
		var next uint64
		if _, err := fmt.Sscanf(strings.TrimSpace(string(raw)), "%d", &next); err == nil && next > q.next {
			q.next = next
		}
	}
	// Rebuild the lane table: each carried-over entry is opened once to
	// read its envelope destination. Entries that fail to read or unseal
	// here would fail identically at delivery time, so they are
	// quarantined now instead of wedging a lane later; the opened payloads
	// are NOT retained (a restart after a long outage could hold many
	// rounds) — only the lane label is.
	for _, seq := range seqs {
		raw, err := q.read(seq)
		if err != nil {
			q.quarantineLocked(seq)
			continue
		}
		q.file(seq, LaneOf(raw))
	}
	if q.sender, err = loadSenderID(dir); err != nil {
		return nil, err
	}
	if q.quarantined > 0 {
		log.Printf("outbox: WARNING: %d quarantined entries (%s files) in %s — rounds that left the delivery path; inspect and re-inject or discard", q.quarantined, quarantineSuffix, dir)
	}
	return q, nil
}

// NewMemory builds an empty queue over a map store.
func NewMemory() *Queue {
	q := newQueue(mapStore{}, nil, nil)
	// A broken system randomness source leaves the id empty, which only
	// disables receiver-side aged-redelivery detection.
	q.sender, _ = mintSenderID()
	return q
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

// NewEntry starts an entry like NewEntryBuilder, in a spare when the
// queue holds one of size to 2·size bytes: the payload of an entry Ack
// consumed, so steady rounds of a steady size are built without
// allocating.
func (q *Queue) NewEntry(hdr Envelope, size int) (*EntryBuilder, error) {
	var buf []byte
	q.mu.Lock()
	for i := len(q.spares) - 1; i >= 0; i-- {
		if c := cap(q.spares[i]); size <= c && c <= 2*size {
			buf = q.spares[i]
			q.spares = slices.Delete(q.spares, i, i+1)
			break
		}
	}
	q.mu.Unlock()
	if buf == nil {
		buf = make([]byte, 0, size)
	}
	return buildEntry(buf, hdr)
}

// Put commits one entry and returns its sequence number. The entry is
// sealed first and, in a directory store, durable before Put returns. It
// joins the lane named by its envelope destination (LaneOf). Put takes
// ownership of payload: the caller must not touch it again, whatever Put
// returns.
func (q *Queue) Put(payload []byte) (uint64, error) {
	// The lane is read from the plaintext header, before sealing hides it.
	name := LaneOf(payload)
	if q.seal != nil {
		var err error
		if payload, err = q.seal(payload); err != nil {
			return 0, fmt.Errorf("outbox: seal entry: %w", err)
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	seq := q.next
	if err := q.store.put(seq, payload); err != nil {
		return 0, err
	}
	q.next = seq + 1
	q.file(seq, name)
	return seq, nil
}

// NextIn returns the oldest entry of one lane, opened. Entries that fail
// to read or unseal are quarantined and skipped, so the lane drains past
// garbage a corrupted disk (or an adversarial host) left in the directory.
// ErrEmpty when the lane is drained.
func (q *Queue) NextIn(lane string) (uint64, []byte, error) {
	e := q.head(lane)
	if e == nil {
		return 0, nil, ErrEmpty
	}
	return e.Seq, e.Payload, nil
}

// head returns a lane's head entry, opening it on first use; nil when the
// lane holds no deliverable entry.
func (q *Queue) head(name string) *Entry {
	q.mu.Lock()
	defer q.mu.Unlock()
	l := q.lanes[name]
	for l != nil && len(l.seqs) > 0 {
		if l.head != nil {
			return l.head
		}
		seq := l.seqs[0]
		payload, err := q.read(seq)
		if err != nil {
			q.quarantineLocked(seq)
			continue
		}
		l.head = &Entry{Seq: seq, Payload: payload}
		return l.head
	}
	return nil
}

// Ack consumes a delivered entry and counts it delivered on its lane, in
// one critical section: a LaneStats snapshot sees the entry pending or
// delivered, never both and never neither. When the entry was its lane's
// opened head, its payload becomes a spare for NewEntry: whoever
// delivered it must hold no slice of it any more — nor may anything the
// delivery handed it to, which the Transport contract guarantees once
// the send returned.
func (q *Queue) Ack(seq uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	var payload []byte
	if l := q.bySeq[seq]; l != nil && l.head != nil && l.head.Seq == seq {
		payload = l.head.Payload
	}
	if l := q.dropLocked(seq); l != nil {
		l.delivered++
	}
	if err := q.store.remove(seq); err != nil {
		return fmt.Errorf("outbox: ack entry %d: %w", seq, err)
	}
	if cap(payload) > 0 {
		if poisonSpares {
			for i := range payload {
				payload[i] = 0xA5
			}
		}
		if len(q.spares) == maxSpares {
			q.spares = slices.Delete(q.spares, 0, 1)
		}
		q.spares = append(q.spares, payload[:0])
	}
	return nil
}

// Quarantine sets aside an entry the receiver permanently rejected, so
// delivery continues: a directory store renames it to its .bad name and
// the operator keeps the evidence; a map store drops it. Either way it is
// counted for the operator surface.
func (q *Queue) Quarantine(seq uint64, reason error) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.quarantineLocked(seq)
	return nil
}

func (q *Queue) quarantineLocked(seq uint64) {
	q.dropLocked(seq)
	q.quarantined++
	q.store.quarantine(seq)
}

// Len counts entries awaiting delivery.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.bySeq)
}

// Quarantined counts entries set aside since the queue was opened,
// including .bad files a previous process left in the directory — the
// operator surface for material that left the delivery path.
func (q *Queue) Quarantined() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.quarantined
}

// SenderID is the queue's stable identity (persisted beside a directory
// store, random per process for a map store). Receivers use it with the
// entry sequence number to recognise stale redeliveries that have aged
// out of their dedup window.
func (q *Queue) SenderID() string { return q.sender }

// read returns an entry's bytes from the store, opened.
func (q *Queue) read(seq uint64) ([]byte, error) {
	raw, err := q.store.get(seq)
	if err == nil && q.open != nil {
		raw, err = q.open(raw)
	}
	return raw, err
}

// file appends seq to its lane (seqs are assigned ascending), adding the
// lane to the table on first use and to the active list when it was
// drained.
func (q *Queue) file(seq uint64, name string) {
	l := q.lanes[name]
	if l == nil {
		l = &lane{name: name, wake: make(chan struct{}, 1)}
		q.lanes[name] = l
	}
	if len(l.seqs) == 0 {
		i, _ := slices.BinarySearch(q.active, name)
		q.active = slices.Insert(q.active, i, name)
	}
	l.seqs = append(l.seqs, seq)
	q.bySeq[seq] = l
}

// dropLocked takes seq out of its lane — and the lane's head with it,
// and the lane out of the active list once drained — and returns the
// lane; nil when seq is not pending.
func (q *Queue) dropLocked(seq uint64) *lane {
	l := q.bySeq[seq]
	if l == nil {
		return nil
	}
	delete(q.bySeq, seq)
	// Delivery takes the head, so the search is almost always i == 0.
	i, _ := slices.BinarySearch(l.seqs, seq)
	l.seqs = slices.Delete(l.seqs, i, i+1)
	if i == 0 {
		l.head = nil
	}
	if len(l.seqs) == 0 {
		j, _ := slices.BinarySearch(q.active, l.name)
		q.active = slices.Delete(q.active, j, j+1)
	}
	return l
}

// store keeps entries' (sealed) bytes by sequence number. The Queue owns
// ordering, lanes and the lock, and calls a store only while holding it.
type store interface {
	// put commits an entry: once it returns nil, get finds it.
	put(seq uint64, data []byte) error
	get(seq uint64) ([]byte, error)
	// remove deletes a delivered entry.
	remove(seq uint64) error
	// quarantine sets aside an entry that cannot be delivered.
	quarantine(seq uint64)
}

// mapStore keeps entries in memory: delivery is still decoupled from
// ingress (and retried), but entries do not survive the process, and a
// quarantined entry is dropped — there is no disk to keep evidence on.
type mapStore map[uint64][]byte

func (m mapStore) put(seq uint64, data []byte) error { m[seq] = data; return nil }
func (m mapStore) get(seq uint64) ([]byte, error)    { return m[seq], nil }
func (m mapStore) remove(seq uint64) error           { delete(m, seq); return nil }
func (m mapStore) quarantine(seq uint64)             { delete(m, seq) }

// dirStore is the durable store: one file per entry in dir (see the
// package doc), beside sender.id and seq.next.
type dirStore struct{ dir string }

func (d dirStore) path(seq uint64) string { return filepath.Join(d.dir, entryName(seq)) }

// put commits via tmp-file + rename, so a crash or full disk mid-write
// cannot leave a truncated entry where a good one should be.
func (d dirStore) put(seq uint64, data []byte) error {
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
	path := d.path(seq)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o600); err != nil {
		return fmt.Errorf("outbox: write entry: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("outbox: commit entry: %w", err)
	}
	return nil
}

func (d dirStore) get(seq uint64) ([]byte, error) { return os.ReadFile(d.path(seq)) }

func (d dirStore) remove(seq uint64) error {
	if err := os.Remove(d.path(seq)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

func (d dirStore) quarantine(seq uint64) {
	path := d.path(seq)
	if err := os.Rename(path, path+quarantineSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		// The entry could not even be set aside; remove it so the queue
		// is not wedged forever.
		os.Remove(path)
	}
}
