package outbox

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testEnvelope(epoch uint64, items ...string) []byte {
	env := Envelope{Epoch: epoch, Hop: 1}
	for _, it := range items {
		env.Updates = append(env.Updates, []byte(it))
	}
	raw, err := env.Marshal()
	if err != nil {
		panic(err)
	}
	return raw
}

func TestDeliveryEnvelopeRoundTrip(t *testing.T) {
	raw := testEnvelope(7, "alpha", "beta", "")
	env, err := ParseEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	if env.Epoch != 7 || env.Hop != 1 || len(env.Updates) != 3 {
		t.Fatalf("parsed envelope = %+v", env)
	}
	if string(env.Updates[0]) != "alpha" || string(env.Updates[1]) != "beta" || len(env.Updates[2]) != 0 {
		t.Fatalf("updates = %q", env.Updates)
	}
}

func TestDeliveryEnvelopeRejectsGarbage(t *testing.T) {
	good := testEnvelope(1, "payload")
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("ZZZZ"), good[4:]...),
		"bad version":    func() []byte { b := append([]byte(nil), good...); b[4] = 0xEE; return b }(),
		"truncated":      good[:len(good)-3],
		"bad tail magic": func() []byte { b := append([]byte(nil), good...); b[30] = 'Z'; return b }(),
		"trailing":       append(append([]byte(nil), good...), 0x01),
		"forged count": func() []byte {
			b := append([]byte(nil), good...)
			// count sits after magic(4)+version(4)+epoch(8)+topoVer(8)+
			// hop(4)+destLen(2)+dest(0)+batch magic(4)+batch version(1)
			b[35], b[36], b[37], b[38] = 0xFF, 0xFF, 0x0F, 0x00
			return b
		}(),
		"forged dest length": func() []byte {
			b := append([]byte(nil), good...)
			// destLen sits after magic(4)+version(4)+epoch(8)+topoVer(8)+hop(4)
			b[28], b[29] = 0xFF, 0xFF
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := ParseEnvelope(data); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// xorSeal is a stand-in for the enclave sealing hook: enough to prove the
// queue round-trips through Seal/Open and that a foreign-keyed entry is
// rejected at open time.
func xorSeal(key byte) (SealFunc, OpenFunc) {
	xor := func(data []byte) ([]byte, error) {
		out := make([]byte, len(data)+1)
		for i, b := range data {
			out[i] = b ^ key
		}
		out[len(data)] = key // trailing "tag" so the wrong key fails loudly
		return out, nil
	}
	open := func(data []byte) ([]byte, error) {
		if len(data) == 0 || data[len(data)-1] != key {
			return nil, errors.New("xorSeal: authentication failed")
		}
		out := make([]byte, len(data)-1)
		for i := range out {
			out[i] = data[i] ^ key
		}
		return out, nil
	}
	return xor, open
}

func TestDeliveryDiskQueueOrderAndPersistence(t *testing.T) {
	dir := t.TempDir()
	seal, open := xorSeal(0x5A)
	q, err := Open(dir, seal, open)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := q.Put(testEnvelope(uint64(i), fmt.Sprintf("round-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d, want 3", q.Len())
	}
	seq, raw, err := q.NextIn("")
	if err != nil {
		t.Fatal(err)
	}
	env, err := ParseEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	if env.Epoch != 0 {
		t.Fatalf("first entry epoch = %d, want 0 (FIFO)", env.Epoch)
	}
	if err := q.Ack(seq); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same directory sees the remaining entries
	// in order and continues the sequence — crash durability.
	q2, err := Open(dir, seal, open)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 2 {
		t.Fatalf("reopened len = %d, want 2", q2.Len())
	}
	if id := q2.SenderID(); id == "" || id != q.SenderID() {
		t.Fatalf("sender id changed across reopen: %q vs %q", id, q.SenderID())
	}
	_, raw, err = q2.NextIn("")
	if err != nil {
		t.Fatal(err)
	}
	if env, _ := ParseEnvelope(raw); env.Epoch != 1 {
		t.Fatalf("reopened head epoch = %d, want 1", env.Epoch)
	}
	if seq, err := q2.Put(testEnvelope(9)); err != nil || seq != 3 {
		t.Fatalf("reopened Put seq = %d (%v), want 3", seq, err)
	}
}

// TestDeliveryDiskQueueGarbageRobustness is the outbox half of the
// garbage-robustness satellite: truncated, bit-flipped and foreign-keyed
// entries are quarantined (renamed, not deleted) and the queue keeps
// draining the good ones.
func TestDeliveryDiskQueueGarbageRobustness(t *testing.T) {
	dir := t.TempDir()
	seal, open := xorSeal(0x21)
	q, err := Open(dir, seal, open)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Put(testEnvelope(0, "good-0")); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Put(testEnvelope(1, "sacrificial")); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Put(testEnvelope(2, "good-2")); err != nil {
		t.Fatal(err)
	}

	// Corrupt entry 1 on disk: flip a byte inside the sealed payload.
	path := filepath.Join(dir, entryName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	// Plant a truncated entry and a foreign-keyed entry ahead of the tail.
	foreignSeal, _ := xorSeal(0x99)
	foreign, _ := foreignSeal(testEnvelope(3, "foreign"))
	if err := os.WriteFile(filepath.Join(dir, entryName(3)), foreign, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, entryName(4)), []byte{0x01}, 0o600); err != nil {
		t.Fatal(err)
	}

	// Reopen (as a restarted proxy would) so the planted files are indexed.
	q, err = Open(dir, seal, open)
	if err != nil {
		t.Fatal(err)
	}
	var epochs []uint64
	for {
		seq, raw, err := q.NextIn("")
		if errors.Is(err, ErrEmpty) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		env, err := ParseEnvelope(raw)
		if err != nil {
			t.Fatalf("Next returned an unparseable entry: %v", err)
		}
		epochs = append(epochs, env.Epoch)
		if err := q.Ack(seq); err != nil {
			t.Fatal(err)
		}
	}
	if len(epochs) != 2 || epochs[0] != 0 || epochs[1] != 2 {
		t.Fatalf("drained epochs %v, want [0 2] (corrupt entries skipped)", epochs)
	}
	// The rejects were quarantined by rename, not deleted.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), quarantineSuffix) {
			bad++
		}
	}
	if bad != 3 {
		t.Fatalf("%d quarantined files, want 3 (bit-flipped, foreign, truncated)", bad)
	}
	// A fresh Open over the quarantined directory must not index the
	// .bad leftovers as phantom pending entries.
	q3, err := Open(dir, seal, open)
	if err != nil {
		t.Fatal(err)
	}
	if q3.Len() != 0 {
		t.Fatalf("reopened quarantined dir reports %d pending entries, want 0", q3.Len())
	}
}

func TestDeliveryDispatcherDrainRetryQuarantine(t *testing.T) {
	q := NewMemory()
	var (
		mu        sync.Mutex
		delivered []uint64
		fails     = map[uint64]int{1: 2} // entry 1 fails twice, then succeeds
	)
	d := NewDispatcher(q, func(ctx context.Context, e *Entry) error {
		seq, payload := e.Seq, e.Payload
		mu.Lock()
		defer mu.Unlock()
		if bytes.Contains(payload, []byte("poison")) {
			return Permanent(errors.New("downstream rejected"))
		}
		if fails[seq] > 0 {
			fails[seq]--
			return errors.New("transient outage")
		}
		delivered = append(delivered, seq)
		return nil
	}, Options{RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond})
	d.Start()
	defer d.Close()

	for i := 0; i < 3; i++ {
		if _, err := q.Put(testEnvelope(uint64(i), "ok")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Put([]byte("poison pill")); err != nil {
		t.Fatal(err)
	}
	d.Wake()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != 3 {
		t.Fatalf("delivered %v, want the 3 good entries", delivered)
	}
	// In-order: retries must not let a later entry overtake an earlier one.
	for i, seq := range delivered {
		if seq != uint64(i) {
			t.Fatalf("delivery order %v, want [0 1 2]", delivered)
		}
	}
}

func TestDeliveryDispatcherCloseStopsRetrying(t *testing.T) {
	q := NewMemory()
	attempts := make(chan struct{}, 64)
	d := NewDispatcher(q, func(ctx context.Context, e *Entry) error {
		attempts <- struct{}{}
		return errors.New("always down")
	}, Options{RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond})
	d.Start()
	if _, err := q.Put(testEnvelope(0, "stuck")); err != nil {
		t.Fatal(err)
	}
	d.Wake()
	<-attempts // at least one attempt happened
	d.Close()
	// After Close the entry is still queued (durability) and no further
	// attempts arrive.
	if q.Len() != 1 {
		t.Fatalf("queue len after close = %d, want 1", q.Len())
	}
	drained := len(attempts)
	time.Sleep(10 * time.Millisecond)
	if len(attempts) != drained {
		t.Fatal("dispatcher kept delivering after Close")
	}
	d.Close() // idempotent
}

func TestDeliveryEnvelopeDestTopoRoundTrip(t *testing.T) {
	env := Envelope{Epoch: 3, TopoVersion: 7, Hop: 2, Dest: "http://shard-b:8443",
		Updates: [][]byte{[]byte("u1"), []byte("u2")}}
	raw, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || got.TopoVersion != 7 || got.Hop != 2 || got.Dest != env.Dest || len(got.Updates) != 2 {
		t.Fatalf("parsed = %+v", got)
	}
}

// TestOpenRefusesProgressSidecar: a directory holding a per-update
// delivery marker of a pre-batch release is refused — its entry was
// partly delivered, and sending it whole would double-count — and opens
// again once the marker is gone.
func TestOpenRefusesProgressSidecar(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := d.Put(testEnvelope(1, "a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	marker := filepath.Join(dir, fmt.Sprintf("ob-%016x.prog", seq))
	if err := os.WriteFile(marker, []byte("2\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, nil, nil)
	if err == nil {
		t.Fatal("Open accepted a directory with a progress sidecar")
	}
	for _, want := range []string{filepath.Base(marker), "count the confirmed updates twice", "finish it with the release that wrote it"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not mention %q", err, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, entryName(seq))); err != nil {
		t.Fatalf("the refused open disturbed the entry: %v", err)
	}
	if err := os.Remove(marker); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatalf("reopen without the marker: %v", err)
	}
	if d2.Len() != 1 {
		t.Fatalf("reopened len = %d, want 1", d2.Len())
	}
}

// TestDeliveryQuarantinedCounting: counts accumulate from leftovers and
// live quarantines, over both stores.
func TestDeliveryQuarantinedCounting(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ob-00000000000000aa.ent.bad"), []byte("junk"), 0o600); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Quarantined() != 1 {
		t.Fatalf("leftover .bad not counted: %d", d.Quarantined())
	}
	seq, err := d.Put(testEnvelope(1, "x"))
	if err != nil {
		t.Fatal(err)
	}
	d.Quarantine(seq, errors.New("rejected"))
	if d.Quarantined() != 2 {
		t.Fatalf("live quarantine not counted: %d", d.Quarantined())
	}

	m := NewMemory()
	if m.SenderID() == "" {
		t.Fatal("memory queue has no sender id")
	}
	mseq, _ := m.Put([]byte("y"))
	m.Quarantine(mseq, errors.New("rejected"))
	if m.Quarantined() != 1 || m.Len() != 0 {
		t.Fatalf("memory quarantine: count=%d len=%d", m.Quarantined(), m.Len())
	}
}

// TestDeliveryQueueReusesAckedEntries: the payload of an acked lane head
// becomes a spare — poisoned first when poisoning is on — and NewEntry
// builds the next entry of a fitting size in it; a spare more than twice
// the size asked for is left alone, a too-small one cannot serve, and the
// queue keeps at most maxSpares of them.
func TestDeliveryQueueReusesAckedEntries(t *testing.T) {
	PoisonSpares(t)
	q := NewMemory()
	build := func(item string) []byte {
		b, err := q.NewEntry(Envelope{Epoch: 1, Hop: 1}, EntrySize("", 1, len(item)))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Append(func(buf []byte) ([]byte, error) { return append(buf, item...), nil }); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	deliver := func(raw []byte) {
		seq, err := q.Put(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := q.NextIn(""); err != nil { // the dispatcher opens the head first
			t.Fatal(err)
		}
		if err := q.Ack(seq); err != nil {
			t.Fatal(err)
		}
	}
	same := func(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }

	round := func(c byte) string { return strings.Repeat(string(c), 100) }
	first := build(round('1'))
	deliver(first)
	if !bytes.Equal(first, bytes.Repeat([]byte{0xA5}, len(first))) {
		t.Fatal("an acked payload became a spare without being poisoned")
	}
	second := build(round('2'))
	if !same(second, first) {
		t.Fatal("NewEntry allocated although an acked entry of the same size was spare")
	}
	if env, err := ParseEnvelope(second); err != nil || string(env.Updates[0]) != round('2') {
		t.Fatalf("the entry built in a spare does not parse back: %v", err)
	}
	deliver(second)
	big := build(strings.Repeat("x", 4*len(second)))
	if same(big, second) {
		t.Fatal("NewEntry built a larger entry in a spare too small for it")
	}
	small := build("")
	if same(small, second) {
		t.Fatal("NewEntry built an entry in a spare more than twice its size")
	}
	deliver(big)
	deliver(small)
	deliver(build(round('3')))
	if n := len(q.spares); n != maxSpares {
		t.Fatalf("the queue keeps %d spares, want %d", n, maxSpares)
	}
}

// TestDeliverySeqNeverReused pins the watermark-safety invariant: a
// restart over a fully-drained (or quarantined-at-head) directory must
// NOT recycle sequence numbers — receivers key their stale-redelivery
// watermark on (sender, seq), so a reused pair would make fresh rounds
// look like stale duplicates and lose them.
func TestDeliverySeqNeverReused(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		seq, err := d.Put(testEnvelope(uint64(i), "x"))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Ack(seq); err != nil { // fully drained: no .ent witness left
			t.Fatal(err)
		}
	}
	d2, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := d2.Put(testEnvelope(9, "y"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("post-restart seq = %d, want 3 (sequence numbers must never be reused)", seq)
	}
	// Quarantine the head (the only entry), restart again: the .bad
	// witness alone must keep the counter monotone even without seq.next.
	d2.Quarantine(seq, errors.New("rejected"))
	os.Remove(filepath.Join(dir, seqFile))
	d3, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq, err = d3.Put(testEnvelope(10, "z")); err != nil || seq != 4 {
		t.Fatalf("post-quarantine seq = %d (%v), want 4", seq, err)
	}
}
