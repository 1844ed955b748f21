package outbox

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testEnvelopeDest(epoch uint64, dest string, items ...string) []byte {
	env := Envelope{Epoch: epoch, Hop: 1, Dest: dest, TopoVersion: 1}
	for _, it := range items {
		env.Updates = append(env.Updates, []byte(it))
	}
	raw, err := env.Marshal()
	if err != nil {
		panic(err)
	}
	return raw
}

func TestDeliveryLaneOf(t *testing.T) {
	if lane := LaneOf(testEnvelopeDest(3, "http://peer-a", "u")); lane != "http://peer-a" {
		t.Fatalf("LaneOf = %q, want the envelope dest", lane)
	}
	if lane := LaneOf(testEnvelope(3, "u")); lane != "" {
		t.Fatalf("LaneOf of a destless envelope = %q, want \"\"", lane)
	}
	// v1 envelopes and non-envelope payloads carry no destination: both
	// must land in the default lane rather than error.
	if lane := LaneOf([]byte("not an envelope at all")); lane != "" {
		t.Fatalf("LaneOf of garbage = %q, want \"\"", lane)
	}
	if lane := LaneOf(nil); lane != "" {
		t.Fatalf("LaneOf(nil) = %q, want \"\"", lane)
	}
}

// depths reads every lane's pending count out of the queue's lane table
// in one critical section; drained lanes are left out.
func depths(q *Queue) map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int)
	for name, l := range q.lanes {
		if len(l.seqs) > 0 {
			out[name] = len(l.seqs)
		}
	}
	return out
}

// checkActive asserts the lanes holding entries, in the order the
// dispatcher hands them out: sorted by name.
func checkActive(t *testing.T, q *Queue, want ...string) {
	t.Helper()
	q.mu.Lock()
	got := slices.Clone(q.active)
	q.mu.Unlock()
	if !slices.Equal(got, want) {
		t.Fatalf("active lanes = %q, want %q", got, want)
	}
}

// TestDeliveryLaneQueueOrderAndRebuild drives the queue's lane
// partitioning over both stores: per-lane FIFO order and lane bookkeeping
// across Ack and Quarantine; then, for the directory store, the lane
// table surviving a reopen (it is rebuilt from the envelope headers, not
// persisted separately).
func TestDeliveryLaneQueueOrderAndRebuild(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ob")
	disk, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, tc := range []struct {
		store string
		q     *Queue
	}{{"map", NewMemory()}, {"directory", disk}} {
		t.Run(tc.store, func(t *testing.T) { seqs = checkLaneOrder(t, tc.q) })
	}
	if t.Failed() {
		return
	}

	// Reopen: the lane table is rebuilt from disk. peer-a is gone (both
	// entries acked), peer-c's entry is a counted .bad file; the other
	// lanes carry over in order.
	q2, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkActive(t, q2, "", "peer-b")
	if n := depths(q2)["peer-a"]; n != 0 {
		t.Fatalf("reopened LaneLen(peer-a) = %d, want 0", n)
	}
	if n := depths(q2)[""]; n != 3 {
		t.Fatalf("reopened LaneLen(\"\") = %d, want 3", n)
	}
	if n := q2.Quarantined(); n != 1 {
		t.Fatalf("reopened Quarantined() = %d, want the 1 .bad file", n)
	}
	if seq, _, err := q2.NextIn("peer-b"); err != nil || seq != seqs[6] {
		t.Fatalf("reopened peer-b head = seq %d err %v, want %d", seq, err, seqs[6])
	}
	var drained []uint64
	for {
		seq, _, err := q2.NextIn("")
		if errors.Is(err, ErrEmpty) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		drained = append(drained, seq)
		if err := q2.Ack(seq); err != nil {
			t.Fatal(err)
		}
	}
	want := []uint64{seqs[0], seqs[2], seqs[5]}
	if len(drained) != len(want) {
		t.Fatalf("downstream drain = %v, want %v", drained, want)
	}
	for i := range want {
		if drained[i] != want[i] {
			t.Fatalf("downstream drain = %v, want %v", drained, want)
		}
	}
}

// checkLaneOrder is the store-independent half of
// TestDeliveryLaneQueueOrderAndRebuild: it interleaves four lanes, acks
// peer-a's two entries and quarantines peer-c's one, and returns the
// sequence numbers Put assigned.
func checkLaneOrder(t *testing.T, q *Queue) []uint64 {
	t.Helper()
	// Interleave four lanes: "" (downstream), peer-a, peer-b, peer-c.
	// peer-c is first seen before peer-b: the active list is sorted by
	// name, not by arrival.
	lanesIn := []string{"", "peer-a", "", "peer-c", "peer-a", "", "peer-b"}
	seqs := make([]uint64, len(lanesIn))
	for i, lane := range lanesIn {
		var err error
		if seqs[i], err = q.Put(testEnvelopeDest(uint64(i), lane, fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	checkActive(t, q, "", "peer-a", "peer-b", "peer-c")
	wantDepths := map[string]int{"": 3, "peer-a": 2, "peer-b": 1, "peer-c": 1}
	if got := depths(q); !maps.Equal(got, wantDepths) {
		t.Fatalf("lane depths = %v, want %v", got, wantDepths)
	}
	// NextIn must return peer-a's entries in Put order without consuming
	// the other lanes' heads.
	seq, payload, err := q.NextIn("peer-a")
	if err != nil {
		t.Fatal(err)
	}
	if seq != seqs[1] {
		t.Fatalf("peer-a head = seq %d, want %d", seq, seqs[1])
	}
	env, err := ParseEnvelope(payload)
	if err != nil {
		t.Fatal(err)
	}
	if env.Epoch != 1 {
		t.Fatalf("peer-a head epoch = %d, want 1", env.Epoch)
	}
	if err := q.Ack(seq); err != nil {
		t.Fatal(err)
	}
	if seq, _, err = q.NextIn("peer-a"); err != nil || seq != seqs[4] {
		t.Fatalf("peer-a next = seq %d err %v, want %d", seq, err, seqs[4])
	}
	// The downstream lane is untouched by peer-a's progress.
	if seq, _, err = q.NextIn(""); err != nil || seq != seqs[0] {
		t.Fatalf("downstream head = seq %d err %v, want %d", seq, err, seqs[0])
	}
	// A drained lane reports ErrEmpty, not another lane's entries.
	if err := q.Ack(seqs[4]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.NextIn("peer-a"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("drained lane error = %v, want ErrEmpty", err)
	}
	// A quarantined head leaves its lane (and no other) and is counted.
	if seq, _, err = q.NextIn("peer-c"); err != nil || seq != seqs[3] {
		t.Fatalf("peer-c head = seq %d err %v, want %d", seq, err, seqs[3])
	}
	if err := q.Quarantine(seq, errors.New("rejected")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.NextIn("peer-c"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("quarantined lane error = %v, want ErrEmpty", err)
	}
	wantDepths = map[string]int{"": 3, "peer-b": 1}
	if got := depths(q); !maps.Equal(got, wantDepths) || q.Len() != 4 || q.Quarantined() != 1 {
		t.Fatalf("after ack and quarantine: depths %v, len %d, quarantined %d; want %v, 4, 1", got, q.Len(), q.Quarantined(), wantDepths)
	}
	checkActive(t, q, "", "peer-b")
	// LaneStats still lists the drained lanes, sorted, with their counts.
	d := NewDispatcher(q, nil, Options{})
	defer d.Close()
	var stats []string
	for _, ls := range d.LaneStats() {
		stats = append(stats, fmt.Sprintf("%q:%d/%d", ls.Lane, ls.Pending, ls.Delivered))
	}
	if want := []string{`"":3/0`, `"peer-a":0/2`, `"peer-b":1/0`, `"peer-c":0/0`}; !slices.Equal(stats, want) {
		t.Fatalf("LaneStats = %v, want %v", stats, want)
	}
	return seqs
}

// TestDeliveryDispatcherLaneIsolation is the package-level half of the
// head-of-line-blocking fix: a lane whose destination is down keeps
// failing while every other lane drains to completion, and the dead
// lane's backlog delivers in order once the destination recovers.
func TestDeliveryDispatcherLaneIsolation(t *testing.T) {
	q := NewMemory()
	var (
		mu        sync.Mutex
		dead      = true
		delivered = map[string][]uint64{}
	)
	d := NewDispatcher(q, func(ctx context.Context, e *Entry) error {
		seq, payload := e.Seq, e.Payload
		env, err := ParseEnvelope(payload)
		if err != nil {
			return Permanent(err)
		}
		mu.Lock()
		defer mu.Unlock()
		if env.Dest == "dead-peer" && dead {
			return errors.New("connection refused")
		}
		delivered[env.Dest] = append(delivered[env.Dest], seq)
		return nil
	}, Options{RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond, Workers: 3})
	d.Start()
	defer d.Close()

	// Three epochs, each committing one entry per destination — the dead
	// peer's entries land BETWEEN healthy entries in global seq order, so
	// a single global queue would wedge behind the first one.
	for epoch := uint64(0); epoch < 3; epoch++ {
		for _, dest := range []string{"", "dead-peer", "healthy-peer"} {
			if _, err := q.Put(testEnvelopeDest(epoch, dest, "u")); err != nil {
				t.Fatal(err)
			}
		}
		d.Wake()
	}

	// Healthy lanes must drain while the dead lane still holds all 3.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		done := len(delivered[""]) == 3 && len(delivered["healthy-peer"]) == 3
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthy lanes did not drain while a peer was down")
		}
		time.Sleep(time.Millisecond)
	}
	if n := depths(q)["dead-peer"]; n != 3 {
		t.Fatalf("dead lane holds %d entries, want 3", n)
	}
	// The coordinator records a failure in settle, after the worker's
	// result crossed a channel, so the healthy lanes can finish before the
	// dead lane's first failure is on the books: poll, same deadline.
	for failures := uint64(0); failures == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("dead lane recorded no failure: %+v", d.LaneStats())
		}
		for _, ls := range d.LaneStats() {
			if ls.Lane == "dead-peer" {
				failures = ls.Failures
			} else if ls.Backoff != 0 {
				t.Fatalf("healthy lane %q reports backoff %v, want 0", ls.Lane, ls.Backoff)
			}
		}
	}

	// Recovery: the parked backlog drains, in per-lane order.
	mu.Lock()
	dead = false
	mu.Unlock()
	d.Wake()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for dest, seqs := range delivered {
		if len(seqs) != 3 {
			t.Fatalf("lane %q delivered %v, want 3 entries", dest, seqs)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] < seqs[i-1] {
				t.Fatalf("lane %q delivered out of order: %v", dest, seqs)
			}
		}
	}
}

// TestDeliveryDispatcherWorkerCap pins the pool bound: with W workers and
// more lanes than workers, at most W deliveries run concurrently, and
// every lane still drains.
func TestDeliveryDispatcherWorkerCap(t *testing.T) {
	q := NewMemory()
	var inFlight, peak, total atomic.Int64
	d := NewDispatcher(q, func(ctx context.Context, e *Entry) error {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		total.Add(1)
		return nil
	}, Options{RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond, Workers: 2})
	d.Start()
	defer d.Close()
	for i := 0; i < 6; i++ {
		if _, err := q.Put(testEnvelopeDest(0, fmt.Sprintf("peer-%d", i), "u")); err != nil {
			t.Fatal(err)
		}
	}
	d.Wake()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := total.Load(); got != 6 {
		t.Fatalf("delivered %d entries, want 6", got)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d exceeds the 2-worker pool", p)
	}
}

// TestDeliveryDispatcherBackoffJitter pins the thundering-herd fix: the
// retry delay is spread over [backoff/2, backoff] and actually varies,
// instead of every proxy of a tier retrying a recovered downstream at the
// exact same deterministic instant.
func TestDeliveryDispatcherBackoffJitter(t *testing.T) {
	const backoff = 100 * time.Millisecond
	seen := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		delay := jitter(backoff)
		if delay < backoff/2 || delay > backoff {
			t.Fatalf("jitter(%v) = %v, want within [%v, %v]", backoff, delay, backoff/2, backoff)
		}
		seen[delay] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced a single deterministic delay across 200 draws")
	}
	// Degenerate backoffs must not panic or zero out.
	if d := jitter(1); d != 1 {
		t.Fatalf("jitter(1ns) = %v, want passthrough", d)
	}
}

// TestDeliveryDispatcherTimeoutClamp pins the attempt bound: the
// default, raised to the retry backoff ceiling when that is longer — a
// retry is never pre-empted faster than the dispatcher would retry it.
func TestDeliveryDispatcherTimeoutClamp(t *testing.T) {
	nop := func(ctx context.Context, e *Entry) error { return nil }
	d := NewDispatcher(NewMemory(), nop, Options{RetryMax: 90 * time.Second})
	if d.attemptTimeout != 90*time.Second {
		t.Fatalf("attempt timeout %v not clamped to the %v backoff ceiling", d.attemptTimeout, 90*time.Second)
	}
	d = NewDispatcher(NewMemory(), nop, Options{})
	if d.attemptTimeout != DefaultAttemptTimeout {
		t.Fatalf("default attempt timeout = %v, want %v", d.attemptTimeout, DefaultAttemptTimeout)
	}
	d = NewDispatcher(NewMemory(), nop, Options{RetryMax: time.Second})
	if d.attemptTimeout != DefaultAttemptTimeout {
		t.Fatalf("attempt timeout under a %v backoff ceiling = %v, want the default %v", time.Second, d.attemptTimeout, DefaultAttemptTimeout)
	}
	d.Close()
}
