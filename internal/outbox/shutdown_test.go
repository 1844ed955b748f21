package outbox

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestDispatcherCloseCancelsInflightAttempt pins the shutdown-under-
// dead-peer fix: delivery attempts derive their context from the
// dispatcher's lifetime, so Close aborts a hung attempt instead of
// waiting out the full attempt timeout. Before the fix the attempt
// context came from context.Background() — with a dead peer and a
// long attempt bound, mixnn-proxy shutdown stalled for the whole
// attempt timeout (an hour here, clamped up to RetryMax; the test would
// time out).
func TestDispatcherCloseCancelsInflightAttempt(t *testing.T) {
	q := NewMemory()
	if _, err := q.Put(testEnvelopeDest(0, "http://peer-dead", "u")); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	started := make(chan struct{})
	d := NewDispatcher(q, func(ctx context.Context, e *Entry) error {
		once.Do(func() { close(started) })
		// A dead peer that blackholes the connection: the attempt only
		// ends when its context does.
		<-ctx.Done()
		return fmt.Errorf("attempt aborted: %w", ctx.Err())
	}, Options{RetryBase: time.Millisecond, RetryMax: time.Hour})
	d.Start()
	<-started

	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not cancel the hung in-flight attempt (shutdown held hostage by the attempt timeout)")
	}
	// The aborted entry was never acked: it stays queued for the next
	// process rather than being lost.
	if q.Len() != 1 {
		t.Fatalf("queue holds %d entries after cancelled shutdown, want 1 (cancelled attempt must not consume the entry)", q.Len())
	}
}

// TestLaneStatsLiveAndConsistentMidDrain pins the status-consistency
// fix: (a) per-lane Pending comes from ONE lane-table snapshot, and (b)
// Delivered counts each ack as it happens, not when the worker
// releases the lane. With one worker draining one lane, every
// LaneStats snapshot must account for all N entries: Pending+Delivered
// is exactly N — an ack counts the entry and removes it under the one
// queue mutex LaneStats reads under, so there is no window between.
// Before the fix, Delivered stayed 0 for the whole drain pass while
// Pending fell, so snapshots under-counted by the number of acked
// entries — exactly what a load harness polling every round saw.
func TestLaneStatsLiveAndConsistentMidDrain(t *testing.T) {
	const n = 64
	q := NewMemory()
	for i := 0; i < n; i++ {
		if _, err := q.Put(testEnvelopeDest(uint64(i), "http://peer-a", "u")); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDispatcher(q, func(ctx context.Context, e *Entry) error {
		time.Sleep(200 * time.Microsecond) // stretch the drain so the poller samples mid-pass
		return nil
	}, Options{Workers: 1, RetryBase: time.Millisecond, RetryMax: 10 * time.Millisecond})
	d.Start()
	defer d.Close()

	sawMidDrain := false
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var pending int
		var delivered uint64
		for _, ls := range d.LaneStats() {
			pending += ls.Pending
			delivered += ls.Delivered
		}
		total := uint64(pending) + delivered
		if total != n {
			t.Fatalf("snapshot lost track of entries: pending=%d delivered=%d (want the sum %d)", pending, delivered, n)
		}
		if pending > 0 && delivered > 0 {
			sawMidDrain = true // a live mid-drain snapshot: some acked, some queued
		}
		if pending == 0 && delivered == n {
			break
		}
	}
	if !sawMidDrain {
		t.Fatal("poller never observed a mid-drain snapshot; slow the deliver func down")
	}
	if err := d.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
}
