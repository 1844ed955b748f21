package outbox

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDeliveryWakeDuringFailingAttemptKeepsBackoff: a Wake that lands
// while an attempt is in flight is consumed by that attempt's pass. When
// the attempt fails, the lane still waits out the backoff the pass
// scheduled — at least backoff/2 — instead of retrying at once.
func TestDeliveryWakeDuringFailingAttemptKeepsBackoff(t *testing.T) {
	const backoff = 200 * time.Millisecond
	q := NewMemory()
	if _, err := q.Put(testEnvelopeDest(0, "peer-a", "u")); err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	var failedAt time.Time
	retried := make(chan time.Time, 1)
	var attempts atomic.Int32
	d := NewDispatcher(q, func(ctx context.Context, e *Entry) error {
		if attempts.Add(1) > 1 {
			retried <- time.Now()
			return nil
		}
		close(started)
		<-release
		failedAt = time.Now()
		return errors.New("peer down")
	}, Options{RetryBase: backoff, RetryMax: backoff})
	d.Start()
	defer d.Close()

	<-started
	d.Wake() // mid-attempt: lifts the gate (none yet) and signals the lane
	close(release)
	select {
	case at := <-retried:
		if gap := at.Sub(failedAt); gap < backoff/2 {
			t.Fatalf("retried %v after the failure, want at least backoff/2 = %v (a mid-attempt Wake cut the backoff)", gap, backoff/2)
		}
	case <-time.After(10 * backoff):
		t.Fatal("the failed entry was never retried")
	}
}

// TestDeliveryCloseLeavesNoLaneGoroutine: Close stops every lane's
// goroutine — a drained lane, a lane backing off and a lane hung in an
// attempt — and the dispatcher starts none afterwards, whatever is Put
// and woken.
func TestDeliveryCloseLeavesNoLaneGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	q := NewMemory()
	for _, dest := range []string{"", "peer-down", "peer-hung"} {
		if _, err := q.Put(testEnvelopeDest(0, dest, "u")); err != nil {
			t.Fatal(err)
		}
	}
	var delivered, failures atomic.Int32
	hung := make(chan struct{})
	d := NewDispatcher(q, func(ctx context.Context, e *Entry) error {
		switch LaneOf(e.Payload) {
		case "peer-down":
			failures.Add(1)
			return errors.New("peer down")
		case "peer-hung":
			close(hung)
			<-ctx.Done()
			return ctx.Err()
		}
		delivered.Add(1)
		return nil
	}, Options{RetryBase: time.Hour, RetryMax: time.Hour})
	d.Start()
	<-hung
	for delivered.Load() == 0 || failures.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	d.Close()
	for deadline := time.Now().Add(closeGrace); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after Close, want the baseline %d", n, baseline)
	}
	if _, err := q.Put(testEnvelopeDest(1, "peer-new", "u")); err != nil {
		t.Fatal(err)
	}
	d.Wake()
	d.Start()
	time.Sleep(10 * time.Millisecond)
	if n := runtime.NumGoroutine(); n > baseline || delivered.Load() != 1 {
		t.Fatalf("Put + Wake after Close: %d goroutines (baseline %d), %d delivered (want 1)", n, baseline, delivered.Load())
	}
}

// TestDeliveryOneGoroutinePerLane: a lane keeps one goroutine for its
// life, not one per round — 200 rounds on one lane are all delivered by
// the same goroutine, and the goroutine count stays flat.
func TestDeliveryOneGoroutinePerLane(t *testing.T) {
	const rounds = 200
	q := NewMemory()
	var (
		mu      sync.Mutex
		runners = map[string]int{}
	)
	d := NewDispatcher(q, func(ctx context.Context, e *Entry) error {
		var buf [64]byte
		id := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1] // "goroutine <id> [running]:"
		mu.Lock()
		runners[id]++
		mu.Unlock()
		return nil
	}, Options{})
	d.Start()
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first int
	for r := 0; r < rounds; r++ {
		if _, err := q.Put(testEnvelopeDest(uint64(r), "peer-a", "u")); err != nil {
			t.Fatal(err)
		}
		d.Wake()
		if err := d.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		n := runtime.NumGoroutine()
		if r == 0 {
			first = n
		} else if n > first {
			t.Fatalf("round %d: %d goroutines, %d after the first round", r, n, first)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(runners) != 1 {
		t.Fatalf("%d rounds ran on %d goroutines, want one lane goroutine: %v", rounds, len(runners), runners)
	}
}
