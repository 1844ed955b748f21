package proxy

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestStatusConsistentUnderDelivery pins the torn-snapshot fix in
// ShardedProxy.Status: OutboxPending and OutboxLanes used to be read in
// separate lock acquisitions (queue length at one instant, per-lane
// stats at another), so a poller racing the dispatcher could see a
// composite that added up to nonsense. Now both come from ONE queue
// snapshot, so every Status the poller sees must satisfy
// OutboxPending == Σ lanes.Pending, with per-lane Delivered and the
// ingest counter monotone. The tier has two shards, and the per-shard
// books must add up at every poll: Σ Shards[].Received == Received +
// HopReceived, which pins that ingest counts each filed update once, in
// the shard it filed it into. Run under -race this also covers the
// counter reads themselves.
func TestStatusConsistentUnderDelivery(t *testing.T) {
	const roundSize, rounds, senders = 4, 24, 4
	platform, encl := fixtures(t)
	agg, px, tr, frontEP, _ := deployTier(t, "loopback", encl, platform, roundSize, 2, 811)

	stop := make(chan struct{})
	pollErr := make(chan error, 1)
	go func() {
		defer close(pollErr)
		lastDelivered := map[string]uint64{}
		var lastReceived int
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := px.Status()
			sum := 0
			for _, ls := range st.OutboxLanes {
				sum += ls.Pending
				if ls.Delivered < lastDelivered[ls.Dest] {
					pollErr <- fmt.Errorf("lane %s Delivered went backwards: %d after %d", ls.Dest, ls.Delivered, lastDelivered[ls.Dest])
					return
				}
				lastDelivered[ls.Dest] = ls.Delivered
			}
			if st.OutboxPending != sum {
				pollErr <- fmt.Errorf("torn snapshot: OutboxPending=%d but lanes sum to %d (%+v)", st.OutboxPending, sum, st.OutboxLanes)
				return
			}
			shardSum := 0
			for _, sh := range st.Shards {
				shardSum += sh.Received
			}
			if shardSum != st.Received+st.HopReceived {
				pollErr <- fmt.Errorf("per-shard books torn: shards received %d, tier received %d + %d", shardSum, st.Received, st.HopReceived)
				return
			}
			if st.Received < lastReceived {
				pollErr <- fmt.Errorf("Received went backwards: %d after %d", st.Received, lastReceived)
				return
			}
			lastReceived = st.Received
		}
	}()

	initial := testArch().New(1).SnapshotParams()
	updates := perturbed(initial, roundSize*rounds, 811)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(updates); i += senders {
				sendTyped(t, tr, encl, frontEP, fmt.Sprintf("status-%d", i), updates[i])
			}
		}(s)
	}
	wg.Wait()

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := px.Status(); st.OutboxPending == 0 && st.Rounds == rounds {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	if err, raced := <-pollErr; raced && err != nil {
		t.Fatal(err)
	}
	st := px.Status()
	if st.Rounds != rounds || st.OutboxPending != 0 {
		t.Fatalf("tier did not drain: rounds=%d pending=%d, want %d rounds and an empty outbox", st.Rounds, st.OutboxPending, rounds)
	}
	if got := agg.Round(); got != rounds {
		t.Fatalf("agg closed %d rounds, want %d", got, rounds)
	}
}
