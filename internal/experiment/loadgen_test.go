package experiment

import (
	"testing"
	"time"
)

// TestLoadgenSmoke runs the whole churn script — calm waves, a
// sync_peers directive, a dead relay, session churn, a cascade reshard
// under load, a mid-wave front failover, recovery and fillers — at CI
// scale, and requires the zero-loss conservation check to pass. The
// full-scale run lives in cmd/loadgen; this pins that the script and
// its accounting survive the race detector.
func TestLoadgenSmoke(t *testing.T) {
	res, err := RunLoadgen(LoadgenConfig{
		Participants: 24, FrontRound: 12, K: 2, Waves: 4,
		QueueDepth: 16, Workers: 4,
		StragglerFrac: 0.2, DisconnectFrac: 0.1,
		RSABits: 1024, Seed: 7, Timeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConservationOK {
		t.Fatal("conservation check failed")
	}
	if res.TotalUpdates < 24*4 {
		t.Fatalf("acked %d updates, want at least %d", res.TotalUpdates, 24*4)
	}
	if res.AggRounds*res.Quota != res.TotalUpdates {
		t.Fatalf("agg closed %d rounds of %d, want exactly %d updates", res.AggRounds, res.Quota, res.TotalUpdates)
	}
}
