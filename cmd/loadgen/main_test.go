package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestLoadgenSmallScale runs the command end to end at smoke scale and
// checks the BENCH_loadgen.json snapshot it writes.
func TestLoadgenSmallScale(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_loadgen.json")
	cpu, mem := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "mem.pb.gz")
	err := run([]string{
		"-participants", "24", "-round", "12", "-k", "2", "-waves", "3",
		"-queue-depth", "16", "-workers", "4",
		"-straggler", "0.2", "-disconnect", "0.1",
		"-out", out, "-cpuprofile", cpu, "-memprofile", mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range []string{cpu, mem} {
		// pprof profiles are gzip streams.
		if b, err := os.ReadFile(prof); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Fatalf("%s: not a profile (%d bytes, err %v)", filepath.Base(prof), len(b), err)
		}
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Bench          string `json:"bench"`
		TotalUpdates   int    `json:"total_updates"`
		AggRounds      int    `json:"agg_rounds"`
		Quota          int    `json:"quota"`
		ConservationOK bool   `json:"conservation_ok"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("BENCH_loadgen.json did not parse: %v", err)
	}
	if res.Bench != "loadgen" || !res.ConservationOK {
		t.Fatalf("snapshot = %+v, want bench=loadgen with conservation_ok", res)
	}
	if res.AggRounds*res.Quota != res.TotalUpdates {
		t.Fatalf("snapshot accounting broken: %d rounds x %d != %d updates", res.AggRounds, res.Quota, res.TotalUpdates)
	}
}

func TestLoadgenRejectsBadConfig(t *testing.T) {
	if err := run([]string{"-participants", "10", "-round", "4"}); err == nil {
		t.Fatal("round size not divisible by 3 must be rejected")
	}
}
