package route

import (
	"fmt"
	"strings"
	"testing"
)

func mustNew(t *testing.T, version uint64, mode Mode, roundSize int, specs []ShardSpec) *Topology {
	t.Helper()
	topo, err := New(version, mode, roundSize, specs)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestQuotasApportionWeights(t *testing.T) {
	cases := []struct {
		roundSize int
		weights   []int
		want      []int
	}{
		{8, []int{1, 1}, []int{4, 4}},
		{8, []int{3, 1}, []int{6, 2}},
		{7, []int{1, 1, 1}, []int{3, 2, 2}},
		{10, []int{2, 3, 5}, []int{2, 3, 5}},
		{5, []int{100, 1, 1}, []int{3, 1, 1}}, // minimum-one guarantee
		{4, []int{1}, []int{4}},
	}
	for _, tc := range cases {
		specs := make([]ShardSpec, len(tc.weights))
		for i, w := range tc.weights {
			specs[i].Weight = w
		}
		topo := mustNew(t, 1, ModeHashQuota, tc.roundSize, specs)
		got := topo.quotas
		sum := 0
		for i, q := range got {
			sum += q
			if q != tc.want[i] {
				t.Errorf("roundSize=%d weights=%v: quotas = %v, want %v", tc.roundSize, tc.weights, got, tc.want)
				break
			}
		}
		if sum != tc.roundSize {
			t.Errorf("roundSize=%d weights=%v: quotas %v sum to %d", tc.roundSize, tc.weights, got, sum)
		}
	}
}

func TestNewRejects(t *testing.T) {
	if _, err := New(1, ModeSticky, 0, make([]ShardSpec, 1)); err == nil {
		t.Error("zero round size accepted")
	}
	if _, err := New(1, ModeSticky, 4, nil); err == nil {
		t.Error("empty shard set accepted")
	}
	if _, err := New(1, ModeSticky, 2, make([]ShardSpec, 3)); err == nil {
		t.Error("more shards than round size accepted")
	}
	if _, err := New(1, Mode(99), 4, make([]ShardSpec, 2)); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := New(1, ModeSticky, 4, []ShardSpec{{Weight: -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := New(1, ModeHashQuota, 4, []ShardSpec{{Addr: "http://a"}, {Addr: "http://a"}}); err == nil {
		t.Error("duplicate remote address accepted")
	}
	if _, err := New(1, ModeSticky, 4, []ShardSpec{{}, {Addr: "http://a"}}); err == nil {
		t.Error("sticky mode with a remote shard accepted (quotas unenforceable)")
	}
}

func TestHashQuotaRespectsQuotas(t *testing.T) {
	topo := mustNew(t, 1, ModeHashQuota, 12, []ShardSpec{{Weight: 1}, {Weight: 2}, {Weight: 3}})
	st := topo.NewState()
	for i := 0; i < topo.RoundSize(); i++ {
		s := topo.Route(fmt.Sprintf("client-%d", i), st)
		if s < 0 || s >= topo.P() {
			t.Fatalf("route %d returned shard %d", i, s)
		}
	}
	for s, load := range st.Load {
		if load != topo.Quota(s) {
			t.Fatalf("after a full round, load = %v, want quotas %v", st.Load, topo.quotas)
		}
	}
}

func TestHashQuotaStickyUntilFull(t *testing.T) {
	topo := mustNew(t, 1, ModeHashQuota, 16, []ShardSpec{{}, {}, {}, {}})
	// The same client routes to the same shard while its quota lasts.
	st1 := topo.NewState()
	st2 := topo.NewState()
	for i := 0; i < 3; i++ {
		if a, b := topo.Route("alice", st1), topo.Route("alice", st2); a != b {
			t.Fatalf("hash routing not deterministic: %d vs %d", a, b)
		}
	}
}

func TestHashQuotaAnonymousBalances(t *testing.T) {
	topo := mustNew(t, 1, ModeHashQuota, 8, []ShardSpec{{Weight: 1}, {Weight: 3}})
	st := topo.NewState()
	for i := 0; i < 8; i++ {
		topo.Route("", st)
	}
	if st.Load[0] != 2 || st.Load[1] != 6 {
		t.Fatalf("anonymous hash-quota load = %v, want [2 6]", st.Load)
	}
}

func TestStickyMatchesLegacyRouting(t *testing.T) {
	// ModeSticky must reproduce the pre-topology router bit for bit:
	// FNV-32a of the client id modulo P, round-robin for anonymous.
	topo := mustNew(t, 1, ModeSticky, 8, make([]ShardSpec, 4))
	st := topo.NewState()
	legacyRR := 0
	for i := 0; i < 16; i++ {
		id := ""
		if i%2 == 0 {
			id = fmt.Sprintf("client-%d", i)
		}
		var want int
		if id != "" {
			want = legacyFNV(id) % 4
		} else {
			want = legacyRR
			legacyRR = (legacyRR + 1) % 4
		}
		if got := topo.Route(id, st); got != want {
			t.Fatalf("update %d (id %q): shard %d, want %d", i, id, got, want)
		}
	}
}

func legacyFNV(id string) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h % 4)
}

func TestConsistentHashingStability(t *testing.T) {
	// Growing the shard set must leave most identified clients on their
	// original shard — the property that makes reshards cheap on sticky
	// anonymity sets. Remote shards keep their identity by address.
	specs := []ShardSpec{{Addr: "http://a"}, {Addr: "http://b"}, {Addr: "http://c"}}
	before := mustNew(t, 1, ModeHashQuota, 1000, specs)
	after := mustNew(t, 2, ModeHashQuota, 1000, append(append([]ShardSpec{}, specs...), ShardSpec{Addr: "http://d"}))
	moved := 0
	const clients = 500
	for i := 0; i < clients; i++ {
		id := fmt.Sprintf("client-%d", i)
		b := before.ringShard(id)
		a := after.ringShard(id)
		if a == 3 {
			continue // moved onto the new shard — expected for ~1/4
		}
		if before.Spec(b).Addr != after.Spec(a).Addr {
			moved++
		}
	}
	if moved > clients/10 {
		t.Fatalf("%d of %d clients moved between surviving shards (want ~0)", moved, clients)
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	topo := mustNew(t, 7, ModeHashQuota, 12, []ShardSpec{
		{Weight: 2},
		{Addr: "http://shard-b:8441", Weight: 1},
		{Addr: "http://shard-c:8441", Weight: 3},
	})
	got, err := Parse(topo.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(topo) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, topo)
	}
	if got.Quota(2) != topo.Quota(2) {
		t.Fatal("quotas not rebuilt on parse")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	topo := mustNew(t, 1, ModeSticky, 4, make([]ShardSpec, 2))
	good := topo.Marshal()
	for _, bad := range [][]byte{
		nil,
		[]byte("XXXX"),
		good[:len(good)-1],
		append(append([]byte{}, good...), 0),
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("garbage blob of %d bytes accepted", len(bad))
		}
	}
}

func TestPlannerStageAdvance(t *testing.T) {
	initial := mustNew(t, 0, ModeSticky, 8, make([]ShardSpec, 2))
	p := NewPlanner(initial)
	if got := p.Advance(); !got.Equal(initial) {
		t.Fatal("advance with nothing staged changed the topology")
	}
	next, err := p.Stage(Directive{Mode: ModeHashQuota, Shards: []ShardSpec{{Weight: 1}, {Weight: 1}, {Weight: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if next.Version() != 1 || next.P() != 3 || next.Mode() != ModeHashQuota {
		t.Fatalf("staged topology wrong: v%d P=%d mode=%s", next.Version(), next.P(), next.Mode())
	}
	if next.RoundSize() != 8 {
		t.Fatalf("round size not kept: %d", next.RoundSize())
	}
	if cur := p.cur; !cur.Equal(initial) {
		t.Fatal("stage mutated the current topology")
	}
	if got := p.Advance(); !got.Equal(next) {
		t.Fatal("advance did not promote the staged topology")
	}
	if p.Staged() != nil {
		t.Fatal("staged survived the advance")
	}
}

func TestPlannerStageRejects(t *testing.T) {
	p := NewPlanner(mustNew(t, 0, ModeSticky, 4, make([]ShardSpec, 2)))
	if _, err := p.Stage(Directive{Shards: []ShardSpec{}}); err == nil {
		t.Fatal("empty shard set staged")
	}
	if _, err := p.Stage(Directive{Shards: make([]ShardSpec, 9)}); err == nil {
		t.Fatal("more shards than round size staged")
	}
	if p.Staged() != nil {
		t.Fatal("failed stage left a staged topology")
	}
}

func TestPlannerLatestStageWins(t *testing.T) {
	p := NewPlanner(mustNew(t, 0, ModeSticky, 8, make([]ShardSpec, 2)))
	if _, err := p.Stage(Directive{Shards: make([]ShardSpec, 3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stage(Directive{Shards: make([]ShardSpec, 4)}); err != nil {
		t.Fatal(err)
	}
	got := p.Advance()
	if got.P() != 4 {
		t.Fatalf("advanced to P=%d, want the latest staged 4", got.P())
	}
	if got.Version() != 1 {
		t.Fatalf("version = %d, want 1 (versions count applied plans)", got.Version())
	}
}

func TestModeParseString(t *testing.T) {
	for _, m := range []Mode{ModeSticky, ModeHashQuota} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode parsed")
	}
	// The removed mode is refused by name — as a spelling, and as the tag
	// an older sealed topology carries.
	for _, spelling := range []string{"round-robin", "rr"} {
		if _, err := ParseMode(spelling); err == nil || !strings.Contains(err.Error(), "round-robin routing mode was removed") {
			t.Fatalf("ParseMode(%q) = %v, want the removal named", spelling, err)
		}
	}
	if _, err := New(0, Mode(2), 4, make([]ShardSpec, 2)); err == nil || !strings.Contains(err.Error(), "round-robin routing mode was removed") {
		t.Fatalf("New with mode tag 2 = %v, want the removal named", err)
	}
	if got, err := ParseMode(""); err != nil || got != ModeSticky {
		t.Fatalf("empty mode = %v, %v, want sticky default", got, err)
	}
}
