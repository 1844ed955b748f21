package mixnn

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"mixnn/internal/core"
	"mixnn/internal/nn"
	"mixnn/internal/outbox"
	"mixnn/internal/route"
	"mixnn/internal/tensor"
	"mixnn/internal/wire"
)

// golden* are the exact bytes of each binary format for the fixed inputs
// below. Sealed tier state and outbox entries outlive a restart, so a
// change to any of them is a format change, not a refactor: it needs a
// new version and a refusal of the old one by name (DESIGN §7).
const (
	goldenParamSet = "4d58505301020000000300666331020000000202000000030000000000000000" +
		"00e03f000000000000f0bf00000000000000400000000000000a400000000000" +
		"000000fca9f1d24d62503f0103000000000000000000f03f0000000000000040" +
		"000000000000084003006f757401000000020100000001000000000000000000" +
		"1ec0"
	goldenBatch    = "4d58424501030000000200000061620000000001000000ff"
	goldenEnvelope = "4d584f4203000000050000000000000002000000000000000100000013006874" +
		"74703a2f2f73686172642d623a383434334d5842450102000000030000007879" +
		"7a0100000071"
	goldenTopology = "4d58544f01000700000000000000030c00000002000000020000000000010000" +
		"000d00687474703a2f2f706565723a39"
	goldenState = "4d58534804000000020000000103000000020000000400000001000000090000" +
		"0000000000020000000000000007000000000000000500000000000000030000" +
		"0000000000040000000000000004000000000000000100000001000000300000" +
		"004d58544f01000700000000000000030c000000020000000200000000000100" +
		"00000d00687474703a2f2f706565723a39050000007472757374270000000100" +
		"00004d585053010100000003006f757401000000020100000001000000000000" +
		"0000001ec027000000010000004d585053010100000003006f75740100000002" +
		"01000000010000000000000000001ec027000000010000004d58505301010000" +
		"0003006f7574010000000201000000010000000000000000001ec0"
)

func goldenInputs(t *testing.T) (nn.ParamSet, wire.BatchEnvelope, outbox.Envelope, *route.Topology) {
	t.Helper()
	w, err := tensor.FromSlice([]float64{0.5, -1, 2, 3.25, 0, 1e-3}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tensor.FromSlice([]float64{1, 2, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	o, err := tensor.FromSlice([]float64{-7.5}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps := nn.ParamSet{Layers: []nn.LayerParams{
		{Name: "fc1", Tensors: []*tensor.Tensor{w, b}},
		{Name: "out", Tensors: []*tensor.Tensor{o}},
	}}
	batch := wire.BatchEnvelope{Updates: [][]byte{[]byte("ab"), {}, {0xff}}}
	env := outbox.Envelope{Epoch: 5, TopoVersion: 2, Hop: 1, Dest: "http://shard-b:8443",
		Updates: [][]byte{[]byte("xyz"), []byte("q")}}
	topo, err := route.New(7, route.ModeHashQuota, 12, []route.ShardSpec{{Weight: 2}, {Addr: "http://peer:9", Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return ps, batch, env, topo
}

// TestWireFormatsGolden pins each format's writer to its exact bytes and
// reads the pinned bytes back through the format's reader.
func TestWireFormatsGolden(t *testing.T) {
	ps, batch, env, topo := goldenInputs(t)
	check := func(name, golden string, got []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if hex.EncodeToString(got) != golden {
			t.Fatalf("%s bytes changed:\n got %x\nwant %s", name, got, golden)
		}
		return got
	}

	raw, err := nn.EncodeParamSet(ps)
	raw = check("MXPS", goldenParamSet, raw, err)
	for name, decode := range map[string]func([]byte) (nn.ParamSet, error){
		"DecodeParamSet": nn.DecodeParamSet, "DecodeParamSetNoCopy": nn.DecodeParamSetNoCopy,
	} {
		back, err := decode(raw)
		if err != nil || !back.Compatible(ps) || !back.ApproxEqual(ps, 0) {
			t.Fatalf("%s of the golden MXPS bytes: %v", name, err)
		}
	}

	enc, err := batch.Encode()
	enc = check("MXBE", goldenBatch, enc, err)
	be, err := wire.DecodeBatchEnvelope(enc)
	if err != nil || len(be.Updates) != len(batch.Updates) {
		t.Fatalf("DecodeBatchEnvelope of the golden MXBE bytes: %v", err)
	}
	for i := range be.Updates {
		if !bytes.Equal(be.Updates[i], batch.Updates[i]) {
			t.Fatalf("golden MXBE item %d = %x, want %x", i, be.Updates[i], batch.Updates[i])
		}
	}

	entry, err := env.Marshal()
	entry = check("MXOB", goldenEnvelope, entry, err)
	parsed, err := outbox.ParseEnvelope(entry)
	if err != nil || parsed.Epoch != env.Epoch || parsed.TopoVersion != env.TopoVersion ||
		parsed.Hop != env.Hop || parsed.Dest != env.Dest || len(parsed.Updates) != len(env.Updates) {
		t.Fatalf("ParseEnvelope of the golden MXOB bytes = %+v, %v", parsed, err)
	}
	for i := range parsed.Updates {
		if !bytes.Equal(parsed.Updates[i], env.Updates[i]) {
			t.Fatalf("golden MXOB update %d = %x, want %x", i, parsed.Updates[i], env.Updates[i])
		}
	}

	blob := check("MXTO", goldenTopology, topo.Marshal(), nil)
	back, err := route.Parse(blob)
	if err != nil || !back.Equal(topo) {
		t.Fatalf("route.Parse of the golden MXTO bytes: %v", err)
	}

	// MXSH: SealShardedState with no section sealer over a fixed two-shard
	// tier — a mixer and a relay, one restored entry each — with every
	// ledger field, a pending emission, a topology and a trust section
	// set; OpenShardedState reads it back and FileInto files the same
	// entries into a fresh tier.
	held := nn.ParamSet{Layers: ps.Layers[1:]}
	tier := func() []core.Shard {
		m, err := core.NewStreamMixerSlab(2, rand.New(rand.NewSource(1)), nil)
		if err != nil {
			t.Fatal(err)
		}
		return []core.Shard{m, core.NewRelayShard(2, nil)}
	}
	sealed := tier()
	for _, s := range sealed {
		if err := s.RestoreEntry(held); err != nil {
			t.Fatal(err)
		}
	}
	meta := core.ShardedStateMeta{
		Routing: 1, RRCursor: 3, InRound: 2, Rounds: 4, HopMark: 1,
		Received: 9, HopReceived: 2, Forwarded: 7,
		ShardReceived: []int{5, 4}, ShardEmitted: []int{3, 4}, ShardLoad: []int{1, 1},
		Pending: []nn.ParamSet{held}, Topo: topo.Marshal(), RemoteTrust: []byte("trust"),
	}
	state, err := core.SealShardedState(sealed, meta, nil)
	state = check("MXSH", goldenState, state, err)
	st, err := core.OpenShardedState(state, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := st.Meta
	if got.SealedShards != 2 || len(got.Pending) != 1 || !got.Pending[0].ApproxEqual(held, 0) {
		t.Fatalf("golden MXSH meta = %+v", got)
	}
	got.SealedShards, got.Pending, meta.Pending = 0, nil, nil
	if !reflect.DeepEqual(got, meta) {
		t.Fatalf("golden MXSH meta = %+v, want %+v", got, meta)
	}
	restored := tier()
	if err := st.FileInto(restored); err != nil {
		t.Fatal(err)
	}
	for s, shard := range restored {
		if e := shard.SnapshotEntries(); len(e) != 1 || !e[0].ApproxEqual(held, 0) {
			t.Fatalf("golden MXSH shard %d restored %d entries, not the sealed one", s, len(e))
		}
	}
}
