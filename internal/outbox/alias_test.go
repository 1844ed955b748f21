package outbox

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"
	"unsafe"

	"mixnn/internal/wire"
)

// marshalV2 writes the version-2 entry format (count + items straight
// after the destination), which no production code writes or reads any
// more: it stands in for entries an older binary left on disk.
func marshalV2(e Envelope) []byte {
	var b bytes.Buffer
	b.WriteString(envelopeMagic)
	binary.Write(&b, binary.LittleEndian, uint32(2))
	binary.Write(&b, binary.LittleEndian, e.Epoch)
	binary.Write(&b, binary.LittleEndian, e.TopoVersion)
	binary.Write(&b, binary.LittleEndian, uint32(e.Hop))
	binary.Write(&b, binary.LittleEndian, uint16(len(e.Dest)))
	b.WriteString(e.Dest)
	binary.Write(&b, binary.LittleEndian, uint32(len(e.Updates)))
	for _, u := range e.Updates {
		binary.Write(&b, binary.LittleEndian, uint32(len(u)))
		b.Write(u)
	}
	return b.Bytes()
}

// referenceParse is the copying parser the aliasing ParseEnvelope is held
// to: a bytes.Reader walk that copies every field out of data, kept as
// the oracle.
func referenceParse(data []byte) (*Envelope, error) {
	r := bytes.NewReader(data)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || string(magic[:]) != envelopeMagic {
		return nil, fmt.Errorf("bad magic")
	}
	var version, hop, count uint32
	var destLen uint16
	env := &Envelope{}
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil || version != 3 {
		return nil, fmt.Errorf("bad version")
	}
	for _, f := range []any{&env.Epoch, &env.TopoVersion, &hop, &destLen} {
		if err := binary.Read(r, binary.LittleEndian, f); err != nil {
			return nil, err
		}
	}
	env.Hop = int(hop)
	if int(destLen) > maxEnvelopeDestBytes || int(destLen) > r.Len() {
		return nil, fmt.Errorf("bad dest length")
	}
	dest := make([]byte, destLen)
	io.ReadFull(r, dest)
	env.Dest = string(dest)
	tail := len(data) - r.Len()
	var bm [5]byte
	if _, err := io.ReadFull(r, bm[:]); err != nil || string(bm[:4]) != "MXBE" || bm[4] != 1 {
		return nil, fmt.Errorf("bad tail")
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil || count > maxEnvelopeUpdates {
		return nil, fmt.Errorf("bad count")
	}
	for i := uint32(0); i < count; i++ {
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		if uint64(n) > maxEnvelopeItemBytes || uint64(n) > uint64(r.Len()) {
			return nil, fmt.Errorf("bad item length")
		}
		u := make([]byte, n)
		io.ReadFull(r, u)
		env.Updates = append(env.Updates, u)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("trailing bytes")
	}
	if count > 0 {
		env.Batch = append([]byte(nil), data[tail:]...)
	}
	return env, nil
}

// within reports whether sub's storage lies inside data's.
func within(sub, data []byte) bool {
	if len(sub) == 0 {
		return true
	}
	lo, hi := uintptr(unsafe.Pointer(&data[0])), uintptr(unsafe.Pointer(&data[0]))+uintptr(len(data))
	p := uintptr(unsafe.Pointer(&sub[0]))
	return p >= lo && p+uintptr(len(sub)) <= hi
}

// checkAlias holds ParseEnvelope to referenceParse on one input.
func checkAlias(t *testing.T, data []byte) {
	t.Helper()
	orig := append([]byte(nil), data...)
	want, werr := referenceParse(data)
	got, gerr := ParseEnvelope(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("reference err = %v, aliasing err = %v", werr, gerr)
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("ParseEnvelope modified its input")
	}
	if gerr != nil {
		return
	}
	if got.Epoch != want.Epoch || got.TopoVersion != want.TopoVersion || got.Hop != want.Hop || got.Dest != want.Dest {
		t.Fatalf("header = %+v, want %+v", got, want)
	}
	if LaneOf(data) != want.Dest {
		t.Fatalf("LaneOf = %q, want %q", LaneOf(data), want.Dest)
	}
	if len(got.Updates) != len(want.Updates) {
		t.Fatalf("%d updates, want %d", len(got.Updates), len(want.Updates))
	}
	for i := range want.Updates {
		if !bytes.Equal(got.Updates[i], want.Updates[i]) {
			t.Fatalf("update %d differs from the reference parse", i)
		}
		if !within(got.Updates[i], data) {
			t.Fatalf("update %d was copied out of the entry", i)
		}
	}
	if !bytes.Equal(got.Batch, want.Batch) || !within(got.Batch, data) {
		t.Fatal("batch tail differs from the reference or was copied")
	}
	if got.Batch == nil {
		return
	}
	// The tail IS the batch body: the wire decoder must read the same
	// items out of it that the entry parser did.
	be, err := wire.DecodeBatchEnvelope(got.Batch)
	if err != nil {
		t.Fatalf("v3 tail is not a batch body: %v", err)
	}
	if len(be.Updates) != len(got.Updates) {
		t.Fatalf("batch body holds %d items, entry %d", len(be.Updates), len(got.Updates))
	}
	for i := range be.Updates {
		if !bytes.Equal(be.Updates[i], got.Updates[i]) {
			t.Fatalf("batch item %d differs from entry update %d", i, i)
		}
	}
	// And it is byte-identical to what the sender used to encode.
	enc, err := wire.BatchEnvelope{Updates: want.Updates}.Encode()
	if err != nil || !bytes.Equal(enc, got.Batch) {
		t.Fatalf("v3 tail differs from BatchEnvelope.Encode (err %v)", err)
	}
}

func aliasSeeds() [][]byte {
	env := Envelope{Epoch: 3, TopoVersion: 7, Hop: 2, Dest: "http://shard-b:8443",
		Updates: [][]byte{[]byte("u1"), {}, bytes.Repeat([]byte{0xAB}, 300)}}
	v3, err := env.Marshal()
	if err != nil {
		panic(err)
	}
	empty, _ := (&Envelope{Epoch: 1}).Marshal()
	v1 := append([]byte(nil), v3...)
	v1[4] = 1
	return [][]byte{v3, marshalV2(env), empty, marshalV2(Envelope{}), v1, v3[:len(v3)-1], append(append([]byte(nil), v3...), 0)}
}

func TestDeliveryEnvelopeAliasMatchesReference(t *testing.T) {
	for _, seed := range aliasSeeds() {
		checkAlias(t, seed)
	}
}

// FuzzEnvelopeAlias: the aliasing parser accepts and rejects exactly what
// the copying reference does, returns byte-identical updates without
// copying them, and a v3 entry's tail decodes as the same batch body.
func FuzzEnvelopeAlias(f *testing.F) {
	for _, seed := range aliasSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAlias(t, data) })
}

// TestDeliveryEnvelopeVersions pins the one format written and read (v3)
// and that the retired ones are refused by name — the version found and
// the version wanted — so an operator sees what to do with the entry.
func TestDeliveryEnvelopeVersions(t *testing.T) {
	env := Envelope{Epoch: 9, Hop: 2, Dest: "loop://relay", Updates: [][]byte{[]byte("hello")}}
	v3, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(v3[4:]); v != EnvelopeVersion || EnvelopeVersion != 3 {
		t.Fatalf("Marshal wrote version %d", v)
	}
	var v1 bytes.Buffer
	v1.WriteString("MXOB")
	binary.Write(&v1, binary.LittleEndian, uint32(1)) // version 1
	binary.Write(&v1, binary.LittleEndian, uint64(9)) // epoch
	binary.Write(&v1, binary.LittleEndian, uint32(2)) // hop
	binary.Write(&v1, binary.LittleEndian, uint32(1)) // count
	binary.Write(&v1, binary.LittleEndian, uint32(5))
	v1.WriteString("hello")
	for version, old := range map[int][]byte{1: v1.Bytes(), 2: marshalV2(env)} {
		_, err := ParseEnvelope(old)
		if err == nil {
			t.Fatalf("v%d entry accepted", version)
		}
		for _, want := range []string{fmt.Sprintf("entry version %d", version), "want 3", "release that wrote it"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("v%d entry: err = %v, want it to mention %q", version, err, want)
			}
		}
		if LaneOf(old) != "" {
			t.Fatalf("v%d entry was steered to a lane", version)
		}
	}
}

// TestDeliveryEntryBuilderMatchesMarshal: an entry assembled in place is
// the entry Marshal writes, in one allocation of exactly EntrySize.
func TestDeliveryEntryBuilderMatchesMarshal(t *testing.T) {
	env := Envelope{Epoch: 4, TopoVersion: 2, Hop: 1, Dest: "loop://r",
		Updates: [][]byte{[]byte("alpha"), []byte("be"), {}}}
	want, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	size := EntrySize(env.Dest, len(env.Updates), len("alpha")+len("be"))
	b, err := NewEntryBuilder(env, size)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range env.Updates {
		if err := b.Append(func(buf []byte) ([]byte, error) { return append(buf, u...), nil }); err != nil {
			t.Fatal(err)
		}
	}
	// A failed encode must leave no trace in the entry.
	if err := b.Append(func(buf []byte) ([]byte, error) { return append(buf, "junk"...), fmt.Errorf("boom") }); err == nil {
		t.Fatal("failed encode accepted")
	}
	got := b.Bytes()
	if !bytes.Equal(got, want) || len(got) != size || cap(got) != size {
		t.Fatalf("built entry (%d bytes, cap %d) differs from Marshal's (%d bytes, EntrySize %d)", len(got), cap(got), len(want), size)
	}
}
