package route

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
)

// referenceParse is the reflective bytes.Reader walk Parse is held to:
// every field read with binary.Read, every count and length checked
// against what the reader still holds. Kept as the oracle.
func referenceParse(blob []byte) (*Topology, error) {
	r := bytes.NewReader(blob)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || string(magic[:]) != topoMagic {
		return nil, fmt.Errorf("bad magic")
	}
	var blobVer uint16
	var version uint64
	var mode uint8
	var roundSize, p uint32
	for _, f := range []any{&blobVer, &version, &mode, &roundSize, &p} {
		if err := binary.Read(r, binary.LittleEndian, f); err != nil {
			return nil, err
		}
	}
	if blobVer != topoBlobVer || p == 0 || p > MaxShards || uint64(p) > uint64(r.Len())/6 {
		return nil, fmt.Errorf("bad header")
	}
	specs := make([]ShardSpec, p)
	for i := range specs {
		var weight uint32
		var addrLen uint16
		if err := binary.Read(r, binary.LittleEndian, &weight); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &addrLen); err != nil {
			return nil, err
		}
		if int(addrLen) > maxAddrBytes || int(addrLen) > r.Len() || weight > 1<<20 {
			return nil, fmt.Errorf("bad shard %d", i)
		}
		addr := make([]byte, addrLen)
		io.ReadFull(r, addr)
		specs[i] = ShardSpec{Addr: string(addr), Weight: int(weight)}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("trailing bytes")
	}
	return New(version, Mode(mode), int(roundSize), specs)
}

// FuzzTopologyParse: Parse accepts and rejects exactly what the reflective
// reference does and builds the same topology, never panics on garbage,
// and whatever it accepts round-trips through Marshal → Parse unchanged.
// (A blob may spell a default — mode 0, weight 0 — that New fills in, so
// Marshal need not reproduce the blob itself.)
func FuzzTopologyParse(f *testing.F) {
	for _, specs := range [][]ShardSpec{
		{{Weight: 2}, {Addr: "http://shard-b:8441", Weight: 1}},
		make([]ShardSpec, 2),
	} {
		topo, err := New(7, ModeHashQuota, 12, specs)
		if err != nil {
			f.Fatal(err)
		}
		blob := topo.Marshal()
		f.Add(blob)
		f.Add(blob[:len(blob)-1])
		f.Add(append(append([]byte(nil), blob...), 0))
		defaults := append([]byte(nil), blob...)
		defaults[14] = 0           // mode
		defaults[topoHeadSize] = 0 // first shard's weight
		f.Add(defaults)
	}
	f.Add([]byte("MXTO"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, blob []byte) {
		want, werr := referenceParse(blob)
		got, err := Parse(blob)
		if (err == nil) != (werr == nil) {
			t.Fatalf("reference err = %v, Parse err = %v", werr, err)
		}
		if err != nil {
			return
		}
		if !got.Equal(want) {
			t.Fatalf("Parse = %+v, reference %+v", got, want)
		}
		again, err := Parse(got.Marshal())
		if err != nil || !again.Equal(got) || !bytes.Equal(again.Marshal(), got.Marshal()) {
			t.Fatalf("Marshal → Parse of %+v = %+v, %v", got, again, err)
		}
	})
}
