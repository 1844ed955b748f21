package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"mixnn/internal/tensor"
)

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := randomParamSet(rng, 3, 5, 2)
	raw, err := EncodeParamSet(ps)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(raw) != EncodedSize(ps) {
		t.Fatalf("encoded %d bytes, EncodedSize predicted %d", len(raw), EncodedSize(ps))
	}
	got, err := DecodeParamSet(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.ApproxEqual(ps, 0) {
		t.Fatal("round trip changed values")
	}
	if !got.Compatible(ps) {
		t.Fatal("round trip changed structure")
	}
}

func TestCodecSpecialValues(t *testing.T) {
	ps := ParamSet{Layers: []LayerParams{{
		Name: "weird",
		Tensors: []*tensor.Tensor{tensor.MustFromSlice(
			[]float64{0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, -0.0}, 6)},
	}}}
	raw, err := EncodeParamSet(ps)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeParamSet(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	gd := got.Layers[0].Tensors[0].Data()
	pd := ps.Layers[0].Tensors[0].Data()
	for i := range pd {
		if math.Float64bits(gd[i]) != math.Float64bits(pd[i]) {
			t.Fatalf("scalar %d: %x != %x", i, math.Float64bits(gd[i]), math.Float64bits(pd[i]))
		}
	}
}

func TestCodecNaNRoundTrip(t *testing.T) {
	ps := ParamSet{Layers: []LayerParams{{
		Name:    "nan",
		Tensors: []*tensor.Tensor{tensor.MustFromSlice([]float64{math.NaN()}, 1)},
	}}}
	raw, err := EncodeParamSet(ps)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeParamSet(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !math.IsNaN(got.Layers[0].Tensors[0].Data()[0]) {
		t.Fatal("NaN did not survive the round trip")
	}
}

// TestDecodeParamSetNoCopyMatches: the zero-copy decoder must agree with
// the copying decoder bit-for-bit, at every buffer alignment (shifting
// the buffer start forces the per-tensor alias/fallback decision both
// ways).
func TestDecodeParamSetNoCopyMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range [][]int{{3, 5, 2}, {1}, {4, 4}} {
		raw, err := EncodeParamSet(randomParamSet(rng, shape...))
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeParamSet(raw)
		if err != nil {
			t.Fatal(err)
		}
		for shift := 0; shift < 8; shift++ {
			buf := make([]byte, shift+len(raw))
			copy(buf[shift:], raw)
			got, err := DecodeParamSetNoCopy(buf[shift:])
			if err != nil {
				t.Fatalf("shift %d: %v", shift, err)
			}
			if !got.Compatible(want) || !got.ApproxEqual(want, 0) {
				t.Fatalf("shift %d: zero-copy decode diverged", shift)
			}
		}
	}
}

// TestDecodeParamSetNoCopyAliases pins the ownership contract: the
// decoded tensors share storage with the input buffer (on little-endian
// hosts, for aligned payloads), so callers must treat both as immutable.
func TestDecodeParamSetNoCopyAliases(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("aliasing requires a little-endian host")
	}
	ps := ParamSet{Layers: []LayerParams{{
		Name:    "abc", // 4+1+4 + 2+3+4 + 1+4 = 23 header bytes... shift to align below
		Tensors: []*tensor.Tensor{tensor.MustFromSlice([]float64{1, 2, 3, 4}, 4)},
	}}}
	raw, err := EncodeParamSet(ps)
	if err != nil {
		t.Fatal(err)
	}
	// Find the alignment at which the single tensor's payload (the last
	// 32 bytes) is 8-byte aligned, so the alias path is exercised for
	// sure.
	for shift := 0; shift < 8; shift++ {
		buf := make([]byte, shift+len(raw))
		copy(buf[shift:], raw)
		data := buf[shift:]
		payload := data[len(data)-32:]
		if uintptr(unsafe.Pointer(&payload[0]))%8 != 0 {
			continue
		}
		got, err := DecodeParamSetNoCopy(data)
		if err != nil {
			t.Fatal(err)
		}
		payload[0] ^= 0xFF // mutate the buffer...
		if got.Layers[0].Tensors[0].Data()[0] == 1 {
			t.Fatal("aligned payload was copied, not aliased")
		}
		return
	}
	t.Fatal("no alignment produced an aligned payload")
}

func TestDecodeParamSetNoCopyRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	valid, err := EncodeParamSet(randomParamSet(rng, 4))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte("XXXX"), valid[4:]...),
		"truncated": valid[:len(valid)-5],
		"trailing":  append(append([]byte(nil), valid...), 0x00),
	} {
		if _, err := DecodeParamSetNoCopy(data); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	valid, err := EncodeParamSet(randomParamSet(rng, 4))
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("XXXX"), valid[4:]...)},
		{"bad version", func() []byte {
			b := append([]byte(nil), valid...)
			b[4] = 99
			return b
		}()},
		{"truncated header", valid[:6]},
		{"truncated payload", valid[:len(valid)-5]},
		{"huge layer count", func() []byte {
			b := append([]byte(nil), valid...)
			b[5], b[6], b[7], b[8] = 0xff, 0xff, 0xff, 0xff
			return b
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeParamSet(tt.data); err == nil {
				t.Fatal("decode of corrupt input succeeded")
			}
		})
	}
}

func TestDecodeRejectsOversizedTensor(t *testing.T) {
	// Hand-craft a header that declares a tensor far beyond the element
	// budget; the decoder must reject it before allocating.
	var buf bytes.Buffer
	buf.WriteString("MXPS")
	buf.WriteByte(1)                          // version
	buf.Write([]byte{1, 0, 0, 0})             // 1 layer
	buf.Write([]byte{1, 0})                   // name length 1
	buf.WriteByte('x')                        // name
	buf.Write([]byte{1, 0, 0, 0})             // 1 tensor
	buf.WriteByte(2)                          // rank 2
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f}) // dim 0: ~2^31
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f}) // dim 1: ~2^31
	if _, err := DecodeParamSet(buf.Bytes()); err == nil {
		t.Fatal("decode of oversized tensor succeeded")
	}
}

func TestDecodeRejectsZeroDim(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("MXPS")
	buf.WriteByte(1)
	buf.Write([]byte{1, 0, 0, 0})
	buf.Write([]byte{1, 0})
	buf.WriteByte('x')
	buf.Write([]byte{1, 0, 0, 0})
	buf.WriteByte(1)              // rank 1
	buf.Write([]byte{0, 0, 0, 0}) // dim 0 = 0
	if _, err := DecodeParamSet(buf.Bytes()); err == nil {
		t.Fatal("decode of zero-dim tensor succeeded")
	}
}

// Property: encode/decode is the identity on random ParamSets.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64, l8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nLayers := int(l8%4) + 1
		sizes := make([]int, nLayers)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(6)
		}
		ps := randomParamSet(rng, sizes...)
		raw, err := EncodeParamSet(ps)
		if err != nil {
			return false
		}
		got, err := DecodeParamSet(raw)
		if err != nil {
			return false
		}
		return got.ApproxEqual(ps, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeParamSetNoCopyMisalignedIsOneCopy pins the other half of the
// contract: a payload that is not 8-byte aligned in the input — most
// tensors of an item inside a batch body — is copied (in bulk), never
// aliased, so the decoded tensor does not follow the buffer.
func TestDecodeParamSetNoCopyMisalignedIsOneCopy(t *testing.T) {
	ps := ParamSet{Layers: []LayerParams{{
		Name:    "abc",
		Tensors: []*tensor.Tensor{tensor.MustFromSlice([]float64{1, 2, 3, 4}, 4)},
	}}}
	raw, err := EncodeParamSet(ps)
	if err != nil {
		t.Fatal(err)
	}
	for shift := 0; shift < 8; shift++ {
		buf := make([]byte, shift+len(raw))
		copy(buf[shift:], raw)
		data := buf[shift:]
		payload := data[len(data)-32:]
		if uintptr(unsafe.Pointer(&payload[0]))%8 == 0 {
			continue
		}
		got, err := DecodeParamSetNoCopy(data)
		if err != nil {
			t.Fatal(err)
		}
		payload[0] ^= 0xFF
		if d := got.Layers[0].Tensors[0].Data(); d[0] != 1 || d[3] != 4 {
			t.Fatalf("shift %d: misaligned payload decoded to %v and follows the buffer", shift, d)
		}
	}
}

// TestSlabLayoutCheckWire: the header-only check accepts exactly what
// DecodeIntoSlab accepts, without touching a row, and a rejected update
// leaves the row as it was.
func TestSlabLayoutCheckWire(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	good := randomParamSet(rng, 3, 2)
	layout, err := NewSlabLayout(good)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := EncodeParamSet(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := layout.CheckWire(wire); err != nil {
		t.Fatalf("own structure rejected: %v", err)
	}
	other, err := EncodeParamSet(randomParamSet(rng, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	renamed := append([]byte(nil), wire...)
	renamed[4+1+4+2] ^= 0x20 // first byte of the first layer's name
	row := make([]float64, layout.Stride())
	for name, bad := range map[string][]byte{"other shape": other, "renamed layer": renamed, "truncated": wire[:len(wire)-1], "empty": nil} {
		if layout.CheckWire(bad) == nil {
			t.Fatalf("%s passed CheckWire", name)
		}
		row[0] = 42
		if layout.DecodeIntoSlab(row, bad) == nil || row[0] != 42 {
			t.Fatalf("%s: DecodeIntoSlab accepted it or wrote into the row", name)
		}
	}
}
