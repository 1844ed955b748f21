package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"mixnn/internal/tensor"
)

// referenceDecode is the io.Reader walk the byteCursor decoder is held to:
// it reads every field reflectively out of a bytes.Reader and copies every
// payload, and it refuses bytes after a complete param set, as the
// decoders do. Kept as the oracle, not as a second production reader.
func referenceDecode(data []byte) (ParamSet, error) {
	r := bytes.NewReader(data)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || string(magic[:]) != codecMagic {
		return ParamSet{}, fmt.Errorf("bad magic")
	}
	var version uint8
	var layerCount uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil || version != codecVersion {
		return ParamSet{}, fmt.Errorf("bad version")
	}
	if err := binary.Read(r, binary.LittleEndian, &layerCount); err != nil || layerCount > maxDecodeLayers {
		return ParamSet{}, fmt.Errorf("bad layer count")
	}
	totalElems := 0
	var ps ParamSet
	for li := uint32(0); li < layerCount; li++ {
		var nameLen uint16
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return ParamSet{}, err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return ParamSet{}, err
		}
		var tensorCount uint32
		if err := binary.Read(r, binary.LittleEndian, &tensorCount); err != nil || tensorCount > maxDecodeTensors {
			return ParamSet{}, fmt.Errorf("bad tensor count")
		}
		lp := LayerParams{Name: string(name)}
		for ti := uint32(0); ti < tensorCount; ti++ {
			var rank uint8
			if err := binary.Read(r, binary.LittleEndian, &rank); err != nil || rank == 0 || rank > maxDecodeRank {
				return ParamSet{}, fmt.Errorf("bad rank")
			}
			shape := make([]int, rank)
			elems := 1
			for i := range shape {
				var dim uint32
				if err := binary.Read(r, binary.LittleEndian, &dim); err != nil || dim == 0 {
					return ParamSet{}, fmt.Errorf("bad dim")
				}
				if elems > (maxDecodeTotalElements-totalElems)/int(dim) {
					return ParamSet{}, fmt.Errorf("over budget")
				}
				elems *= int(dim)
				shape[i] = int(dim)
			}
			if 8*elems > r.Len() {
				return ParamSet{}, fmt.Errorf("short payload")
			}
			vals := make([]float64, elems)
			if err := binary.Read(r, binary.LittleEndian, vals); err != nil {
				return ParamSet{}, err
			}
			t, err := tensor.FromSlice(vals, shape...)
			if err != nil {
				return ParamSet{}, err
			}
			totalElems += elems
			lp.Tensors = append(lp.Tensors, t)
		}
		ps.Layers = append(ps.Layers, lp)
	}
	if r.Len() != 0 {
		return ParamSet{}, fmt.Errorf("trailing bytes")
	}
	return ps, nil
}

// sameBits reports whether a and b hold the same layers, shapes and
// float64 bit patterns (NaN payloads included).
func sameBits(a, b ParamSet) bool {
	if !a.Compatible(b) {
		return false
	}
	for li := range a.Layers {
		if a.Layers[li].Name != b.Layers[li].Name {
			return false
		}
		for ti, t := range a.Layers[li].Tensors {
			u := b.Layers[li].Tensors[ti].Data()
			for i, v := range t.Data() {
				if math.Float64bits(v) != math.Float64bits(u[i]) {
					return false
				}
			}
		}
	}
	return true
}

// sharesMemory reports whether any tensor of ps lies inside data.
func sharesMemory(ps ParamSet, data []byte) bool {
	if len(data) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(&data[0]))
	hi := lo + uintptr(len(data))
	for _, lp := range ps.Layers {
		for _, t := range lp.Tensors {
			if p := uintptr(unsafe.Pointer(&t.Data()[0])); p >= lo && p < hi {
				return true
			}
		}
	}
	return false
}

// FuzzDecodeParamSet hammers the codec with arbitrary bytes: it must never
// panic or over-allocate, both decoders must accept exactly what the
// reference walk accepts with the same values, DecodeParamSet must not
// alias its input, DecodeParamSetPrefix must stop where a param set ends,
// and anything accepted must re-encode to the bytes it was read from (the
// proxy decodes these bytes from untrusted participants).
func FuzzDecodeParamSet(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	valid, err := EncodeParamSet(randomParamSet(rng, 3, 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("MXPS"))
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	// A complete param set plus one byte: the copying and aliasing
	// decoders once disagreed on it.
	f.Add(append(append([]byte(nil), valid...), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := referenceDecode(data)
		ps, err := DecodeParamSet(data)
		psNC, errNC := DecodeParamSetNoCopy(data)
		if (err == nil) != (werr == nil) || (errNC == nil) != (werr == nil) {
			t.Fatalf("decoder disagreement: reference err=%v, copy err=%v, nocopy err=%v", werr, err, errNC)
		}
		psP, rest, errP := DecodeParamSetPrefix(data)
		if errP == nil {
			head := data[:len(data)-len(rest)]
			if ref, err := referenceDecode(head); err != nil || !sameBits(psP, ref) {
				t.Fatalf("prefix decode of %d bytes differs from the reference (err %v)", len(head), err)
			}
			if sharesMemory(psP, data) {
				t.Fatal("DecodeParamSetPrefix aliased its input")
			}
		}
		if werr != nil {
			return
		}
		if errP != nil || len(rest) != 0 {
			t.Fatalf("prefix decode of a whole param set: err %v, %d bytes left", errP, len(rest))
		}
		if !sameBits(ps, want) || !sameBits(psNC, want) {
			t.Fatal("decoders diverged from the reference walk")
		}
		if sharesMemory(ps, data) {
			t.Fatal("DecodeParamSet aliased its input")
		}
		re, err := EncodeParamSet(ps)
		if err != nil {
			t.Fatalf("decoded ParamSet failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("re-encoding an accepted param set changed its bytes")
		}
	})
}
