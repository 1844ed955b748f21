package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"mixnn/internal/tensor"
)

// Binary wire format for ParamSet (little-endian):
//
//	magic   [4]byte  "MXPS"
//	version uint8    (1)
//	layers  uint32
//	per layer:
//	  nameLen uint16, name []byte
//	  tensors uint32
//	  per tensor:
//	    rank uint8, dims [rank]uint32, data [prod(dims)]float64
//
// The decoder validates structure against hard limits before allocating, so
// it is safe on untrusted input (the MixNN proxy decodes ciphertexts from
// arbitrary participants).
const (
	codecMagic   = "MXPS"
	codecVersion = 1

	// maxDecode* bound allocations while decoding untrusted input.
	maxDecodeLayers        = 4096
	maxDecodeTensors       = 256
	maxDecodeRank          = 8
	maxDecodeTotalElements = 1 << 26 // 64M scalars = 512 MiB of float64
)

// EncodedSize returns the exact number of bytes EncodeParamSet will emit.
func EncodedSize(ps ParamSet) int {
	n := 4 + 1 + 4
	for _, lp := range ps.Layers {
		n += 2 + len(lp.Name) + 4
		for _, t := range lp.Tensors {
			n += 1 + 4*t.Rank() + 8*t.Size()
		}
	}
	return n
}

// EncodeParamSet serialises ps into the binary wire format.
func EncodeParamSet(ps ParamSet) ([]byte, error) {
	return AppendParamSet(make([]byte, 0, EncodedSize(ps)), ps)
}

// AppendParamSet serialises ps into the binary wire format, appending to
// buf and returning the extended slice. It is the allocation-conscious
// sibling of EncodeParamSet: the round-close packaging encodes a whole
// round of updates back-to-back into ONE reused buffer, so per-update
// encode cost is a bulk byte copy instead of a bytes.Buffer plus a
// scratch slice per tensor.
func AppendParamSet(buf []byte, ps ParamSet) ([]byte, error) {
	buf = append(buf, codecMagic...)
	buf = append(buf, codecVersion)
	buf = appendU32(buf, uint32(len(ps.Layers)))
	for _, lp := range ps.Layers {
		if len(lp.Name) > math.MaxUint16 {
			return nil, fmt.Errorf("nn: layer name %q too long", lp.Name[:32])
		}
		buf = append(buf, byte(len(lp.Name)), byte(len(lp.Name)>>8))
		buf = append(buf, lp.Name...)
		buf = appendU32(buf, uint32(len(lp.Tensors)))
		for _, t := range lp.Tensors {
			// Rank/Dim instead of Shape(): the defensive shape copy was one
			// allocation per tensor, which dominated the whole encode.
			rank := t.Rank()
			buf = append(buf, byte(rank))
			for i := 0; i < rank; i++ {
				buf = appendU32(buf, uint32(t.Dim(i)))
			}
			data := t.Data()
			if hostLittleEndian && len(data) > 0 {
				// The host representation already IS the wire payload;
				// viewing the floats as bytes (alignment 1) is always legal.
				buf = append(buf, unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 8*len(data))...)
			} else {
				for _, v := range data {
					bits := math.Float64bits(v)
					buf = append(buf, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
						byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
				}
			}
		}
	}
	return buf, nil
}

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// DecodeParamSet parses the binary wire format produced by EncodeParamSet.
func DecodeParamSet(data []byte) (ParamSet, error) {
	return ReadParamSet(bytes.NewReader(data))
}

// ReadParamSet streams a ParamSet from r, validating structural limits
// before allocating.
func ReadParamSet(r io.Reader) (ParamSet, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return ParamSet{}, fmt.Errorf("nn: read magic: %w", err)
	}
	if string(magic[:]) != codecMagic {
		return ParamSet{}, fmt.Errorf("nn: bad magic %q", magic)
	}
	var version uint8
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return ParamSet{}, fmt.Errorf("nn: read version: %w", err)
	}
	if version != codecVersion {
		return ParamSet{}, fmt.Errorf("nn: unsupported codec version %d", version)
	}
	var layerCount uint32
	if err := binary.Read(r, binary.LittleEndian, &layerCount); err != nil {
		return ParamSet{}, fmt.Errorf("nn: read layer count: %w", err)
	}
	if layerCount > maxDecodeLayers {
		return ParamSet{}, fmt.Errorf("nn: layer count %d exceeds limit %d", layerCount, maxDecodeLayers)
	}
	totalElems := 0
	ps := ParamSet{Layers: make([]LayerParams, 0, layerCount)}
	for li := uint32(0); li < layerCount; li++ {
		var nameLen uint16
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return ParamSet{}, fmt.Errorf("nn: read name length: %w", err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return ParamSet{}, fmt.Errorf("nn: read name: %w", err)
		}
		var tensorCount uint32
		if err := binary.Read(r, binary.LittleEndian, &tensorCount); err != nil {
			return ParamSet{}, fmt.Errorf("nn: read tensor count: %w", err)
		}
		if tensorCount > maxDecodeTensors {
			return ParamSet{}, fmt.Errorf("nn: tensor count %d exceeds limit %d", tensorCount, maxDecodeTensors)
		}
		lp := LayerParams{Name: string(name), Tensors: make([]*tensor.Tensor, 0, tensorCount)}
		for ti := uint32(0); ti < tensorCount; ti++ {
			t, n, err := readTensor(r, maxDecodeTotalElements-totalElems)
			if err != nil {
				return ParamSet{}, fmt.Errorf("nn: layer %q tensor %d: %w", lp.Name, ti, err)
			}
			totalElems += n
			lp.Tensors = append(lp.Tensors, t)
		}
		ps.Layers = append(ps.Layers, lp)
	}
	return ps, nil
}

func readTensor(r io.Reader, remainingBudget int) (*tensor.Tensor, int, error) {
	var rank uint8
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return nil, 0, fmt.Errorf("read rank: %w", err)
	}
	if rank == 0 || rank > maxDecodeRank {
		return nil, 0, fmt.Errorf("rank %d outside [1,%d]", rank, maxDecodeRank)
	}
	shape := make([]int, rank)
	elems := 1
	for i := range shape {
		var d uint32
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return nil, 0, fmt.Errorf("read dim: %w", err)
		}
		if d == 0 {
			return nil, 0, fmt.Errorf("zero dimension")
		}
		if elems > remainingBudget/int(d) {
			return nil, 0, fmt.Errorf("tensor exceeds element budget")
		}
		elems *= int(d)
		shape[i] = int(d)
	}
	raw := make([]byte, 8*elems)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, 0, fmt.Errorf("read data: %w", err)
	}
	data := make([]float64, elems)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	t, err := tensor.FromSlice(data, shape...)
	if err != nil {
		return nil, 0, err
	}
	return t, elems, nil
}
