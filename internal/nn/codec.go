package nn

import (
	"encoding/binary"
	"fmt"
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

// hostLittleEndian reports whether the host stores multi-byte words in
// the wire format's byte order; only then can tensor payloads be aliased
// or bulk-copied instead of converted.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// DecodeParamSet parses the binary wire format produced by EncodeParamSet.
// The result owns its storage: nothing in it shares memory with data, so
// data may be reused or shared once it returns (the SDK decodes the
// aggregator's cached model body this way).
func DecodeParamSet(data []byte) (ParamSet, error) {
	return decodeWhole(data, false)
}

// DecodeParamSetNoCopy parses the binary wire format like DecodeParamSet
// but, where possible, aliases each tensor's storage directly over the
// input buffer instead of copying it — the §6.5 "store" stage of the
// proxy then costs a structural walk rather than a full second copy of
// the update. A tensor payload is aliased when the host is little-endian
// and the payload happens to sit 8-byte aligned in data; other tensors
// are copied, so the result is always correct.
//
// Ownership contract: the returned ParamSet shares memory with data. The
// caller must neither modify data afterwards nor mutate the returned
// tensors in place. The MixNN proxy satisfies both: each decrypted update
// buffer is owned by the ingesting request, and mixers only ever swap
// layer pointers.
func DecodeParamSetNoCopy(data []byte) (ParamSet, error) {
	return decodeWhole(data, true)
}

// DecodeParamSetPrefix decodes the param set at the start of data, copying
// like DecodeParamSet, and returns the bytes that follow it: the reader of
// param sets stored back to back.
func DecodeParamSetPrefix(data []byte) (ParamSet, []byte, error) {
	d := byteCursor{buf: data}
	ps, err := d.paramSet(false)
	if err != nil {
		return ParamSet{}, nil, err
	}
	return ps, data[d.off:], nil
}

func decodeWhole(data []byte, alias bool) (ParamSet, error) {
	d := byteCursor{buf: data}
	ps, err := d.paramSet(alias)
	if err != nil {
		return ParamSet{}, err
	}
	if d.off != len(data) {
		return ParamSet{}, fmt.Errorf("nn: %d trailing bytes after param set", len(data)-d.off)
	}
	return ps, nil
}

// byteCursor walks a byte slice with bounds checking: the format's one
// reader. It validates structure against the decode limits before
// allocating, and keeps offsets, which is what aliasing needs.
type byteCursor struct {
	buf []byte
	off int
}

// paramSet decodes one param set from the cursor. With alias set, aligned
// tensor payloads share the input (DecodeParamSetNoCopy); otherwise every
// payload is copied.
func (d *byteCursor) paramSet(alias bool) (ParamSet, error) {
	magic, err := d.take(4)
	if err != nil || string(magic) != codecMagic {
		return ParamSet{}, fmt.Errorf("nn: bad magic %q", magic)
	}
	version, err := d.u8()
	if err != nil {
		return ParamSet{}, fmt.Errorf("nn: read version: %w", err)
	}
	if version != codecVersion {
		return ParamSet{}, fmt.Errorf("nn: unsupported codec version %d", version)
	}
	layerCount, err := d.u32()
	if err != nil {
		return ParamSet{}, fmt.Errorf("nn: read layer count: %w", err)
	}
	if layerCount > maxDecodeLayers {
		return ParamSet{}, fmt.Errorf("nn: layer count %d exceeds limit %d", layerCount, maxDecodeLayers)
	}
	totalElems := 0
	ps := ParamSet{Layers: make([]LayerParams, 0, layerCount)}
	for li := uint32(0); li < layerCount; li++ {
		nameLen, err := d.u16()
		if err != nil {
			return ParamSet{}, fmt.Errorf("nn: read name length: %w", err)
		}
		name, err := d.take(int(nameLen))
		if err != nil {
			return ParamSet{}, fmt.Errorf("nn: read name: %w", err)
		}
		tensorCount, err := d.u32()
		if err != nil {
			return ParamSet{}, fmt.Errorf("nn: read tensor count: %w", err)
		}
		if tensorCount > maxDecodeTensors {
			return ParamSet{}, fmt.Errorf("nn: tensor count %d exceeds limit %d", tensorCount, maxDecodeTensors)
		}
		lp := LayerParams{Name: string(name), Tensors: make([]*tensor.Tensor, 0, tensorCount)}
		for ti := uint32(0); ti < tensorCount; ti++ {
			t, n, err := d.tensor(maxDecodeTotalElements-totalElems, alias)
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

func (d *byteCursor) take(n int) ([]byte, error) {
	if n < 0 || n > len(d.buf)-d.off {
		return nil, fmt.Errorf("need %d bytes, have %d", n, len(d.buf)-d.off)
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b, nil
}

func (d *byteCursor) u8() (uint8, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *byteCursor) u16() (uint16, error) {
	b, err := d.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (d *byteCursor) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *byteCursor) tensor(remainingBudget int, alias bool) (*tensor.Tensor, int, error) {
	rank, err := d.u8()
	if err != nil {
		return nil, 0, fmt.Errorf("read rank: %w", err)
	}
	if rank == 0 || rank > maxDecodeRank {
		return nil, 0, fmt.Errorf("rank %d outside [1,%d]", rank, maxDecodeRank)
	}
	shape := make([]int, rank)
	elems := 1
	for i := range shape {
		dim, err := d.u32()
		if err != nil {
			return nil, 0, fmt.Errorf("read dim: %w", err)
		}
		if dim == 0 {
			return nil, 0, fmt.Errorf("zero dimension")
		}
		if elems > remainingBudget/int(dim) {
			return nil, 0, fmt.Errorf("tensor exceeds element budget")
		}
		elems *= int(dim)
		shape[i] = int(dim)
	}
	raw, err := d.take(8 * elems)
	if err != nil {
		return nil, 0, fmt.Errorf("read data: %w", err)
	}
	var data []float64
	if alias && hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		// The payload already IS the little-endian float64 slice; alias it
		// (alignment-checked, so -race/checkptr is happy).
		data = unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), elems)
	} else if hostLittleEndian {
		// The fresh slice is the aligned side, so viewing it as bytes
		// makes one bulk copy legal whatever raw's alignment.
		data = make([]float64, elems)
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 8*elems), raw)
	} else {
		data = make([]float64, elems)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	t, err := tensor.FromSlice(data, shape...)
	if err != nil {
		return nil, 0, err
	}
	return t, elems, nil
}
