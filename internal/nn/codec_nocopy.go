package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"mixnn/internal/tensor"
)

// hostLittleEndian reports whether the host stores multi-byte words in
// the wire format's byte order; only then can tensor payloads be aliased
// instead of converted.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// DecodeParamSetNoCopy parses the binary wire format like DecodeParamSet
// but, where possible, aliases each tensor's storage directly over the
// input buffer instead of copying it — the §6.5 "store" stage of the
// proxy then costs a structural walk rather than a full second copy of
// the update. A tensor payload is aliased when the host is little-endian
// and the payload happens to sit 8-byte aligned in data; other tensors
// fall back to the converting path, so the result is always correct.
//
// Ownership contract: the returned ParamSet shares memory with data. The
// caller must neither modify data afterwards nor mutate the returned
// tensors in place. The MixNN proxy satisfies both: each decrypted update
// buffer is owned by the ingesting request, and mixers only ever swap
// layer pointers.
func DecodeParamSetNoCopy(data []byte) (ParamSet, error) {
	d := byteCursor{buf: data}
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
			t, n, err := d.tensorNoCopy(maxDecodeTotalElements - totalElems)
			if err != nil {
				return ParamSet{}, fmt.Errorf("nn: layer %q tensor %d: %w", lp.Name, ti, err)
			}
			totalElems += n
			lp.Tensors = append(lp.Tensors, t)
		}
		ps.Layers = append(ps.Layers, lp)
	}
	if d.off != len(d.buf) {
		return ParamSet{}, fmt.Errorf("nn: %d trailing bytes after param set", len(d.buf)-d.off)
	}
	return ps, nil
}

// byteCursor walks a byte slice with bounds checking; unlike the
// io.Reader-based decoder it keeps offsets, which is what aliasing needs.
type byteCursor struct {
	buf []byte
	off int
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

func (d *byteCursor) tensorNoCopy(remainingBudget int) (*tensor.Tensor, int, error) {
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
	if hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		// Fast path: the payload already IS the little-endian float64
		// slice; alias it (alignment-checked, so -race/checkptr is happy).
		data = unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), elems)
	} else if hostLittleEndian {
		// Misaligned: the fresh slice is the aligned side, so viewing it as
		// bytes makes one bulk copy legal whatever raw's alignment.
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
