package nn

import (
	"bytes"
	"fmt"
	"math"
	"unsafe"

	"mixnn/internal/tensor"
)

// SlabLayout maps one model structure onto a contiguous float64 row: every
// tensor of every layer gets a fixed scalar offset, so a whole update is
// one stride-length slice of a slab and a round of updates is one flat
// allocation instead of thousands of ParamSet/LayerParams/Tensor boxes.
// The layout also precomputes the update's exact wire image — the MXPS
// header bytes with the float payloads zeroed (the "skeleton") — which
// turns both directions of the hot path into bulk byte moves:
//
//   - DecodeIntoSlab validates an incoming wire update by comparing its
//     header segments against the skeleton (structure check by memcmp,
//     no structural walk, no allocation) and copies the payloads straight
//     into the row.
//   - AppendWire re-emits a row as wire bytes by interleaving skeleton
//     header segments with the row's payloads into a caller-reused buffer.
//
// A layout is immutable once built and safe for concurrent use.
type SlabLayout struct {
	stride   int    // scalars per update (= row length)
	wireSize int    // exact encoded size of one update
	skeleton []byte // full wire image, float payloads zeroed
	segs     []slabSeg

	// Structural metadata for materialising ParamSet views over rows.
	// shapes is aliased (not copied) into every view's tensors, which is
	// what makes a view cost zero shape allocations; views are read-only
	// by the mixer contract, so the sharing is safe.
	names  []string
	shapes [][][]int // per layer, per tensor
	offs   [][]int   // per layer, per tensor: scalar offset in the row
	sizes  [][]int   // per layer, per tensor: scalar count
	numT   int       // total tensors per update
}

// slabSeg is one alternation of the wire image: hdrLen header bytes at
// wireOff (verified against / copied from the skeleton) followed by n
// float64 payload scalars that live at row[off:off+n].
type slabSeg struct {
	wireOff int
	hdrLen  int
	off     int
	n       int
}

// NewSlabLayout derives the slab layout of ps's model structure. The
// parameter VALUES of ps are irrelevant (the skeleton's payloads are
// zeroed); only names and shapes matter.
func NewSlabLayout(ps ParamSet) (*SlabLayout, error) {
	if len(ps.Layers) == 0 {
		return nil, fmt.Errorf("nn: slab layout of empty param set")
	}
	skel, err := AppendParamSet(nil, ps)
	if err != nil {
		return nil, fmt.Errorf("nn: slab layout: %w", err)
	}
	l := &SlabLayout{
		wireSize: len(skel),
		skeleton: skel,
		names:    make([]string, len(ps.Layers)),
		shapes:   make([][][]int, len(ps.Layers)),
		offs:     make([][]int, len(ps.Layers)),
		sizes:    make([][]int, len(ps.Layers)),
	}
	pos := 4 + 1 + 4 // magic, version, layer count
	hdrStart := 0
	for li, lp := range ps.Layers {
		l.names[li] = lp.Name
		l.shapes[li] = make([][]int, len(lp.Tensors))
		l.offs[li] = make([]int, len(lp.Tensors))
		l.sizes[li] = make([]int, len(lp.Tensors))
		pos += 2 + len(lp.Name) + 4
		for ti, t := range lp.Tensors {
			shape := t.Shape()
			size := t.Size()
			l.shapes[li][ti] = shape
			l.offs[li][ti] = l.stride
			l.sizes[li][ti] = size
			pos += 1 + 4*len(shape)
			l.segs = append(l.segs, slabSeg{wireOff: hdrStart, hdrLen: pos - hdrStart, off: l.stride, n: size})
			// Zero the template's payload out of the skeleton: only header
			// bytes are meaningful, and the skeleton may outlive the
			// template in pools and error messages.
			for i := pos; i < pos+8*size; i++ {
				skel[i] = 0
			}
			pos += 8 * size
			hdrStart = pos
			l.stride += size
			l.numT++
		}
	}
	if pos > hdrStart {
		// Trailing header bytes after the last payload (a layer with zero
		// tensors at the end) still need verification.
		l.segs = append(l.segs, slabSeg{wireOff: hdrStart, hdrLen: pos - hdrStart})
	}
	if pos != len(skel) {
		return nil, fmt.Errorf("nn: slab layout walk covered %d of %d wire bytes", pos, len(skel))
	}
	return l, nil
}

// SlabLayoutFromWire derives the layout from one encoded update — the
// first update of a round teaches the mixer its structure. The input is
// fully validated (it goes through the untrusted-input decoder).
func SlabLayoutFromWire(data []byte) (*SlabLayout, error) {
	ps, err := DecodeParamSetNoCopy(data)
	if err != nil {
		return nil, err
	}
	return NewSlabLayout(ps)
}

// Stride returns the scalars per update (the row length).
func (l *SlabLayout) Stride() int { return l.stride }

// Skeleton returns the layout's zero-payload wire image. Two layouts
// describe the same model structure iff their skeletons are equal, which
// is how the slab pool matches recycled chunks to mixers. Callers must
// not mutate it.
func (l *SlabLayout) Skeleton() []byte { return l.skeleton }

// Matches reports whether ps has exactly this layout's structure (same
// layer names, tensor order and shapes).
func (l *SlabLayout) Matches(ps ParamSet) bool {
	if len(ps.Layers) != len(l.names) {
		return false
	}
	for li, lp := range ps.Layers {
		if lp.Name != l.names[li] || len(lp.Tensors) != len(l.shapes[li]) {
			return false
		}
		for ti, t := range lp.Tensors {
			want := l.shapes[li][ti]
			if t.Rank() != len(want) {
				return false
			}
			for d, dim := range want {
				if t.Dim(d) != dim {
					return false
				}
			}
		}
	}
	return true
}

// CheckWire reports whether data is one encoded update of exactly this
// layout's structure: the right size, and every header segment equal to
// the skeleton's byte for byte — stricter than the general decoder in
// that it also pins names, order and shapes. It reads only the header
// bytes (a few hundred per update) and allocates nothing, so a receiver
// can validate a whole batch before it copies any of it.
func (l *SlabLayout) CheckWire(data []byte) error {
	if len(data) != l.wireSize {
		return fmt.Errorf("nn: update is %d bytes, layout needs exactly %d", len(data), l.wireSize)
	}
	for _, s := range l.segs {
		if !bytes.Equal(data[s.wireOff:s.wireOff+s.hdrLen], l.skeleton[s.wireOff:s.wireOff+s.hdrLen]) {
			return fmt.Errorf("nn: update structure does not match the round's slab layout")
		}
	}
	return nil
}

// DecodeIntoSlab parses one encoded update directly into row (which must
// be Stride() long): the structure is verified with CheckWire and the
// float payloads are bulk-copied into the row. It allocates nothing, and
// a rejected update leaves row untouched. On a big-endian host the
// payload copy falls back to per-element conversion; misaligned input
// costs nothing extra, because the destination row (not the wire buffer)
// is the aligned side.
func (l *SlabLayout) DecodeIntoSlab(row []float64, data []byte) error {
	if len(row) != l.stride {
		return fmt.Errorf("nn: slab row has %d scalars, layout needs %d", len(row), l.stride)
	}
	if err := l.CheckWire(data); err != nil {
		return err
	}
	for _, s := range l.segs {
		if s.n == 0 {
			continue
		}
		src := data[s.wireOff+s.hdrLen : s.wireOff+s.hdrLen+8*s.n]
		dst := row[s.off : s.off+s.n]
		if hostLittleEndian {
			// The destination is float64-aligned by construction; viewing
			// it as bytes (alignment 1) makes the copy legal regardless of
			// the wire buffer's alignment.
			copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*s.n), src)
		} else {
			for i := range dst {
				dst[i] = math.Float64frombits(uint64(src[8*i]) | uint64(src[8*i+1])<<8 |
					uint64(src[8*i+2])<<16 | uint64(src[8*i+3])<<24 |
					uint64(src[8*i+4])<<32 | uint64(src[8*i+5])<<40 |
					uint64(src[8*i+6])<<48 | uint64(src[8*i+7])<<56)
			}
		}
	}
	return nil
}

// CopyIntoRow files an already-decoded update into row after checking it
// against the layout. It is the slab ingress for callers that hold a
// ParamSet (batch items, seal restores) rather than wire bytes.
func (l *SlabLayout) CopyIntoRow(row []float64, ps ParamSet) error {
	if len(row) != l.stride {
		return fmt.Errorf("nn: slab row has %d scalars, layout needs %d", len(row), l.stride)
	}
	if !l.Matches(ps) {
		return fmt.Errorf("nn: update structure does not match the round's slab layout")
	}
	for li := range ps.Layers {
		for ti, t := range ps.Layers[li].Tensors {
			off := l.offs[li][ti]
			copy(row[off:off+l.sizes[li][ti]], t.Data())
		}
	}
	return nil
}

// AppendWire re-encodes one row as wire bytes, appending to buf (which
// the caller reuses across updates): skeleton header segments interleaved
// with the row's payloads, so the result is byte-identical to
// EncodeParamSet of the row's view. Allocation-free once buf has grown
// to capacity.
func (l *SlabLayout) AppendWire(buf []byte, row []float64) ([]byte, error) {
	if len(row) != l.stride {
		return buf, fmt.Errorf("nn: slab row has %d scalars, layout needs %d", len(row), l.stride)
	}
	for _, s := range l.segs {
		buf = append(buf, l.skeleton[s.wireOff:s.wireOff+s.hdrLen]...)
		if s.n == 0 {
			continue
		}
		src := row[s.off : s.off+s.n]
		if hostLittleEndian {
			buf = append(buf, unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), 8*s.n)...)
		} else {
			var scratch [8]byte
			for _, v := range src {
				bits := math.Float64bits(v)
				for b := 0; b < 8; b++ {
					scratch[b] = byte(bits >> (8 * b))
				}
				buf = append(buf, scratch[:]...)
			}
		}
	}
	return buf, nil
}

// NewChunkViews materialises ParamSet views for rows consecutive rows of
// data (which must hold rows*Stride() scalars): views[r].Layers[li]
// aliases row r's slab storage. The whole chunk's view structures come
// from a handful of bulk allocations — O(1) allocations per CHUNK, not
// per row — which is what amortises per-update view cost to ~zero. The
// views alias the layout's shape slices and must be treated as
// read-only structure (mixers only swap LayerParams values, so they
// qualify).
func (l *SlabLayout) NewChunkViews(data []float64, rows int) []ParamSet {
	if len(data) < rows*l.stride {
		panic(fmt.Sprintf("nn: chunk of %d scalars cannot hold %d rows of stride %d", len(data), rows, l.stride))
	}
	L := len(l.names)
	sets := make([]ParamSet, rows)
	layers := make([]LayerParams, rows*L)
	tens := make([]tensor.Tensor, rows*l.numT)
	ptrs := make([]*tensor.Tensor, rows*l.numT)
	ti := 0
	for r := 0; r < rows; r++ {
		row := data[r*l.stride : (r+1)*l.stride]
		lps := layers[r*L : (r+1)*L : (r+1)*L]
		for li := range l.names {
			nT := len(l.offs[li])
			lps[li].Name = l.names[li]
			lps[li].Tensors = ptrs[ti : ti+nT : ti+nT]
			for k := 0; k < nT; k++ {
				off := l.offs[li][k]
				tensor.View(&tens[ti], row[off:off+l.sizes[li][k]], l.shapes[li][k])
				ptrs[ti] = &tens[ti]
				ti++
			}
		}
		sets[r] = ParamSet{Layers: lps}
	}
	return sets
}
