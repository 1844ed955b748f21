package wire

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"
)

func TestReadBodyBounds(t *testing.T) {
	const bound = 4096
	payload := bytes.Repeat([]byte("0123456789abcdef"), 200) // 3200 bytes
	for _, tc := range []struct {
		name    string
		body    []byte
		n       int64
		wantErr string
	}{
		{name: "exact", body: payload, n: int64(len(payload))},
		{name: "undeclared", body: payload, n: -1},
		{name: "empty declared", body: nil, n: 0},
		{name: "empty undeclared", body: nil, n: -1},
		{name: "at the bound", body: make([]byte, bound), n: bound},
		{name: "undeclared at the bound", body: make([]byte, bound), n: -1},
		{name: "short of its declaration", body: payload[:100], n: 200, wantErr: "wire: read body: unexpected EOF"},
		{name: "declared over the bound", body: payload, n: bound + 1, wantErr: "wire: body exceeds 4096 bytes"},
		{name: "undeclared over the bound", body: make([]byte, bound+1), n: -1, wantErr: "wire: body exceeds 4096 bytes"},
	} {
		for _, lease := range []int{0, 64, 8192} {
			src := bytes.NewReader(tc.body)
			buf := bytes.Repeat([]byte{0xEE}, lease)
			got, err := ReadBody(buf, iotest.HalfReader(src), tc.n, bound) // arrives in pieces
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("%s (lease %d): err = %v, want %q", tc.name, lease, err, tc.wantErr)
				}
				if tc.n > bound && src.Len() != len(tc.body) {
					t.Fatalf("%s: %d bytes read before an over-long declaration was refused", tc.name, len(tc.body)-src.Len())
				}
				continue
			}
			if err != nil || !bytes.Equal(got, tc.body) {
				t.Fatalf("%s (lease %d): read %d bytes, err %v; want %d bytes", tc.name, lease, len(got), err, len(tc.body))
			}
			if lease > bound && unsafe.SliceData(got) != unsafe.SliceData(buf) {
				t.Fatalf("%s (lease %d): a large-enough buffer was not used", tc.name, lease)
			}
		}
	}
	// Bytes past the declared length are left unread.
	got, err := ReadBody(nil, bytes.NewReader(payload), 10, bound)
	if err != nil || !bytes.Equal(got, payload[:10]) {
		t.Fatalf("declared prefix: %q, %v", got, err)
	}
}

// TestReadBodyAllocationTrailsBytesReceived pins the sizing rule: a peer
// that declares a huge body commits the reader to memory only as its
// bytes arrive — one first step for a silent peer, at most double what a
// talking one has sent — and a declared body that does arrive ends in a
// buffer of exactly its length after a handful of steps.
func TestReadBodyAllocationTrailsBytesReceived(t *testing.T) {
	for _, sent := range []int{0, 1, knownFirstStep, 3 * knownFirstStep} {
		errStalled := errors.New("peer went quiet")
		r := io.MultiReader(bytes.NewReader(make([]byte, sent)), iotest.ErrReader(errStalled))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBody(nil, r, MaxBodyBytes, MaxBodyBytes)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errStalled) {
			t.Fatalf("stalled read: %v", err)
		}
		got := int(after.TotalAlloc - before.TotalAlloc)
		// Geometric growth: the buffers allocated on the way sum to less
		// than twice the last one, which is at most double the bytes held.
		if ceiling := 4*max(sent, knownFirstStep) + 4096; got > ceiling {
			t.Fatalf("peer sent %d of a declared %d bytes: reader allocated %d, ceiling %d", sent, MaxBodyBytes, got, ceiling)
		}
	}
	const n = 2_700_000
	body := make([]byte, n)
	got, err := ReadBody(nil, bytes.NewReader(body), n, MaxBodyBytes)
	if err != nil || len(got) != n || cap(got) != n {
		t.Fatalf("declared body: len %d cap %d err %v, want an exact %d-byte buffer", len(got), cap(got), err, n)
	}
	// Each buffer the body passed through shows as a distinct base address
	// under the reads: 1MB, 2MB, then the exact length.
	bases := map[uintptr]bool{}
	var read int
	counting := readerFunc(func(p []byte) (int, error) {
		bases[uintptr(unsafe.Pointer(unsafe.SliceData(p)))-uintptr(read)] = true
		m := copy(p, body[read:])
		read += m
		return m, nil
	})
	if _, err := ReadBody(nil, counting, n, MaxBodyBytes); err != nil || len(bases) > 3 {
		t.Fatalf("a first-time %d-byte body took %d buffers (err %v), want at most 3", n, len(bases), err)
	}
}

type readerFunc func(p []byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

func TestWriteDecodeJSONRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	in := ServerStatus{Round: 3, UpdatesInRound: 2, ExpectPerRound: 5}
	WriteJSON(rec, in)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var out ServerStatus
	if err := DecodeJSON(rec.Body, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}

func TestDecodeJSONRejectsGarbage(t *testing.T) {
	var out ServerStatus
	if err := DecodeJSON(strings.NewReader("{not json"), &out); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestBatchEnvelopeRoundTrip(t *testing.T) {
	in := BatchEnvelope{Updates: [][]byte{[]byte("alpha"), []byte("b"), {}}}
	raw, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBatchEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Updates) != 3 {
		t.Fatalf("decoded %d updates, want 3", len(out.Updates))
	}
	for i := range in.Updates {
		if string(out.Updates[i]) != string(in.Updates[i]) {
			t.Fatalf("update %d = %q, want %q", i, out.Updates[i], in.Updates[i])
		}
	}
}

func TestBatchEnvelopeRejects(t *testing.T) {
	if _, err := (BatchEnvelope{}).Encode(); err == nil {
		t.Fatal("empty envelope encoded")
	}
	good, err := BatchEnvelope{Updates: [][]byte{[]byte("payload")}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("ZZZZ"), good[4:]...),
		"version":   func() []byte { b := append([]byte(nil), good...); b[4] = 9; return b }(),
		"truncated": good[:len(good)-2],
		"trailing":  append(append([]byte(nil), good...), 1),
		"forged count": func() []byte {
			b := append([]byte(nil), good...)
			b[5], b[6] = 0xFF, 0xFF // claim 65535 updates against a tiny body
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := DecodeBatchEnvelope(data); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestParseHop(t *testing.T) {
	h := http.Header{}
	if hop, err := ParseHop(h); err != nil || hop != 0 {
		t.Fatalf("missing header: hop=%d err=%v, want 0, nil", hop, err)
	}
	for _, want := range []int{0, 1, 7} {
		h.Set(HeaderHop, strconv.Itoa(want))
		hop, err := ParseHop(h)
		if err != nil || hop != want {
			t.Fatalf("hop %d: got %d, %v", want, hop, err)
		}
	}
	for _, bad := range []string{"-1", "x", "1.5"} {
		h.Set(HeaderHop, bad)
		if _, err := ParseHop(h); err == nil {
			t.Fatalf("hop %q accepted", bad)
		}
	}
}
