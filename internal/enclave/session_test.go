package enclave

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
)

var (
	sessFixOnce sync.Once
	sessFixEncl *Enclave
)

// sessionFixture shares one small-key enclave across the session tests
// (RSA keygen dominates otherwise).
func sessionFixture(t testing.TB) *Enclave {
	t.Helper()
	sessFixOnce.Do(func() {
		platform, err := NewPlatform()
		if err != nil {
			panic(err)
		}
		if sessFixEncl, err = New(Config{RSABits: 1024}, platform); err != nil {
			panic(err)
		}
	})
	return sessFixEncl
}

// hybridCiphertext builds the one-shot layout the enclave used to open
// and no sender produces any more — u16 wrappedKeyLen | RSA-OAEP wrapped
// AES-256 key | 12-byte nonce | AES-GCM ciphertext — so the tests can
// show a well-formed one is refused.
func hybridCiphertext(t testing.TB, pub *rsa.PublicKey, plaintext []byte) []byte {
	t.Helper()
	key := make([]byte, 32)
	nonce := make([]byte, gcmNonceSize)
	for _, b := range [][]byte{key, nonce} {
		if _, err := rand.Read(b); err != nil {
			t.Fatal(err)
		}
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, pub, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	aead, err := newSessionAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	out := binary.LittleEndian.AppendUint16(nil, uint16(len(wrapped)))
	out = append(append(out, wrapped...), nonce...)
	return aead.Seal(out, nonce, plaintext, nil)
}

func TestSessionRoundTripAndLegacyInterleave(t *testing.T) {
	e := sessionFixture(t)
	e.ResetSessions()
	before := e.Stats() // lifetime counters persist across the shared fixture
	sess, err := NewSession(e.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{[]byte("establish payload"), []byte("second"), []byte("third")}
	for i, msg := range msgs {
		ct, err := sess.Wrap(msg)
		if err != nil {
			t.Fatalf("wrap %d: %v", i, err)
		}
		plain, err := e.Decrypt(ct)
		if err != nil {
			t.Fatalf("decrypt %d: %v", i, err)
		}
		if !bytes.Equal(plain, msg) {
			t.Fatalf("decrypt %d: plaintext mismatch", i)
		}
	}
	st := e.Stats()
	if est := st.SessionsEstablished - before.SessionsEstablished; st.SessionsActive != 1 || est != 1 {
		t.Fatalf("active/established = %d/%d, want 1/1", st.SessionsActive, est)
	}
	if hits := st.SessionHits - before.SessionHits; hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	// The retired one-shot layout, well-formed and wrapped for this very
	// enclave, is not opened: no RSA unwrap, no session, nothing counted.
	if _, err := e.Decrypt(hybridCiphertext(t, e.PublicKey(), msgs[0])); !errors.Is(err, ErrCiphertext) {
		t.Fatalf("hybrid ciphertext: got %v, want ErrCiphertext", err)
	}
	if after := e.Stats(); after != st {
		t.Fatalf("refused hybrid ciphertext moved the enclave stats: %+v -> %+v", st, after)
	}
}

func TestSessionUnknownAndReplay(t *testing.T) {
	e := sessionFixture(t)
	e.ResetSessions()
	before := e.Stats()
	sess, err := NewSession(e.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	est, _ := sess.Wrap([]byte("first"))
	data, _ := sess.Wrap([]byte("second"))

	// Data before establish: the enclave has never seen the session.
	if _, err := e.Decrypt(data); !errors.Is(err, ErrSessionUnknown) {
		t.Fatalf("pre-establish data: got %v, want ErrSessionUnknown", err)
	}
	if _, err := e.Decrypt(est); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Decrypt(data); err != nil {
		t.Fatal(err)
	}
	// Counter reuse: the identical ciphertext must be rejected as a
	// replay, not re-ingested.
	if _, err := e.Decrypt(data); !errors.Is(err, ErrSessionReplay) {
		t.Fatalf("replay: got %v, want ErrSessionReplay", err)
	}
	// A restart (volatile session loss) turns data traffic into the
	// typed unknown-session rejection that drives re-establishment.
	e.ResetSessions()
	if _, err := e.Decrypt(data); !errors.Is(err, ErrSessionUnknown) {
		t.Fatalf("post-reset data: got %v, want ErrSessionUnknown", err)
	}
	st := e.Stats()
	replays, misses := st.SessionReplays-before.SessionReplays, st.SessionMisses-before.SessionMisses
	if replays != 1 || misses != 2 {
		t.Fatalf("replays/misses = %d/%d, want 1/2", replays, misses)
	}
}

func TestSessionReorderWindow(t *testing.T) {
	e := sessionFixture(t)
	e.ResetSessions()
	sess, err := NewSession(e.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	cts := make([][]byte, 80)
	for i := range cts {
		if cts[i], err = sess.Wrap([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Decrypt(cts[0]); err != nil { // establish
		t.Fatal(err)
	}
	// Jump ahead: counter 70 admitted first, then modest reordering
	// within the 64-counter window is admitted exactly once each.
	if _, err := e.Decrypt(cts[70]); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{69, 10, 42} {
		if _, err := e.Decrypt(cts[i]); err != nil {
			t.Fatalf("reordered counter %d: %v", i, err)
		}
		if _, err := e.Decrypt(cts[i]); !errors.Is(err, ErrSessionReplay) {
			t.Fatalf("re-admitted counter %d: %v", i, err)
		}
	}
	// Counter 5 fell 65 behind the high-watermark: outside the window.
	if _, err := e.Decrypt(cts[5]); !errors.Is(err, ErrSessionReplay) {
		t.Fatalf("stale counter: got %v, want ErrSessionReplay", err)
	}
}

func TestSessionCacheEvictionAndEPCAccounting(t *testing.T) {
	platform, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{RSABits: 1024, SessionCacheEntries: 2}, platform)
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]*Session, 3)
	data := make([][]byte, 3)
	for i := range sessions {
		if sessions[i], err = NewSession(e.PublicKey()); err != nil {
			t.Fatal(err)
		}
		est, _ := sessions[i].Wrap([]byte("hello"))
		if data[i], err = sessions[i].Wrap([]byte("steady")); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Decrypt(est); err != nil {
			t.Fatal(err)
		}
	}
	// Session 0 was evicted by the third establish; 1 and 2 survive.
	if _, err := e.Decrypt(data[0]); !errors.Is(err, ErrSessionUnknown) {
		t.Fatalf("evicted session: got %v, want ErrSessionUnknown", err)
	}
	for i := 1; i < 3; i++ {
		if _, err := e.Decrypt(data[i]); err != nil {
			t.Fatalf("surviving session %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.SessionsActive != 2 || st.SessionEvictions != 1 {
		t.Fatalf("active/evictions = %d/%d, want 2/1", st.SessionsActive, st.SessionEvictions)
	}
	if want := 2 * sessionEPCBytes; st.MemoryUsedBytes != want {
		t.Fatalf("EPC accounted %d bytes, want %d", st.MemoryUsedBytes, want)
	}
	e.ResetSessions()
	if st := e.Stats(); st.MemoryUsedBytes != 0 || st.SessionsActive != 0 {
		t.Fatalf("after reset: used/active = %d/%d, want 0/0", st.MemoryUsedBytes, st.SessionsActive)
	}
}

func TestSessionCrossSessionSplice(t *testing.T) {
	e := sessionFixture(t)
	e.ResetSessions()
	a, _ := NewSession(e.PublicKey())
	b, _ := NewSession(e.PublicKey())
	for _, s := range []*Session{a, b} {
		est, _ := s.Wrap([]byte("hi"))
		if _, err := e.Decrypt(est); err != nil {
			t.Fatal(err)
		}
	}
	ctA, _ := a.Wrap([]byte("payload"))
	before := e.Stats()
	// Graft session B's id onto A's data message: the header is bound
	// as AAD, so the splice must fail authentication, not decrypt under
	// B's key or perturb B's replay window.
	spliced := append([]byte(nil), ctA...)
	copy(spliced[5:5+sessionIDSize], b.sid[:])
	if _, err := e.Decrypt(spliced); !errors.Is(err, ErrCiphertext) {
		t.Fatalf("spliced sid: got %v, want ErrCiphertext", err)
	}
	if st := e.Stats(); st.SessionReplays != before.SessionReplays {
		t.Fatal("splice perturbed replay state")
	}
}

func TestSessionWrapAllocations(t *testing.T) {
	e := sessionFixture(t)
	sess, err := NewSession(e.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wrap(make([]byte, 64)); err != nil { // consume the establish
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sess.Wrap(payload); err != nil {
			t.Fatal(err)
		}
	})
	// One output buffer per wrap, the nonce in its tail; the cipher and
	// GCM instances are reused across the session.
	if allocs > 1 {
		t.Fatalf("Wrap allocates %.1f times per update, want <= 1", allocs)
	}
}

// TestWrapToReusesCallerBuffer: a data frame sealed into a dst whose
// capacity holds it lands in dst's storage without allocating — through
// the Session and through a Sender — and opens to the same plaintext; a
// too-small dst gets a fresh buffer.
func TestWrapToReusesCallerBuffer(t *testing.T) {
	e := sessionFixture(t)
	snd := NewSender(PinnedHop(e.PublicKey(), e.Measurement()))
	payload := bytes.Repeat([]byte("mixnn"), 200)
	est, sess, err := snd.WrapTo(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Decrypt(est); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 2*len(payload))
	for _, c := range []struct {
		name string
		wrap func(dst []byte) ([]byte, error)
	}{
		{"Session", func(dst []byte) ([]byte, error) { return sess.WrapTo(dst, payload) }},
		{"Sender", func(dst []byte) ([]byte, error) {
			ct, _, err := snd.WrapTo(dst, payload)
			return ct, err
		}},
	} {
		var ct []byte
		if allocs := testing.AllocsPerRun(20, func() {
			if ct, err = c.wrap(dst); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: a data frame into a large enough dst allocates %.1f times, want 0", c.name, allocs)
		}
		if &ct[0] != &dst[:1][0] {
			t.Fatalf("%s: the frame was not sealed into dst", c.name)
		}
		if plain, err := e.Decrypt(ct); err != nil || !bytes.Equal(plain, payload) {
			t.Fatalf("%s: the frame sealed into dst does not open to the payload: %v", c.name, err)
		}
		small := make([]byte, 0, 8)
		if allocs := testing.AllocsPerRun(20, func() {
			if ct, err = c.wrap(small); err != nil {
				t.Fatal(err)
			}
		}); allocs < 1 {
			t.Fatalf("%s: a too-small dst allocated nothing", c.name)
		}
		if plain, err := e.Decrypt(ct); err != nil || !bytes.Equal(plain, payload) {
			t.Fatalf("%s: the frame sealed past a too-small dst does not open to the payload: %v", c.name, err)
		}
	}
}

// TestDecryptToReusesCallerBuffer: for every ciphertext family the
// plaintext lands in the caller's buffer when it is large enough (no
// allocation), in a fresh one when it is not, and the ciphertext — which
// belongs to the transport and may be sent again — is never written to.
func TestDecryptToReusesCallerBuffer(t *testing.T) {
	e := sessionFixture(t)
	sess, err := NewSession(e.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("mixnn"), 200)
	wrap := func() []byte {
		ct, err := sess.Wrap(payload)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	oneShot, err := Encrypt(e.PublicKey(), payload)
	if err != nil {
		t.Fatal(err)
	}
	// In order: the data frame only opens after its establish frame.
	for _, c := range []struct {
		name string
		ct   []byte
	}{{"establish", wrap()}, {"data", wrap()}, {"one-shot", oneShot}} {
		name, ct := c.name, c.ct
		sent := append([]byte(nil), ct...)
		buf := make([]byte, 7, len(ct)) // stale contents are overwritten from index 0
		got, err := e.DecryptTo(buf, ct)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, payload) || &got[0] != &buf[:1][0] {
			t.Fatalf("%s: plaintext wrong or not written into the caller's buffer", name)
		}
		if !bytes.Equal(ct, sent) {
			t.Fatalf("%s: the ciphertext was modified", name)
		}
	}
	small, err := e.DecryptTo(make([]byte, 0, 8), wrap())
	if err != nil || !bytes.Equal(small, payload) {
		t.Fatalf("too-small buffer: %v", err)
	}
	// Every counter opens once, so each run (and AllocsPerRun's warm-up)
	// takes its own frame.
	frames := [][]byte{wrap(), wrap(), wrap()}
	buf := make([]byte, 0, len(frames[0]))
	if allocs := testing.AllocsPerRun(len(frames)-1, func() {
		ct := frames[0]
		frames = frames[1:]
		if _, err := e.DecryptTo(buf, ct); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		// The 12-byte nonce escapes through the cipher.AEAD interface;
		// the plaintext must not be a second allocation.
		t.Fatalf("DecryptTo into a large-enough buffer allocates %.0f times, want <= 1", allocs)
	}
}

// FuzzSessionCiphertext drives garbage at the session ciphertext parser:
// truncations, flipped version/sid/counter bytes, cross-session splices
// and counter reuse must all reject cleanly — never panic, and never
// silently ingest. The iteration re-arms a fixed session state so the
// invariant is exact: only a byte-identical replay of the establish
// message may succeed (re-establishment is idempotent by design).
func FuzzSessionCiphertext(f *testing.F) {
	e := sessionFixture(f)
	sess, err := NewSession(e.PublicKey())
	if err != nil {
		f.Fatal(err)
	}
	est, err := sess.Wrap([]byte("establish payload"))
	if err != nil {
		f.Fatal(err)
	}
	consumed, err := sess.Wrap([]byte("consumed data payload"))
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte{})
	f.Add(append([]byte(nil), est...))
	f.Add(append([]byte(nil), consumed...))
	f.Add(est[:establishHeaderSize])
	f.Add(consumed[:dataHeaderSize])
	f.Add(consumed[:len(consumed)-1])
	flipVer := append([]byte(nil), consumed...)
	flipVer[4] ^= 0xff
	f.Add(flipVer)
	flipSid := append([]byte(nil), consumed...)
	flipSid[7] ^= 0x01
	f.Add(flipSid)
	flipCtr := append([]byte(nil), consumed...)
	binary.LittleEndian.PutUint64(flipCtr[dataHeaderSize-8:], 99)
	f.Add(flipCtr)
	unknown := append([]byte(nil), consumed...)
	if _, err := rand.Read(unknown[5 : 5+sessionIDSize]); err != nil {
		f.Fatal(err)
	}
	f.Add(unknown)
	zeroCtr := append([]byte(nil), consumed...)
	binary.LittleEndian.PutUint64(zeroCtr[dataHeaderSize-8:], 0)
	f.Add(zeroCtr)
	f.Add(hybridCiphertext(f, e.PublicKey(), []byte("retired one-shot layout")))

	f.Fuzz(func(t *testing.T, body []byte) {
		// Re-arm: session installed, counter 1 consumed. Every valid
		// ciphertext the corpus can replay is therefore already spent.
		e.ResetSessions()
		if _, err := e.Decrypt(est); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Decrypt(consumed); err != nil {
			t.Fatal(err)
		}
		plain, err := e.Decrypt(body)
		if err == nil && !bytes.Equal(body, est) {
			t.Fatalf("forged/replayed session ciphertext accepted (%d bytes, plaintext %q)", len(body), plain)
		}
		if err != nil && !errors.Is(err, ErrCiphertext) &&
			!errors.Is(err, ErrSessionUnknown) && !errors.Is(err, ErrSessionReplay) {
			t.Fatalf("rejection outside the error taxonomy: %v", err)
		}
	})
}
