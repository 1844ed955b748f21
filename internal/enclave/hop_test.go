package enclave

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/x509"
	"encoding/asn1"
	"math/big"
	"sync"
	"testing"
)

func TestTrustHopWrapRoundTrip(t *testing.T) {
	platform, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	next, err := New(Config{CodeIdentity: "hop-b"}, platform)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("hop-nonce-1")
	rep, err := platform.Attest(next, nonce)
	if err != nil {
		t.Fatal(err)
	}
	hop, err := TrustHop(rep, platform.AttestationPublicKey(), next.Measurement(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	if hop.Measurement() != next.Measurement() {
		t.Fatal("hop key bound to wrong measurement")
	}
	plain := []byte("mixed update payload")
	sess, err := hop.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sess.Wrap(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := next.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatalf("hop round trip = %q, want %q", got, plain)
	}
}

func TestTrustHopRejectsWrongMeasurement(t *testing.T) {
	platform, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	next, err := New(Config{CodeIdentity: "hop-genuine"}, platform)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("hop-nonce-2")
	rep, err := platform.Attest(next, nonce)
	if err != nil {
		t.Fatal(err)
	}
	imposter, err := New(Config{CodeIdentity: "hop-imposter"}, platform)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrustHop(rep, platform.AttestationPublicKey(), imposter.Measurement(), nonce); err == nil {
		t.Fatal("hop with unexpected measurement trusted")
	}
	if _, err := TrustHop(rep, platform.AttestationPublicKey(), next.Measurement(), []byte("other")); err == nil {
		t.Fatal("replayed hop report trusted")
	}
}

// rsaPKIX is the PKIX DER of an RSA public key (2048-bit modulus, e =
// 65537), assembled with encoding/asn1 so the module needs no RSA code.
func rsaPKIX(t *testing.T) []byte {
	t.Helper()
	n := new(big.Int).Lsh(big.NewInt(1), 2047)
	n.Add(n, big.NewInt(1))
	key, err := asn1.Marshal(struct {
		N *big.Int
		E int
	}{n, 65537})
	if err != nil {
		t.Fatal(err)
	}
	type algorithm struct {
		OID    asn1.ObjectIdentifier
		Params asn1.RawValue
	}
	der, err := asn1.Marshal(struct {
		Algorithm algorithm
		Key       asn1.BitString
	}{
		algorithm{asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 1, 1}, asn1.NullRawValue},
		asn1.BitString{Bytes: key, BitLength: 8 * len(key)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return der
}

// TestTrustHopRefusesNonX25519Key: a genuinely signed report whose
// attested key is RSA or P-256 verifies as a report, but TrustHop pins
// only an X25519 key.
func TestTrustHopRefusesNonX25519Key(t *testing.T) {
	platform, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	next, err := New(Config{CodeIdentity: "hop-keytype"}, platform)
	if err != nil {
		t.Fatal(err)
	}
	p256, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p256DER, err := x509.MarshalPKIXPublicKey(p256.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("hop-nonce-keytype")
	for name, der := range map[string][]byte{"RSA": rsaPKIX(t), "P-256": p256DER} {
		rep := Report{Measurement: next.Measurement(), Nonce: nonce, PubKeyDER: der}
		digest := rep.digest()
		if rep.Signature, err = ecdsa.SignASN1(rand.Reader, platform.iasKey, digest[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Verify(platform.AttestationPublicKey(), next.Measurement(), nonce); err != nil {
			t.Fatalf("%s: the report itself does not verify: %v", name, err)
		}
		if _, err := TrustHop(rep, platform.AttestationPublicKey(), next.Measurement(), nonce); err == nil {
			t.Fatalf("TrustHop pinned an attested %s key", name)
		}
	}
}

func TestWrapWithoutKeyFails(t *testing.T) {
	var hop *HopKey
	if _, err := hop.NewSession(); err == nil {
		t.Fatal("nil hop key started a session")
	}
}

// TestSenderConcurrentWrapDropFresh is the SDK's concurrent
// session-establish race without a tier: many goroutines wrap through one
// Sender while one keeps dropping the session it sees and one keeps
// wrapping fresh (run under -race). Every session the Sender hands out
// emits exactly one establish frame — the mutex is held across an
// establish and WrapFreshTo installs only after taking counter 0 — and
// every ciphertext opens at the enclave once its session's establish has.
func TestSenderConcurrentWrapDropFresh(t *testing.T) {
	encl := sessionFixture(t)
	snd := NewSender(PinnedHop(encl.PublicKey(), encl.Measurement()))
	before := encl.Stats().SessionsEstablished // the fixture enclave is shared

	// wrappers*perWrapper stays under the enclave's 64-counter reorder
	// window, so the data frames may be opened in any order.
	const wrappers, perWrapper, churn = 6, 8, 6
	type frame struct {
		ct   []byte
		sess *Session
	}
	var mu sync.Mutex
	var frames []frame
	record := func(ct []byte, sess *Session, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		frames = append(frames, frame{ct, sess})
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < wrappers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWrapper; i++ {
				record(snd.Wrap([]byte("payload")))
			}
		}()
	}
	wg.Add(2)
	go func() { // a sender answering typed rejections of whatever it wrapped under
		defer wg.Done()
		for i := 0; i < churn; i++ {
			ct, sess, err := snd.Wrap([]byte("payload"))
			record(ct, sess, err)
			snd.Drop(sess)
		}
	}()
	go func() { // a sender resending under self-contained establish frames
		defer wg.Done()
		for i := 0; i < churn; i++ {
			record(snd.WrapFreshTo(nil, []byte("payload")))
		}
	}()
	wg.Wait()

	establishes := make(map[*Session]int)
	for _, f := range frames {
		n := 0
		if bytes.HasPrefix(f.ct, []byte(sessionMagicEstablish)) {
			n = 1
		}
		establishes[f.sess] += n
	}
	for sess, n := range establishes {
		if n != 1 {
			t.Fatalf("session %p emitted %d establish frames, want exactly 1", sess, n)
		}
	}
	if len(establishes) < churn {
		t.Fatalf("%d sessions installed, want at least the %d fresh ones", len(establishes), churn)
	}
	// Establish frames first (the order a receiver needs), then the data.
	for _, establish := range []bool{true, false} {
		for i, f := range frames {
			if bytes.HasPrefix(f.ct, []byte(sessionMagicEstablish)) != establish {
				continue
			}
			if got, err := encl.Decrypt(f.ct); err != nil || string(got) != "payload" {
				t.Fatalf("ciphertext %d (establish=%v) did not open: %q, %v", i, establish, got, err)
			}
		}
	}
	if got := encl.Stats().SessionsEstablished - before; got != uint64(len(establishes)) {
		t.Fatalf("enclave established %d sessions for %d installed", got, len(establishes))
	}
}
