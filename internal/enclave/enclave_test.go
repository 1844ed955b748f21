package enclave

import (
	"bytes"
	"crypto/rand"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// Shared fixtures: tests reuse one platform and enclave pair where
// mutation is not an issue.
var (
	testOnce     sync.Once
	testPlatform *Platform
	testEnclave  *Enclave
)

func fixtures(t *testing.T) (*Platform, *Enclave) {
	t.Helper()
	testOnce.Do(func() {
		var err error
		testPlatform, err = NewPlatform()
		if err != nil {
			t.Fatalf("NewPlatform: %v", err)
		}
		testEnclave, err = New(Config{}, testPlatform)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
	})
	return testPlatform, testEnclave
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	_, e := fixtures(t)
	msgs := [][]byte{
		[]byte(""),
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, 10_000),
	}
	for _, msg := range msgs {
		ct, err := Encrypt(e.PublicKey(), msg)
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		pt, err := e.Decrypt(ct)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("round trip mismatch for %d-byte message", len(msg))
		}
	}
}

func TestEncryptIsRandomised(t *testing.T) {
	_, e := fixtures(t)
	a, err := Encrypt(e.PublicKey(), []byte("same message"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encrypt(e.PublicKey(), []byte("same message"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two encryptions of the same plaintext are identical")
	}
}

func TestDecryptRejectsTampering(t *testing.T) {
	_, e := fixtures(t)
	ct, err := Encrypt(e.PublicKey(), []byte("sensitive model update"))
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flip payload byte", func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		}},
		{"flip wrapped key byte", func(b []byte) []byte {
			b[5] ^= 0x80
			return b
		}},
		{"truncate", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"short header", func(b []byte) []byte { return b[:1] }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mutated := tt.mutate(append([]byte(nil), ct...))
			if _, err := e.Decrypt(mutated); err == nil {
				t.Fatal("tampered ciphertext decrypted successfully")
			} else if !errors.Is(err, ErrCiphertext) {
				t.Fatalf("error %v is not ErrCiphertext", err)
			}
		})
	}
}

func TestDecryptRejectsForeignCiphertext(t *testing.T) {
	p, e := fixtures(t)
	other, err := New(Config{CodeIdentity: "other-enclave"}, p)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Encrypt(other.PublicKey(), []byte("for the other enclave"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Decrypt(ct); err == nil {
		t.Fatal("decrypted a ciphertext addressed to another enclave")
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	_, e := fixtures(t)
	data := []byte("state persisted outside the enclave")
	blob, err := e.Seal(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Unseal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("seal/unseal mismatch")
	}
}

func TestUnsealBoundToIdentityAndPlatform(t *testing.T) {
	p, e := fixtures(t)
	blob, err := e.Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}

	// Different code identity on the same platform must not unseal.
	imposter, err := New(Config{CodeIdentity: "evil-proxy"}, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := imposter.Unseal(blob); err == nil {
		t.Fatal("different enclave identity unsealed the blob")
	}

	// Same identity on a different platform must not unseal either.
	p2, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	migrated, err := New(Config{}, p2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := migrated.Unseal(blob); err == nil {
		t.Fatal("different platform unsealed the blob")
	}
}

func TestAttestationVerifies(t *testing.T) {
	p, e := fixtures(t)
	nonce := []byte("client-chosen-nonce")
	rep, err := p.Attest(e, nonce)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := rep.Verify(p.AttestationPublicKey(), e.Measurement(), nonce)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if pub == nil {
		t.Fatal("Verify returned nil key")
	}
}

func TestAttestationRejections(t *testing.T) {
	p, e := fixtures(t)
	nonce := []byte("nonce-1")
	rep, err := p.Attest(e, nonce)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong measurement", func(t *testing.T) {
		var wrong [32]byte
		if _, err := rep.Verify(p.AttestationPublicKey(), wrong, nonce); err == nil {
			t.Fatal("verified against wrong measurement")
		}
	})
	t.Run("wrong nonce (replay)", func(t *testing.T) {
		if _, err := rep.Verify(p.AttestationPublicKey(), e.Measurement(), []byte("nonce-2")); err == nil {
			t.Fatal("verified with replayed nonce")
		}
	})
	t.Run("forged signature", func(t *testing.T) {
		forged := rep
		forged.Signature = append([]byte(nil), rep.Signature...)
		forged.Signature[4] ^= 0xFF
		if _, err := forged.Verify(p.AttestationPublicKey(), e.Measurement(), nonce); err == nil {
			t.Fatal("verified forged signature")
		}
	})
	t.Run("wrong authority", func(t *testing.T) {
		p2, err := NewPlatform()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Verify(p2.AttestationPublicKey(), e.Measurement(), nonce); err == nil {
			t.Fatal("verified against wrong authority")
		}
	})
	t.Run("swapped key", func(t *testing.T) {
		other, err := New(Config{}, p)
		if err != nil {
			t.Fatal(err)
		}
		rep2, err := p.Attest(other, nonce)
		if err != nil {
			t.Fatal(err)
		}
		spliced := rep
		spliced.PubKeyDER = rep2.PubKeyDER
		if _, err := spliced.Verify(p.AttestationPublicKey(), e.Measurement(), nonce); err == nil {
			t.Fatal("verified report with substituted public key")
		}
	})
}

func TestMemoryAccounting(t *testing.T) {
	p, _ := fixtures(t)
	e, err := New(Config{MemoryLimitBytes: 100}, p)
	if err != nil {
		t.Fatal(err)
	}
	e.Alloc(60)
	e.Alloc(30)
	st := e.Stats()
	if st.MemoryUsedBytes != 90 || st.PageEvents != 0 {
		t.Fatalf("stats = %+v, want used 90, no paging", st)
	}
	e.Alloc(30) // crosses the limit
	if st := e.Stats(); st.PageEvents != 1 {
		t.Fatalf("page events = %d, want 1", st.PageEvents)
	}
	e.Free(120)
	if st := e.Stats(); st.MemoryUsedBytes != 0 {
		t.Fatalf("used = %d after freeing everything", st.MemoryUsedBytes)
	}
	e.Free(10)
	if st := e.Stats(); st.MemoryUsedBytes != 0 {
		t.Fatalf("used went negative: %+v", st)
	}
	if st := e.Stats(); st.MemoryPeakBytes != 120 {
		t.Fatalf("peak = %d, want 120", st.MemoryPeakBytes)
	}
}

func TestConstantProcessingGate(t *testing.T) {
	p, _ := fixtures(t)
	const gate = 30 * time.Millisecond
	e, err := New(Config{ConstantProcessing: gate}, p)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := e.Process(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < gate {
		t.Fatalf("fast path took %v, want >= %v (timing leak)", elapsed, gate)
	}
	// Errors must still propagate through the gate.
	wantErr := errors.New("inner failure")
	if err := e.Process(func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("Process swallowed error: %v", err)
	}
}

// Property: Encrypt/Decrypt round-trips arbitrary payloads.
func TestQuickEncryptRoundTrip(t *testing.T) {
	_, e := fixtures(t)
	f := func(msg []byte) bool {
		ct, err := Encrypt(e.PublicKey(), msg)
		if err != nil {
			return false
		}
		pt, err := e.Decrypt(ct)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSealIsRandomised(t *testing.T) {
	_, e := fixtures(t)
	data := make([]byte, 64)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	a, err := e.Seal(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Seal(data)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("sealing is deterministic (nonce reuse)")
	}
}

// TestSealLabeledDomainSeparation: material sealed for one purpose (or
// one shard) must not open under another label, nor under the base key —
// the per-shard key separation the sharded proxy's durable state uses.
func TestSealLabeledDomainSeparation(t *testing.T) {
	_, e := fixtures(t)
	blob, err := e.SealLabeled("mixnn/shard/0", []byte("layer lists"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.UnsealLabeled("mixnn/shard/0", blob)
	if err != nil {
		t.Fatalf("matching label failed to unseal: %v", err)
	}
	if !bytes.Equal(got, []byte("layer lists")) {
		t.Fatal("labeled round trip mismatch")
	}
	if _, err := e.UnsealLabeled("mixnn/shard/1", blob); err == nil {
		t.Fatal("blob for shard 0 opened under shard 1's key")
	}
	if _, err := e.Unseal(blob); err == nil {
		t.Fatal("labeled blob opened under the base sealing key")
	}
	base, err := e.Seal([]byte("base"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.UnsealLabeled("mixnn/shard/0", base); err == nil {
		t.Fatal("base blob opened under a shard label")
	}
}

// TestSealSurvivesPlatformRestart: a platform rebuilt with the SAME fuse
// secret (a host restart — fuses are permanent) must unseal blobs a
// previous enclave incarnation of the same identity sealed, including
// labeled ones; a different identity still must not.
func TestSealSurvivesPlatformRestart(t *testing.T) {
	var fuse [32]byte
	if _, err := rand.Read(fuse[:]); err != nil {
		t.Fatal(err)
	}
	p1, err := NewPlatformWithFuse(fuse)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := New(Config{CodeIdentity: "restartable"}, p1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := e1.SealLabeled("mixnn/sharded-state/v1", []byte("round in flight"))
	if err != nil {
		t.Fatal(err)
	}

	p2, err := NewPlatformWithFuse(fuse)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(Config{CodeIdentity: "restartable"}, p2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.UnsealLabeled("mixnn/sharded-state/v1", blob)
	if err != nil {
		t.Fatalf("restarted enclave failed to unseal: %v", err)
	}
	if !bytes.Equal(got, []byte("round in flight")) {
		t.Fatal("restart round trip mismatch")
	}
	// The platform's attestation authority survives the restart too: a
	// trust bundle pinned (or sealed by a peer tier) before it verifies
	// the relaunched enclave's report, under its fresh encryption key.
	rep, err := p2.Attest(e2, []byte("after-restart"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrustHop(rep, p1.AttestationPublicKey(), e1.Measurement(), []byte("after-restart")); err != nil {
		t.Fatalf("report of the relaunched enclave does not verify against the authority pinned before the restart: %v", err)
	}
	if e1.PublicKey().Equal(e2.PublicKey()) {
		t.Fatal("enclave encryption key survived the restart")
	}
	stranger, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	if p1.AttestationPublicKey().Equal(stranger.AttestationPublicKey()) {
		t.Fatal("platforms with different fuse secrets share an attestation authority")
	}

	other, err := New(Config{CodeIdentity: "different-build"}, p2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.UnsealLabeled("mixnn/sharded-state/v1", blob); err == nil {
		t.Fatal("different identity unsealed across restart")
	}
}
