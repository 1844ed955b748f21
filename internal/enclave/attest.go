package enclave

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
)

// Platform models the physical host: it owns the CPU fuse secret that
// sealing keys derive from and the attestation authority that vouches for
// enclaves running on genuine hardware (the IAS role in real SGX).
type Platform struct {
	fuseSecret [32]byte
	iasKey     *ecdsa.PrivateKey
}

// NewPlatform creates a platform with a fresh fuse secret and attestation
// signing key.
func NewPlatform() (*Platform, error) {
	var fuse [32]byte
	if _, err := rand.Read(fuse[:]); err != nil {
		return nil, fmt.Errorf("enclave: platform fuse secret: %w", err)
	}
	return NewPlatformWithFuse(fuse)
}

// NewPlatformWithFuse creates a platform with the given fuse secret,
// modelling a process restart on the same physical host: real CPU fuses
// are permanent, so an enclave relaunched on the same hardware derives
// the same sealing key and can unseal state a previous incarnation
// sealed. The attestation key derives from the fuse secret too: the
// authority that vouches for a platform does not change when a process
// on it restarts, so a trust bundle pinned before the restart — a
// participant's file, or the trust a peer tier sealed to re-attest this
// one from (proxy.RemoteTrust) — still verifies the relaunched enclave's
// reports. (The enclave's encryption key does not survive: every
// relaunch is attested afresh.)
func NewPlatformWithFuse(fuse [32]byte) (*Platform, error) {
	p := &Platform{fuseSecret: fuse}
	// A P-256 scalar is a 32-byte value in [1, n-1]; a hash outside it
	// (one in 2^32) is refused by NewPrivateKey and the counter moves on.
	for ctr := byte(0); p.iasKey == nil; ctr++ {
		d := sha256.Sum256(append(append([]byte("mixnn/attestation-key/v1\x00"), fuse[:]...), ctr))
		priv, err := ecdh.P256().NewPrivateKey(d[:])
		if err != nil {
			continue
		}
		pub := priv.PublicKey().Bytes() // 0x04 || X || Y
		p.iasKey = &ecdsa.PrivateKey{
			D: new(big.Int).SetBytes(d[:]),
			PublicKey: ecdsa.PublicKey{
				Curve: elliptic.P256(),
				X:     new(big.Int).SetBytes(pub[1:33]),
				Y:     new(big.Int).SetBytes(pub[33:]),
			},
		}
	}
	return p, nil
}

// AttestationPublicKey returns the verification key clients pin (the IAS
// root in real deployments).
func (p *Platform) AttestationPublicKey() *ecdsa.PublicKey { return &p.iasKey.PublicKey }

// Report is a remote-attestation report: it binds the enclave measurement
// and its encryption public key to a caller-chosen nonce, signed by the
// platform's attestation authority. A client that verifies a Report knows
// the public key belongs to an enclave running the expected code.
type Report struct {
	Measurement [32]byte
	Nonce       []byte
	PubKeyDER   []byte
	Signature   []byte
}

// Attest produces a signed report for the enclave bound to the given nonce.
func (p *Platform) Attest(e *Enclave, nonce []byte) (Report, error) {
	der, err := x509.MarshalPKIXPublicKey(e.PublicKey())
	if err != nil {
		return Report{}, fmt.Errorf("enclave: marshal public key: %w", err)
	}
	r := Report{Measurement: e.Measurement(), Nonce: append([]byte(nil), nonce...), PubKeyDER: der}
	digest := r.digest()
	sig, err := ecdsa.SignASN1(rand.Reader, p.iasKey, digest[:])
	if err != nil {
		return Report{}, fmt.Errorf("enclave: sign report: %w", err)
	}
	r.Signature = sig
	return r, nil
}

func (r Report) digest() [32]byte {
	h := sha256.New()
	h.Write(r.Measurement[:])
	h.Write(r.Nonce)
	h.Write(r.PubKeyDER)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Verify checks the report signature against the attestation authority key,
// the expected measurement and the nonce the verifier chose. It returns the
// attested enclave public key on success.
func (r Report) Verify(authority *ecdsa.PublicKey, expectedMeasurement [32]byte, nonce []byte) (interface{}, error) {
	if r.Measurement != expectedMeasurement {
		return nil, fmt.Errorf("enclave: measurement mismatch: enclave runs unexpected code")
	}
	if string(r.Nonce) != string(nonce) {
		return nil, fmt.Errorf("enclave: attestation nonce mismatch (replayed report?)")
	}
	digest := r.digest()
	if !ecdsa.VerifyASN1(authority, digest[:], r.Signature) {
		return nil, fmt.Errorf("enclave: attestation signature invalid")
	}
	pub, err := x509.ParsePKIXPublicKey(r.PubKeyDER)
	if err != nil {
		return nil, fmt.Errorf("enclave: parse attested key: %w", err)
	}
	return pub, nil
}

// TrustBundle is the out-of-band material a verifier pins before trusting
// an enclave — a participant its proxies, a proxy its next hop and its
// remote shards: the (simulated) attestation authority key and the
// expected enclave measurement. mixnn-proxy writes one at startup
// (-trust-out); fl-client, -next-hop-trust and topology directives read
// them; a tier seals the ones its remote shards were pinned under.
type TrustBundle struct {
	AuthorityPubDER []byte `json:"authority_pub_der"`
	MeasurementHex  string `json:"measurement"`
}

// ReadTrustBundle loads a trust bundle file.
func ReadTrustBundle(path string) (TrustBundle, error) {
	var bundle TrustBundle
	raw, err := os.ReadFile(path)
	if err != nil {
		return bundle, fmt.Errorf("read trust bundle: %w", err)
	}
	if err := json.Unmarshal(raw, &bundle); err != nil {
		return bundle, fmt.Errorf("parse trust bundle %s: %w", path, err)
	}
	return bundle, nil
}

// Parse turns the bundle into what Report.Verify takes: the authority's
// ECDSA key and the 32-byte measurement.
func (b TrustBundle) Parse() (*ecdsa.PublicKey, [32]byte, error) {
	var meas [32]byte
	pub, err := x509.ParsePKIXPublicKey(b.AuthorityPubDER)
	if err != nil {
		return nil, meas, fmt.Errorf("parse authority key: %w", err)
	}
	authority, ok := pub.(*ecdsa.PublicKey)
	if !ok {
		return nil, meas, fmt.Errorf("authority key is %T, want ECDSA", pub)
	}
	raw, err := hex.DecodeString(b.MeasurementHex)
	if err != nil || len(raw) != len(meas) {
		return nil, meas, fmt.Errorf("malformed measurement in trust bundle")
	}
	copy(meas[:], raw)
	return authority, meas, nil
}
