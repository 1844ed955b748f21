package enclave

import (
	"crypto/ecdsa"
	"crypto/rsa"
	"fmt"
)

// HopKey is the key material one mixing proxy holds for the next hop of a
// cascade: the next enclave's encryption public key, bound to the
// measurement that was attested when the key was pinned. A proxy that
// forwards mixed updates through a HopKey re-encrypts them end-to-end for
// the next enclave, so the untrusted network between hops (and the
// forwarding proxy's own host) never sees plaintext updates.
type HopKey struct {
	pub         *rsa.PublicKey
	measurement [32]byte
}

// TrustHop verifies a next-hop enclave's attestation report against the
// attestation authority, the expected measurement and the caller's nonce,
// and returns the pinned hop key on success. This is the proxy-to-proxy
// analogue of the participant's attestation handshake.
func TrustHop(rep Report, authority *ecdsa.PublicKey, expectedMeasurement [32]byte, nonce []byte) (*HopKey, error) {
	pub, err := rep.Verify(authority, expectedMeasurement, nonce)
	if err != nil {
		return nil, fmt.Errorf("enclave: trust hop: %w", err)
	}
	rsaPub, ok := pub.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("enclave: hop attested a %T key, want RSA", pub)
	}
	return &HopKey{pub: rsaPub, measurement: rep.Measurement}, nil
}

// PinnedHop builds a HopKey from out-of-band key material (deployments
// that distribute the next hop's key alongside its trust bundle instead of
// attesting at startup).
func PinnedHop(pub *rsa.PublicKey, measurement [32]byte) *HopKey {
	return &HopKey{pub: pub, measurement: measurement}
}

// Measurement returns the measurement the hop key is bound to.
func (h *HopKey) Measurement() [32]byte { return h.measurement }

// NewSession starts a crypto session against the hop's enclave: one
// RSA wrap here, then Session.Wrap is GCM-only for every forwarded
// round (see session.go). Cascade and relay legs use it so steady-state
// inter-proxy delivery sheds the per-round RSA cost the same way
// participant ingress does.
func (h *HopKey) NewSession() (*Session, error) {
	if h == nil || h.pub == nil {
		return nil, fmt.Errorf("enclave: no hop key pinned")
	}
	return NewSession(h.pub)
}
