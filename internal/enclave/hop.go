package enclave

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"fmt"
	"sync"
)

// HopKey is the key material one mixing proxy holds for the next hop of a
// cascade: the next enclave's encryption public key, bound to the
// measurement that was attested when the key was pinned. A proxy that
// forwards mixed updates through a HopKey re-encrypts them end-to-end for
// the next enclave, so the untrusted network between hops (and the
// forwarding proxy's own host) never sees plaintext updates.
type HopKey struct {
	pub         *ecdh.PublicKey
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
	xpub, ok := pub.(*ecdh.PublicKey)
	if !ok || xpub.Curve() != ecdh.X25519() {
		return nil, fmt.Errorf("enclave: hop attested a %T key, want X25519", pub)
	}
	return &HopKey{pub: xpub, measurement: rep.Measurement}, nil
}

// PinnedHop builds a HopKey from out-of-band key material (deployments
// that distribute the next hop's key alongside its trust bundle instead of
// attesting at startup).
func PinnedHop(pub *ecdh.PublicKey, measurement [32]byte) *HopKey {
	return &HopKey{pub: pub, measurement: measurement}
}

// Measurement returns the measurement the hop key is bound to.
func (h *HopKey) Measurement() [32]byte { return h.measurement }

// NewSession starts a crypto session against the hop's enclave: one
// X25519 agreement here, then Session.Wrap is GCM-only for every
// forwarded round (see session.go). Cascade and relay legs use it so
// steady-state inter-proxy delivery sheds the per-round key agreement
// the same way participant ingress does.
func (h *HopKey) NewSession() (*Session, error) {
	if h == nil || h.pub == nil {
		return nil, fmt.Errorf("enclave: no hop key pinned")
	}
	return NewSession(h.pub)
}

// Sender is one sender's hold on the current crypto session toward one
// pinned key — what a restart or a cache eviction on the far side
// invalidates, and so the one place its recovery is written. The SDK keeps
// one per proxy endpoint and a tier's delivery half one per destination;
// whoever re-pins the key (a fresh attestation after the peer restarted)
// replaces the Sender, and the session built for the superseded key goes
// with it. It is per sender, NOT part of HopKey: one process may hand one
// *HopKey to several tiers, and each must keep a session of its own — the
// receiving enclave's replay window assumes one counter stream per
// session. Safe for concurrent use.
type Sender struct {
	key *HopKey
	mu  sync.Mutex
	cur *Session
}

// NewSender starts with no session; the first Wrap establishes one.
func NewSender(key *HopKey) *Sender { return &Sender{key: key} }

// Wrap seals plaintext under the current session — establishing one when
// there is none, and rotating once when the current one's counter space
// is exhausted. The first wrap of a session is the establish frame
// carrying the ephemeral key; every later one is GCM-only. The session
// that produced the ciphertext is returned so the caller can Drop
// precisely it on a typed session rejection. The mutex is held across an
// establish: concurrent wrappers wait for the one key agreement instead
// of each paying their own and discarding all but one.
func (s *Sender) Wrap(plaintext []byte) ([]byte, *Session, error) {
	return s.WrapTo(nil, plaintext)
}

// WrapTo is Wrap sealing into dst's storage when its capacity suffices
// (see Session.WrapTo).
func (s *Sender) WrapTo(dst, plaintext []byte) ([]byte, *Session, error) {
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		sess := s.cur
		if sess == nil {
			var err error
			if sess, err = s.key.NewSession(); err != nil {
				s.mu.Unlock()
				return nil, nil, err
			}
			s.cur = sess
		}
		s.mu.Unlock()
		ct, err := sess.WrapTo(dst, plaintext)
		if err == nil {
			return ct, sess, nil
		}
		s.Drop(sess)
		if attempt > 0 {
			return nil, nil, err
		}
	}
}

// Drop invalidates the current session — only if it is still sess, so a
// stale rejection (or the loser of a re-establish race) cannot tear down a
// fresher session.
func (s *Sender) Drop(sess *Session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == sess {
		s.cur = nil
	}
}

// WrapFreshTo seals plaintext under a brand-new session, into dst's
// storage when its capacity suffices (see Session.WrapTo), so the
// ciphertext is the self-contained establish frame the enclave can always
// open, and makes that session current (last establisher wins). It is the
// resend after a typed session rejection when senders share the Sender:
// going back through Wrap is not enough there, because a concurrent
// sender may have re-established already and the current session's OWN
// establish frame may still be in flight — a data frame wrapped under it
// can race ahead of that establish and be rejected all over again. The
// session is installed only after its establish frame is taken, so no
// other wrapper can claim counter 0.
func (s *Sender) WrapFreshTo(dst, plaintext []byte) ([]byte, *Session, error) {
	sess, err := s.key.NewSession()
	if err != nil {
		return nil, nil, err
	}
	ct, err := sess.WrapTo(dst, plaintext) // first wrap of a session = establish
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	s.cur = sess
	s.mu.Unlock()
	return ct, sess, nil
}
