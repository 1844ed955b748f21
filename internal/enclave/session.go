// Session-keyed enclave crypto: the one ciphertext family the enclave
// opens. A session starts with one ephemeral-static X25519 agreement
// against the attested enclave key (the DHKEM shape of RFC 9180): the
// sender draws a fresh ephemeral key, both sides derive a 32-byte
// AES-256 key from the shared secret with HKDF-SHA256, and every
// subsequent update is a pure AES-GCM open under that key (tens of µs).
// Only the enclave can derive the session key: it needs the private half
// of the attested key.
//
// Two frame layouts, told apart by a 4-byte magic; a body that starts
// with neither is refused with ErrCiphertext:
//
//	establish "MXSE" | ver=2 | sid [16]byte | eph [32]byte | AES-GCM ct
//	data      "MXSD" | ver=1 | sid [16]byte | counter u64  | AES-GCM ct
//
// with key = HKDF-SHA256(IKM = X25519(eph, enclave), salt =
// "mixnn/session/v2", info = eph ‖ enclavePub ‖ sid). The establish
// message CARRIES the first update (counter 0), so starting a session
// costs zero extra round trips. The GCM nonce is the deterministic
// 12-byte little-endian encoding of the counter — safe because the key
// is fresh per session and the Session API makes each counter
// single-use — and the full header is bound as AAD, so neither the
// session id, the ephemeral key nor the counter can be spliced across
// messages. An establish frame of the RSA era (ver 1) is refused before
// any work.
//
// The enclave keeps a bounded LRU of sessions, EPC-accounted at one
// page each. A data message for an unknown session (evicted, or the
// enclave restarted and lost its key anyway) is rejected with
// ErrSessionUnknown BEFORE anything is ingested; senders answer it by
// re-establishing. A counter already admitted is rejected with
// ErrSessionReplay — same sender response, since the current attempt
// provably ingested nothing. A live session is never re-keyed or
// rewound: an establish for its sid under another ephemeral key is
// ErrCiphertext, and the identical establish is counter 0 replayed.
package enclave

import (
	"container/list"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

const (
	sessionMagicEstablish = "MXSE"
	sessionMagicData      = "MXSD"
	establishVersion      = 2
	dataVersion           = 1

	sessionIDSize = 16
	ephKeySize    = 32 // an X25519 public key
	// magic + version + sid + (eph key | u64 counter)
	establishHeaderSize = 4 + 1 + sessionIDSize + ephKeySize
	dataHeaderSize      = 4 + 1 + sessionIDSize + 8

	// sessionEPCBytes is the EPC charge per cached session: one page
	// covers the AES key schedule, GCM tables and replay state.
	sessionEPCBytes = 4096
)

// DefaultSessionCacheEntries bounds the enclave's session cache: at one
// EPC page each, a full cache costs 16 MiB of the 96 MiB budget.
const DefaultSessionCacheEntries = 4096

// ErrSessionUnknown rejects a session-data ciphertext whose session the
// enclave does not hold (evicted from the bounded cache, or lost with
// the enclave's memory across a restart). The rejection happens before
// any decryption or ingest, so the sender may safely re-establish and
// resend.
var ErrSessionUnknown = errors.New("enclave: unknown crypto session")

// ErrSessionReplay rejects a session-data ciphertext whose counter was
// already admitted (or fell behind the reorder window), and an establish
// frame replayed while its session is live (counter 0 again). The
// current attempt provably ingested nothing; senders recover exactly as
// for ErrSessionUnknown — re-establish under a fresh session.
var ErrSessionReplay = errors.New("enclave: session counter replayed")

// sessionNonce encodes a message counter as the deterministic GCM
// nonce: counter little-endian in the first 8 bytes, zero elsewhere.
func sessionNonce(counter uint64) [gcmNonceSize]byte {
	var n [gcmNonceSize]byte
	binary.LittleEndian.PutUint64(n[:8], counter)
	return n
}

// sessionKDFSalt domain-separates the session key derivation.
const sessionKDFSalt = "mixnn/session/v2"

// hkdfSHA256 is RFC 5869 HKDF-SHA256 cut to one output block: extract
// PRK = HMAC(salt, ikm), then expand T(1) = HMAC(PRK, info ‖ 0x01), the
// 32-byte output key. (crypto/hkdf arrived in Go 1.24; go.mod targets
// 1.22.)
func hkdfSHA256(ikm, salt, info []byte) []byte {
	extract := hmac.New(sha256.New, salt)
	extract.Write(ikm)
	expand := hmac.New(sha256.New, extract.Sum(nil))
	expand.Write(info)
	expand.Write([]byte{1})
	return expand.Sum(nil)
}

// sessionAEAD derives a session's AES-256-GCM instance from the X25519
// shared secret, binding both public keys and the session id.
func sessionAEAD(shared, eph, enclavePub []byte, sid [sessionIDSize]byte) (cipher.AEAD, error) {
	info := make([]byte, 0, len(eph)+len(enclavePub)+sessionIDSize)
	info = append(append(append(info, eph...), enclavePub...), sid[:]...)
	return newSessionAEAD(hkdfSHA256(shared, []byte(sessionKDFSalt), info))
}

func newSessionAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Session is the SENDER side of one crypto session: the ephemeral
// public key its establish frame carries, the cached GCM instance and
// the message counter. The first Wrap emits the establish message
// (which carries that first payload); every later Wrap emits a data
// message with the next counter. Safe for concurrent use — the counter
// is atomic and GCM seal is stateless.
type Session struct {
	sid  [sessionIDSize]byte
	eph  [ephKeySize]byte
	aead cipher.AEAD
	ctr  atomic.Uint64
}

// sessionCounterLimit forces a key rotation long before the counter
// space (and the deterministic nonces derived from it) could wrap.
const sessionCounterLimit = 1 << 62

// NewSession draws a fresh session id and ephemeral X25519 key and
// agrees the session key with the enclave holding pub. The two scalar
// multiplications (key draw and agreement) are paid HERE, once; Wrap is
// then GCM-only for the session's lifetime.
func NewSession(pub *ecdh.PublicKey) (*Session, error) {
	s := &Session{}
	if _, err := rand.Read(s.sid[:]); err != nil {
		return nil, fmt.Errorf("enclave: draw session id: %w", err)
	}
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("enclave: draw ephemeral key: %w", err)
	}
	shared, err := eph.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("enclave: session key agreement: %w", err)
	}
	copy(s.eph[:], eph.PublicKey().Bytes())
	if s.aead, err = sessionAEAD(shared, s.eph[:], pub.Bytes(), s.sid); err != nil {
		return nil, fmt.Errorf("enclave: session cipher: %w", err)
	}
	return s, nil
}

// Wrap encrypts one payload for the session's enclave: the establish
// message on the session's first call (counter 0, carrying the ephemeral
// key so the handshake costs no extra round trip), a data message with
// the next counter after that. The output is a single allocation — the
// session's cipher instance is reused, nothing else is allocated per
// call.
func (s *Session) Wrap(plaintext []byte) ([]byte, error) {
	return s.WrapTo(nil, plaintext)
}

// WrapTo is Wrap sealing into dst's storage when its capacity holds the
// frame plus the 12-byte GCM nonce, and into one fresh allocation when it
// does not; dst's contents are overwritten, and it must not overlap
// plaintext. The frame is returned with the nonce in its spare capacity
// (a nonce on the stack would escape through the cipher.AEAD interface,
// an allocation per wrap), so a sender that seals every update into the
// buffer the previous one returned allocates nothing per update.
func (s *Session) WrapTo(dst, plaintext []byte) ([]byte, error) {
	c := s.ctr.Add(1) - 1
	if c >= sessionCounterLimit {
		return nil, fmt.Errorf("enclave: session counter exhausted; establish a new session")
	}
	n := dataHeaderSize + len(plaintext) + s.aead.Overhead()
	if c == 0 {
		n = establishHeaderSize + len(plaintext) + s.aead.Overhead()
	}
	out := dst[:0]
	if cap(out) < n+gcmNonceSize {
		out = make([]byte, 0, n+gcmNonceSize)
	}
	// Past the frame, so the seal never writes over it.
	nonce := out[n : n+gcmNonceSize]
	binary.LittleEndian.PutUint64(nonce, c)
	clear(nonce[8:])
	if c == 0 {
		out = append(out, sessionMagicEstablish...)
		out = append(out, establishVersion)
		out = append(out, s.sid[:]...)
		out = append(out, s.eph[:]...)
	} else {
		out = append(out, sessionMagicData...)
		out = append(out, dataVersion)
		out = append(out, s.sid[:]...)
		out = binary.LittleEndian.AppendUint64(out, c)
	}
	return s.aead.Seal(out, nonce, plaintext, out), nil
}

// sessionState is the ENCLAVE side of one session: the establishing
// ephemeral key, the key schedule and replay-protection state. hwm is
// the highest admitted counter; window is a 64-bit bitmap of the
// counters hwm-1 .. hwm-64 (bit k set = counter hwm-1-k admitted), so
// modest network reordering is admitted while anything at or below
// hwm-65, or already admitted, is a replay.
type sessionState struct {
	sid    [sessionIDSize]byte
	eph    [ephKeySize]byte
	aead   cipher.AEAD
	hwm    uint64
	window uint64
	elem   *list.Element
}

// admit runs the replay check for counter c and records it when fresh.
func (s *sessionState) admit(c uint64) bool {
	switch {
	case c > s.hwm:
		shift := c - s.hwm
		if shift >= 64 {
			s.window = 0
		} else {
			// Slide the window and mark the old high-watermark as seen.
			s.window = s.window << shift
			if s.hwm > 0 {
				s.window |= 1 << (shift - 1)
			}
		}
		s.hwm = c
		return true
	case c == s.hwm:
		// Callers reject counter 0 before admission, so hwm == c means
		// the counter was already admitted.
		return false
	default:
		d := s.hwm - c
		if d > 64 {
			return false // fell behind the reorder window
		}
		bit := uint64(1) << (d - 1)
		if s.window&bit != 0 {
			return false
		}
		s.window |= bit
		return true
	}
}

// installSession creates the enclave-side state for sid. A live session
// is never replaced: the sid travels in clear, so an establish for it
// under another ephemeral key is a take-over attempt (ErrCiphertext),
// and the identical establish is counter 0 replayed (ErrSessionReplay,
// the typed rejection whose recovery is a fresh session). Either way the
// live session keeps its key and replay window.
func (e *Enclave) installSession(sid [sessionIDSize]byte, eph [ephKeySize]byte, aead cipher.AEAD) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.sessions[sid]; s != nil {
		if s.eph != eph {
			return fmt.Errorf("%w: session id already established under another key", ErrCiphertext)
		}
		e.sessReplays++
		return ErrSessionReplay
	}
	s := &sessionState{sid: sid, eph: eph, aead: aead}
	s.elem = e.sessLRU.PushFront(s)
	e.sessions[sid] = s
	e.allocLocked(sessionEPCBytes)
	e.sessEstablished++
	for len(e.sessions) > e.cfg.SessionCacheEntries {
		oldest := e.sessLRU.Back()
		if oldest == nil {
			break
		}
		victim := e.sessLRU.Remove(oldest).(*sessionState)
		delete(e.sessions, victim.sid)
		e.freeLocked(sessionEPCBytes)
		e.sessEvicts++
	}
	return nil
}

// ResetSessions drops every cached session: the volatile-state loss of
// an enclave restart. Tests that model a crash on a long-lived Enclave
// object (whose key pair stands in for sealed identity surviving the
// restart) call it so the restarted proxy answers in-flight session
// traffic the way real hardware would — with the typed session-unknown
// rejection that drives senders to re-establish.
func (e *Enclave) ResetSessions() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for range e.sessions {
		e.freeLocked(sessionEPCBytes)
	}
	e.sessions = make(map[[sessionIDSize]byte]*sessionState)
	e.sessLRU.Init()
}

// decryptEstablish opens an "MXSE" establish message: agree the session
// key with the carried ephemeral key, authenticate the carried payload
// under it (into dst, see DecryptTo), and only then install the session.
// Any other version is refused before any work.
func (e *Enclave) decryptEstablish(dst, ct []byte) ([]byte, error) {
	if len(ct) < establishHeaderSize {
		return nil, fmt.Errorf("%w: truncated session establish", ErrCiphertext)
	}
	if ct[4] != establishVersion {
		return nil, fmt.Errorf("%w: unsupported session establish version %d", ErrCiphertext, ct[4])
	}
	var sid [sessionIDSize]byte
	var eph [ephKeySize]byte
	copy(sid[:], ct[5:5+sessionIDSize])
	copy(eph[:], ct[5+sessionIDSize:establishHeaderSize])
	ephPub, err := ecdh.X25519().NewPublicKey(eph[:])
	if err != nil {
		return nil, fmt.Errorf("%w: malformed ephemeral key", ErrCiphertext)
	}
	// ECDH refuses low-order points (an all-zero shared secret).
	shared, err := e.priv.ECDH(ephPub)
	if err != nil {
		return nil, fmt.Errorf("%w: session key agreement failed", ErrCiphertext)
	}
	aead, err := sessionAEAD(shared, eph[:], e.priv.PublicKey().Bytes(), sid)
	if err != nil {
		return nil, fmt.Errorf("%w: session cipher", ErrCiphertext)
	}
	nonce := sessionNonce(0)
	plain, err := aead.Open(dst, nonce[:], ct[establishHeaderSize:], ct[:establishHeaderSize])
	if err != nil {
		return nil, fmt.Errorf("%w: authentication failed", ErrCiphertext)
	}
	if err := e.installSession(sid, eph, aead); err != nil {
		return nil, err
	}
	return plain, nil
}

// decryptData opens an "MXSD" data message against the session cache.
// The GCM open runs OUTSIDE the enclave lock (the AEAD is immutable),
// and the replay admission re-checks the session afterwards so an
// eviction racing the open cannot corrupt another session's state.
func (e *Enclave) decryptData(dst, ct []byte) ([]byte, error) {
	if len(ct) < dataHeaderSize {
		return nil, fmt.Errorf("%w: truncated session data", ErrCiphertext)
	}
	if ct[4] != dataVersion {
		return nil, fmt.Errorf("%w: unsupported session version %d", ErrCiphertext, ct[4])
	}
	var sid [sessionIDSize]byte
	copy(sid[:], ct[5:5+sessionIDSize])
	counter := binary.LittleEndian.Uint64(ct[dataHeaderSize-8:])
	if counter == 0 {
		// Counter 0 is the establish nonce; a data message claiming it is
		// forged or corrupt, not a replay.
		return nil, fmt.Errorf("%w: session data counter 0", ErrCiphertext)
	}
	e.mu.Lock()
	s := e.sessions[sid]
	if s == nil {
		e.sessMisses++
		e.mu.Unlock()
		return nil, ErrSessionUnknown
	}
	aead := s.aead
	e.mu.Unlock()
	nonce := sessionNonce(counter)
	plain, err := aead.Open(dst, nonce[:], ct[dataHeaderSize:], ct[:dataHeaderSize])
	if err != nil {
		return nil, fmt.Errorf("%w: authentication failed", ErrCiphertext)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.sessions[sid]; cur == nil || cur.aead != aead {
		// Evicted (and perhaps re-established) while the open ran.
		e.sessMisses++
		return nil, ErrSessionUnknown
	} else if !cur.admit(counter) {
		e.sessReplays++
		return nil, ErrSessionReplay
	} else {
		e.sessLRU.MoveToFront(cur.elem)
	}
	e.sessHits++
	return plain, nil
}
