// Session-keyed enclave crypto: the one ciphertext family the enclave
// opens. A session wraps one AES-256 key once with RSA-OAEP (~1ms), tags
// it with a random session id, and every subsequent update is a pure
// AES-GCM open under that key (tens of µs). Only the enclave ever sees
// the session key: it is wrapped for the attested enclave key.
//
// Two frame layouts, told apart by a 4-byte magic; a body that starts
// with neither is refused with ErrCiphertext:
//
//	establish "MXSE" | ver u8 | sid [16]byte | wlen u16 | wrappedKey | AES-GCM ct
//	data      "MXSD" | ver u8 | sid [16]byte | counter u64 | AES-GCM ct
//
// The establish message CARRIES the first update (counter 0), so
// starting a session costs zero extra round trips. The GCM nonce is the
// deterministic 12-byte little-endian encoding of the counter — safe
// because the key is fresh per session and the Session API makes each
// counter single-use — and the full header is bound as AAD, so neither
// the session id nor the counter can be spliced across messages.
//
// The enclave keeps a bounded LRU of sessions, EPC-accounted at one
// page each. A data message for an unknown session (evicted, or the
// enclave restarted and lost its RSA key anyway) is rejected with
// ErrSessionUnknown BEFORE anything is ingested; senders answer it by
// re-establishing with a full wrap. A counter already admitted is
// rejected with ErrSessionReplay — same sender response, since the
// current attempt provably ingested nothing.
package enclave

import (
	"container/list"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

const (
	sessionMagicEstablish = "MXSE"
	sessionMagicData      = "MXSD"
	sessionVersion        = 1

	sessionIDSize = 16
	// magic + version + sid [+ u16 wlen | + u64 counter]
	establishHeaderSize = 4 + 1 + sessionIDSize + 2
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
// already admitted (or fell behind the reorder window). The current
// attempt provably ingested nothing; senders recover exactly as for
// ErrSessionUnknown — re-establish with a full wrap.
var ErrSessionReplay = errors.New("enclave: session counter replayed")

// sessionNonce encodes a message counter as the deterministic GCM
// nonce: counter little-endian in the first 8 bytes, zero elsewhere.
func sessionNonce(counter uint64) [gcmNonceSize]byte {
	var n [gcmNonceSize]byte
	binary.LittleEndian.PutUint64(n[:8], counter)
	return n
}

func newSessionAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Session is the SENDER side of one crypto session: the wrapped key,
// the cached GCM instance and the message counter. The first Wrap
// emits the establish message (which carries that first payload); every
// later Wrap emits a data message with the next counter. Safe for
// concurrent use — the counter is atomic and GCM seal is stateless.
type Session struct {
	sid     [sessionIDSize]byte
	wrapped []byte
	aead    cipher.AEAD
	ctr     atomic.Uint64
}

// sessionCounterLimit forces a key rotation long before the counter
// space (and the deterministic nonces derived from it) could wrap.
const sessionCounterLimit = 1 << 62

// NewSession draws a fresh session key and id and wraps the key for the
// enclave holding pub. The RSA cost is paid HERE, once; Wrap is then
// GCM-only for the session's lifetime.
func NewSession(pub *rsa.PublicKey) (*Session, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("enclave: draw session key: %w", err)
	}
	s := &Session{}
	if _, err := rand.Read(s.sid[:]); err != nil {
		return nil, fmt.Errorf("enclave: draw session id: %w", err)
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, pub, key, nil)
	if err != nil {
		return nil, fmt.Errorf("enclave: wrap session key: %w", err)
	}
	s.wrapped = wrapped
	if s.aead, err = newSessionAEAD(key); err != nil {
		return nil, fmt.Errorf("enclave: session cipher: %w", err)
	}
	return s, nil
}

// Wrap encrypts one payload for the session's enclave: the establish
// message on the session's first call (counter 0, carrying the wrapped
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
		n = establishHeaderSize + len(s.wrapped) + len(plaintext) + s.aead.Overhead()
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
		out = append(out, sessionVersion)
		out = append(out, s.sid[:]...)
		out = binary.LittleEndian.AppendUint16(out, uint16(len(s.wrapped)))
		out = append(out, s.wrapped...)
	} else {
		out = append(out, sessionMagicData...)
		out = append(out, sessionVersion)
		out = append(out, s.sid[:]...)
		out = binary.LittleEndian.AppendUint64(out, c)
	}
	return s.aead.Seal(out, nonce, plaintext, out), nil
}

// sessionState is the ENCLAVE side of one session: the key schedule
// plus replay-protection state. hwm is the highest admitted counter;
// window is a 64-bit bitmap of the counters hwm-1 .. hwm-64 (bit k set
// = counter hwm-1-k admitted), so modest network reordering is admitted
// while anything at or below hwm-65, or already admitted, is a replay.
type sessionState struct {
	sid    [sessionIDSize]byte
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

// installSession (re)creates the enclave-side state for sid. An
// establish for a sid the cache already holds REPLACES it with fresh
// replay state — the retry of a lost establish acknowledgement carries
// the identical ciphertext, and a fresh establish under the same sid
// necessarily proved knowledge of the enclave's public key anyway.
func (e *Enclave) installSession(sid [sessionIDSize]byte, aead cipher.AEAD) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.sessions[sid]; s != nil {
		s.aead = aead
		s.hwm, s.window = 0, 0
		e.sessLRU.MoveToFront(s.elem)
		e.sessEstablished++
		return
	}
	s := &sessionState{sid: sid, aead: aead}
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

// decryptEstablish opens an "MXSE" establish message: unwrap the
// session key with the enclave's RSA key, authenticate the carried
// payload under it (into dst, see DecryptTo), and only then install the
// session.
func (e *Enclave) decryptEstablish(dst, ct []byte) ([]byte, error) {
	if len(ct) < establishHeaderSize {
		return nil, fmt.Errorf("%w: truncated session establish", ErrCiphertext)
	}
	if ct[4] != sessionVersion {
		return nil, fmt.Errorf("%w: unsupported session version %d", ErrCiphertext, ct[4])
	}
	wlen := int(binary.LittleEndian.Uint16(ct[establishHeaderSize-2:]))
	hdrLen := establishHeaderSize + wlen
	if len(ct) < hdrLen {
		return nil, fmt.Errorf("%w: truncated session establish", ErrCiphertext)
	}
	key, err := rsa.DecryptOAEP(sha256.New(), nil, e.priv, ct[establishHeaderSize:hdrLen], nil)
	if err != nil {
		return nil, fmt.Errorf("%w: session key unwrap failed", ErrCiphertext)
	}
	if len(key) != 32 {
		return nil, fmt.Errorf("%w: session key has wrong length", ErrCiphertext)
	}
	aead, err := newSessionAEAD(key)
	if err != nil {
		return nil, fmt.Errorf("%w: session cipher", ErrCiphertext)
	}
	nonce := sessionNonce(0)
	plain, err := aead.Open(dst, nonce[:], ct[hdrLen:], ct[:hdrLen])
	if err != nil {
		return nil, fmt.Errorf("%w: authentication failed", ErrCiphertext)
	}
	var sid [sessionIDSize]byte
	copy(sid[:], ct[5:5+sessionIDSize])
	e.installSession(sid, aead)
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
	if ct[4] != sessionVersion {
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
		// Evicted (or re-established) while the open ran.
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
