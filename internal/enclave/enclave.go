// Package enclave is a behavioural simulation of the Intel SGX enclave
// that hosts the MixNN proxy (paper §2.5, §4.3).
//
// What is real: all cryptography. Participants encrypt updates for the
// enclave's X25519 public key (one ephemeral-static key agreement plus
// HKDF-SHA256 per session, then AES-256-GCM, session.go);
// attestation reports bind a SHA-256 measurement of the enclave's code
// identity and are signed by a (simulated) attestation authority with
// ECDSA P-256; sealing uses AES-GCM under a key derived from a simulated
// CPU fuse secret and the measurement, so blobs sealed by one enclave
// identity cannot be unsealed by another.
//
// What is simulated: the hardware resource envelope. The enclave tracks
// EPC usage against the 96 MiB usable limit the paper cites and counts
// paging events when the working set exceeds it, and it offers a
// constant-duration processing gate that models the side-channel hardening
// of §4.3 (every update takes the same wall-clock time to process).
package enclave

import (
	"container/list"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"
)

// UsableEPCBytes is the usable enclave page cache cited by the paper:
// "only 96 MB out of the 128 reserved for the enclave can be used".
const UsableEPCBytes = 96 << 20

// Config parameterises a simulated enclave.
type Config struct {
	// CodeIdentity stands in for the enclave build being measured;
	// the measurement is SHA-256 of this string.
	CodeIdentity string
	// MemoryLimitBytes is the usable EPC size (default UsableEPCBytes).
	MemoryLimitBytes int
	// RSABits is ignored: the enclave's key pair is X25519, whose size
	// is fixed. It stays only so that callers which still set it compile.
	RSABits int
	// ConstantProcessing, when positive, makes every Process call take at
	// least this long (side-channel hardening, §4.3).
	ConstantProcessing time.Duration
	// SessionCacheEntries bounds the crypto session cache (default
	// DefaultSessionCacheEntries). Each cached session is EPC-accounted
	// at one page; the LRU evicts beyond the bound and evicted senders
	// re-establish on the typed session-unknown rejection.
	SessionCacheEntries int
}

func (c *Config) fillDefaults() {
	if c.CodeIdentity == "" {
		c.CodeIdentity = "mixnn-proxy-v1"
	}
	if c.MemoryLimitBytes == 0 {
		c.MemoryLimitBytes = UsableEPCBytes
	}
	if c.SessionCacheEntries == 0 {
		c.SessionCacheEntries = DefaultSessionCacheEntries
	}
}

// Stats reports the enclave's simulated resource state.
type Stats struct {
	MemoryUsedBytes  int
	MemoryPeakBytes  int
	MemoryLimitBytes int
	// PageEvents counts Alloc calls that pushed usage past the EPC limit;
	// on real SGX each would trigger costly EWB/ELDU paging.
	PageEvents int
	// SessionsActive is the current crypto session cache population;
	// the counters below run over the enclave's lifetime. A miss is a
	// data message for a session the cache no longer holds (the sender
	// re-establishes); a replay is an already-admitted counter.
	SessionsActive      int
	SessionsEstablished uint64
	SessionHits         uint64
	SessionMisses       uint64
	SessionEvictions    uint64
	SessionReplays      uint64
}

// Enclave is a simulated SGX enclave instance.
type Enclave struct {
	cfg         Config
	priv        *ecdh.PrivateKey
	measurement [32]byte
	sealKey     [32]byte

	mu       sync.Mutex
	memUsed  int
	memPeak  int
	pageEvts int
	// sessions is the bounded LRU of receiver-side crypto sessions (see
	// session.go); sessLRU orders it most-recently-used first.
	sessions        map[[sessionIDSize]byte]*sessionState
	sessLRU         *list.List
	sessEstablished uint64
	sessHits        uint64
	sessMisses      uint64
	sessEvicts      uint64
	sessReplays     uint64
}

// New creates an enclave: generates its key pair, computes its measurement
// and derives its sealing key from the platform's fuse secret.
func New(cfg Config, platform *Platform) (*Enclave, error) {
	cfg.fillDefaults()
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("enclave: generate key pair: %w", err)
	}
	e := &Enclave{
		cfg:      cfg,
		priv:     priv,
		sessions: make(map[[sessionIDSize]byte]*sessionState),
		sessLRU:  list.New(),
	}
	e.measurement = sha256.Sum256([]byte(cfg.CodeIdentity))
	// Sealing key = H(fuse secret || measurement): per-platform and
	// per-identity, like SGX's MRENCLAVE-bound sealing.
	h := sha256.New()
	h.Write(platform.fuseSecret[:])
	h.Write(e.measurement[:])
	copy(e.sealKey[:], h.Sum(nil))
	return e, nil
}

// Measurement returns the enclave's code measurement (MRENCLAVE analogue).
func (e *Enclave) Measurement() [32]byte { return e.measurement }

// PublicKey returns the enclave's encryption public key (k_pub in the
// paper); participants encrypt their parameter updates with it.
func (e *Enclave) PublicKey() *ecdh.PublicKey { return e.priv.PublicKey() }

const gcmNonceSize = 12

// Encrypt encrypts one plaintext for the enclave holding pub as a
// self-contained session establish frame (session.go): a fresh session
// whose only message this is — one X25519 key agreement per call. A
// sender with more than one update to send keeps the Session instead.
func Encrypt(pub *ecdh.PublicKey, plaintext []byte) ([]byte, error) {
	s, err := NewSession(pub)
	if err != nil {
		return nil, err
	}
	return s.Wrap(plaintext)
}

// ErrCiphertext is returned for malformed or tampered ciphertexts.
var ErrCiphertext = errors.New("enclave: invalid ciphertext")

// Decrypt opens a ciphertext inside the enclave: a session establish or
// data frame (see session.go). Nothing else is opened.
func (e *Enclave) Decrypt(ciphertext []byte) ([]byte, error) {
	return e.DecryptTo(nil, ciphertext)
}

// DecryptTo is Decrypt writing the plaintext into dst's backing array
// when its capacity suffices (dst's contents are overwritten from index
// 0; a too-small dst costs one allocation, as Decrypt does), so a caller
// that recycles plaintext buffers pays none per update. dst must be a
// buffer the caller allocated and must not overlap ciphertext: the
// ciphertext belongs to the transport — Loopback hands bodies over
// zero-copy and senders keep them for retries — so nothing is ever
// opened in place over it. On error dst's contents are unspecified.
func (e *Enclave) DecryptTo(dst, ciphertext []byte) ([]byte, error) {
	dst = dst[:0]
	if len(ciphertext) >= 4 {
		switch string(ciphertext[:4]) {
		case sessionMagicEstablish:
			return e.decryptEstablish(dst, ciphertext)
		case sessionMagicData:
			return e.decryptData(dst, ciphertext)
		}
	}
	return nil, fmt.Errorf("%w: not a session frame", ErrCiphertext)
}

// sealKeyFor derives the sealing key for a purpose label. The empty
// label is the base identity-bound key; any other label yields
// H(sealKey || label), so material sealed for one purpose (or one shard)
// cannot be presented as another — per-shard key separation for the
// sharded proxy's durable state.
func (e *Enclave) sealKeyFor(label string) []byte {
	if label == "" {
		return e.sealKey[:]
	}
	h := sha256.New()
	h.Write(e.sealKey[:])
	h.Write([]byte(label))
	return h.Sum(nil)
}

// Seal encrypts data under the enclave's identity-bound sealing key so it
// can persist outside trusted memory (paper §2.5).
func (e *Enclave) Seal(data []byte) ([]byte, error) {
	return e.SealLabeled("", data)
}

// SealLabeled seals data under a purpose-derived key (see sealKeyFor).
// SealLabeled("", data) is identical to Seal(data).
func (e *Enclave) SealLabeled(label string, data []byte) ([]byte, error) {
	block, err := aes.NewCipher(e.sealKeyFor(label))
	if err != nil {
		return nil, fmt.Errorf("enclave: seal cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("enclave: seal gcm: %w", err)
	}
	nonce := make([]byte, gcmNonceSize)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("enclave: seal nonce: %w", err)
	}
	return gcm.Seal(nonce, nonce, data, e.measurement[:]), nil
}

// Unseal decrypts a blob produced by Seal on the same platform and
// enclave identity.
func (e *Enclave) Unseal(blob []byte) ([]byte, error) {
	return e.UnsealLabeled("", blob)
}

// UnsealLabeled decrypts a blob produced by SealLabeled with the same
// label on the same platform and enclave identity.
func (e *Enclave) UnsealLabeled(label string, blob []byte) ([]byte, error) {
	if len(blob) < gcmNonceSize {
		return nil, fmt.Errorf("%w: sealed blob too short", ErrCiphertext)
	}
	block, err := aes.NewCipher(e.sealKeyFor(label))
	if err != nil {
		return nil, fmt.Errorf("enclave: unseal cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("enclave: unseal gcm: %w", err)
	}
	plain, err := gcm.Open(nil, blob[:gcmNonceSize], blob[gcmNonceSize:], e.measurement[:])
	if err != nil {
		return nil, fmt.Errorf("%w: unseal authentication failed", ErrCiphertext)
	}
	return plain, nil
}

// Alloc records n bytes of enclave memory use; crossing the EPC limit is
// counted as a paging event (the expensive case the paper sizes k against).
func (e *Enclave) Alloc(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.allocLocked(n)
}

func (e *Enclave) allocLocked(n int) {
	e.memUsed += n
	if e.memUsed > e.memPeak {
		e.memPeak = e.memUsed
	}
	if e.memUsed > e.cfg.MemoryLimitBytes {
		e.pageEvts++
	}
}

// Free releases n bytes of enclave memory.
func (e *Enclave) Free(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.freeLocked(n)
}

func (e *Enclave) freeLocked(n int) {
	e.memUsed -= n
	if e.memUsed < 0 {
		e.memUsed = 0
	}
}

// Stats returns the simulated resource counters.
func (e *Enclave) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		MemoryUsedBytes:     e.memUsed,
		MemoryPeakBytes:     e.memPeak,
		MemoryLimitBytes:    e.cfg.MemoryLimitBytes,
		PageEvents:          e.pageEvts,
		SessionsActive:      len(e.sessions),
		SessionsEstablished: e.sessEstablished,
		SessionHits:         e.sessHits,
		SessionMisses:       e.sessMisses,
		SessionEvictions:    e.sessEvicts,
		SessionReplays:      e.sessReplays,
	}
}

// Process runs fn and then, if ConstantProcessing is configured, blocks
// until the constant duration has elapsed, so processing time does not leak
// information about the update (§4.3: "the cost to process an update is
// constantly the same").
func (e *Enclave) Process(fn func() error) error {
	start := time.Now()
	err := fn()
	if d := e.cfg.ConstantProcessing; d > 0 {
		if rem := d - time.Since(start); rem > 0 {
			time.Sleep(rem)
		}
	}
	return err
}
