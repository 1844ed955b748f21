package transport

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/wire"
)

// UpdateRequest is one model update on its way into a tier: an enclave
// ciphertext on the participant leg, a plaintext encoded ParamSet on
// the server leg. The sender must not mutate the body while the send is
// in flight — Loopback hands it over without a copy — and may reuse it
// once the send returned, whatever it returned (see Transport). The
// receiver only reads it, and only until its handler returns (see
// Server).
type UpdateRequest struct {
	Body []byte
	// ClientID is the participant's pseudonymous id (wire.HeaderClient);
	// sharded proxies use it for sticky routing. Empty = anonymous.
	ClientID string
}

// HopRequest is one re-encrypted mixed update on the proxy→proxy
// cascade leg.
type HopRequest struct {
	Body []byte
	// Hop is the cascade depth to stamp (wire.HeaderHop); 0 is promoted
	// to 1 by the receiver, as the wire protocol specifies.
	Hop int
	// Secret is the receiver's inter-proxy bearer secret, if it requires
	// one.
	Secret string
}

// BatchRequest is a whole drained round in one request: an encoded
// wire.BatchEnvelope, hop-wrapped for the receiver's enclave on cascade
// and relay legs, plaintext on the server leg.
type BatchRequest struct {
	Body []byte
	// Hop is the cascade depth (0 = the plaintext server leg, where the
	// wire protocol carries no depth).
	Hop int
	// Secret is the receiver's inter-proxy bearer secret, if any (only
	// sent on hop legs, like the depth).
	Secret string
	// ID is the batch idempotency id (wire.HeaderBatch): deterministic
	// across redeliveries so the receiver can drop duplicates.
	ID string
	// Sender and Seq identify the sending outbox and the entry's
	// sequence number (wire.HeaderSender / wire.HeaderBatchSeq), letting
	// the receiver recognise redeliveries that aged out of its dedup
	// window. HasSeq distinguishes "no sender identity" from seq 0.
	Sender string
	Seq    uint64
	HasSeq bool
}

// Receipt acknowledges an accepted send.
type Receipt struct {
	// Shard is always -1; retired with the Hop verb.
	Shard int
	// Duplicate reports that the receiver had already applied this batch
	// (idempotency-id dedup) and acknowledged without reprocessing.
	Duplicate bool
}

// ModelResponse carries the aggregation server's global model.
type ModelResponse struct {
	// Round is the completed-round counter the model belongs to.
	Round int
	// Body is the encoded ParamSet.
	Body []byte
}

// TopologyRequest reads or reshapes a proxy's routing plane. A nil
// Directive reads; a non-nil one stages it for the next round close.
type TopologyRequest struct {
	Directive *wire.TopologyDirective
	// Secret is the proxy's inter-proxy secret (the admin surface is
	// gated on it).
	Secret string
}

// StatusResponse is a tier's status report. Exactly one field is set:
// proxies report ShardedProxyStatus, aggregation servers ServerStatus.
type StatusResponse struct {
	Proxy  *wire.ShardedProxyStatus
	Server *wire.ServerStatus
}

// StatusError is an application-level rejection: the typed form of a
// non-2xx response. Transports return it so callers classify retry
// policy on the code instead of re-parsing wire artefacts; servers
// return it so every transport renders the same rejection.
type StatusError struct {
	// Code is the rejection class, in HTTP status-code vocabulary (the
	// wire protocol's native taxonomy, meaningful over Loopback too).
	Code int
	// Stale marks a 409 as a stale-redelivery rejection
	// (wire.HeaderStale): permanent, unlike the retryable in-flight 409.
	Stale bool
	// SessionUnknown marks a 428 as a crypto-session rejection
	// (wire.HeaderSessionUnknown): the receiver's enclave no longer
	// holds the ciphertext's session, nothing was ingested, and the
	// sender recovers by re-establishing with a full wrap and resending.
	SessionUnknown bool
	// RetryAfter is the peer's backoff hint on a 429 admission
	// rejection (the standard Retry-After header over HTTP, carried
	// directly over Loopback): how long the sender should wait before
	// retrying here. Zero means no hint.
	RetryAfter time.Duration
	// Msg is the human-readable rejection reason.
	Msg string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("transport: peer rejected request: %d %s", e.Code, e.Msg)
}

// Errorf builds a StatusError with a formatted message.
func Errorf(code int, format string, args ...any) *StatusError {
	return &StatusError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// AsStatus unwraps a StatusError from err, nil if err carries none.
func AsStatus(err error) *StatusError {
	var se *StatusError
	if errors.As(err, &se) {
		return se
	}
	return nil
}

// SessionRejected reports whether err is the typed crypto-session
// rejection: the receiver provably ingested nothing, and the sender
// should re-establish its session (a fresh key agreement) and resend
// the same material.
func SessionRejected(err error) bool {
	se := AsStatus(err)
	return se != nil && se.SessionUnknown
}

// Unreached reports whether err proves the request never reached the
// peer — an ErrUnreachable (Loopback name miss) or an HTTP dial
// failure (connection refused, no route, DNS, or a dial TIMEOUT: a
// blackholed host that never answers the SYN still means no request
// bytes were sent), or an ErrBusy rejection at a full ingress queue
// (turned away at the door before any handler ran). Timeouts and
// failures AFTER the connection was established are NOT unreached: the
// request may have been delivered and processed, so a sender must
// treat them as ambiguous rather than safely retryable elsewhere.
func Unreached(err error) bool {
	if errors.Is(err, ErrUnreachable) || errors.Is(err, ErrBusy) {
		return true
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		// The dial check must run before the timeout check: a dial that
		// timed out is still a dial — nothing was sent.
		var oe *net.OpError
		if errors.As(ue.Err, &oe) {
			return oe.Op == "dial"
		}
	}
	return false
}

// CheckBody enforces the wire body bound on a typed request body. The
// HTTP adapter's bounded read already guarantees it on that path; typed
// servers call it so Loopback requests face the same limit.
func CheckBody(body []byte) error {
	if len(body) > wire.MaxBodyBytes {
		return Errorf(http.StatusBadRequest, "wire: body exceeds %d bytes", wire.MaxBodyBytes)
	}
	return nil
}

// FetchReport draws a fresh nonce, queries ep's attestation endpoint
// through tr and decodes the report. Participants and cascade/relay
// proxies share this handshake; verifying the report (against the
// pinned authority and expected measurement) stays with the caller.
func FetchReport(ctx context.Context, tr Transport, ep string) (enclave.Report, []byte, error) {
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return enclave.Report{}, nil, fmt.Errorf("transport: attestation nonce: %w", err)
	}
	ar, err := tr.Attest(ctx, ep, nonce)
	if err != nil {
		return enclave.Report{}, nil, err
	}
	rep, err := DecodeReport(ar)
	if err != nil {
		return enclave.Report{}, nil, err
	}
	return rep, nonce, nil
}

// DecodeReport converts the wire form of an attestation response into
// an enclave report.
func DecodeReport(ar wire.AttestationResponse) (enclave.Report, error) {
	var rep enclave.Report
	meas, err := hex.DecodeString(ar.MeasurementHex)
	if err != nil || len(meas) != 32 {
		return rep, fmt.Errorf("transport: malformed measurement in report")
	}
	copy(rep.Measurement[:], meas)
	if rep.Nonce, err = hex.DecodeString(ar.NonceHex); err != nil {
		return rep, fmt.Errorf("transport: malformed nonce in report")
	}
	rep.PubKeyDER = ar.PubKeyDER
	rep.Signature = ar.Signature
	return rep, nil
}

// bearerToken extracts the token of a Bearer Authorization header. A
// non-empty header WITHOUT the scheme prefix yields the empty string,
// which a secret-gated endpoint rejects — the pre-transport handlers
// compared the whole header against "Bearer "+secret, so a bare secret
// never authorized, and the typed adapter must not widen that.
func bearerToken(h http.Header) string {
	const prefix = "Bearer "
	v := h.Get("Authorization")
	if len(v) >= len(prefix) && v[:len(prefix)] == prefix {
		return v[len(prefix):]
	}
	return ""
}
