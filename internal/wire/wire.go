// Package wire defines the HTTP protocol spoken between participants, the
// MixNN proxy and the aggregation server, plus bounded-read helpers for
// handling untrusted bodies.
//
// Endpoints (all bodies are binary unless noted):
//
//	POST {proxy}/v1/update        encrypted update (enclave hybrid ciphertext)
//	POST {proxy}/v1/hop           one re-encrypted mixed update; X-Mixnn-Hop
//	                              carries the hop depth (served, but no
//	                              proxy sends on it: rounds travel on
//	                              /v1/batch)
//	POST {proxy}/v1/batch         a whole drained round from an upstream
//	                              proxy: a BatchEnvelope re-encrypted for
//	                              this hop's enclave; X-Mixnn-Hop carries
//	                              the depth, X-Mixnn-Batch the idempotency
//	                              id the receiver dedups on
//	POST {server}/v1/update       one plaintext encoded ParamSet (served;
//	                              proxies deliver whole rounds on /v1/batch)
//	POST {server}/v1/batch        plaintext BatchEnvelope (one drained
//	                              round); X-Mixnn-Batch idempotency id
//	GET  {server}/v1/model        current global model; X-Mixnn-Round header
//	GET  {server}/v1/status       JSON ServerStatus
//	GET  {proxy}/v1/attestation   JSON AttestationResponse (nonce query param)
//	GET  {proxy}/v1/status        JSON ShardedProxyStatus (every proxy is a
//	                              sharded tier; single proxies are Shards=1)
//	GET  {proxy}/v1/admin/topology  JSON TopologyStatus: the routing plane's
//	                              current (and staged) topology
//	GET  {proxy}/v1/discover      JSON DiscoverResponse: the proxy's peer
//	                              list and health score (control plane;
//	                              SDKs bootstrap and rank their failover
//	                              list from it)
//	GET  {proxy}/v1/metrics       Prometheus text exposition (operator
//	                              metrics)
//	POST {proxy}/v1/admin/topology  JSON TopologyDirective: stage the next
//	                              epoch's topology (applied at round close);
//	                              requires the inter-proxy secret — 403
//	                              when the proxy runs without one
//
// The single-update endpoints remain for compatibility; batch-capable
// proxies coalesce a drained round into one /v1/batch POST.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Header names. Go canonicalises header keys, so these are the canonical
// forms.
const (
	HeaderRound  = "X-Mixnn-Round"
	HeaderClient = "X-Mixnn-Client"
	// HeaderHop carries the cascade depth of an inter-proxy update: the
	// first mixing proxy forwards with hop 1, the next with hop 2, and so
	// on. Proxies reject updates whose hop exceeds their configured bound,
	// which breaks forwarding loops.
	HeaderHop = "X-Mixnn-Hop"
	// HeaderBatch carries the idempotency id of a /v1/batch POST. The
	// sender derives it deterministically from the outbox entry, so a
	// redelivery after a lost acknowledgement carries the same id and the
	// receiver can drop the duplicate instead of double-counting a round.
	HeaderBatch = "X-Mixnn-Batch"
	// HeaderSender identifies the sending outbox (a stable random id) on
	// /v1/batch POSTs, and HeaderBatchSeq carries the entry's sequence
	// number in that outbox. Together they let a receiver recognise a
	// redelivery whose idempotency id has already aged out of the dedup
	// window: the sender's queue is strictly ordered, so a sequence number
	// at or below the sender's last acknowledged one can only be a stale
	// duplicate — the receiver answers 409 instead of re-absorbing it.
	HeaderSender   = "X-Mixnn-Sender"
	HeaderBatchSeq = "X-Mixnn-Batch-Seq"
	// HeaderStale marks a 409 response as a STALE-redelivery rejection
	// (as opposed to "application in flight", which is retryable): the
	// batch was superseded at this receiver and retrying can never
	// succeed, so the sender must quarantine the entry instead of
	// retrying it forever.
	HeaderStale = "X-Mixnn-Stale"
	// HeaderSessionUnknown marks a rejection (428) as a crypto-session
	// miss: the receiver's enclave no longer holds the session the
	// ciphertext names (cache eviction or a restart), so NOTHING was
	// ingested and the sender must re-establish under a fresh session and
	// resend. Distinct from plain 4xx so senders never quarantine or
	// fail over on what is a recoverable key-cache condition.
	HeaderSessionUnknown = "X-Mixnn-Session-Unknown"
	// HeaderProto carries the typed-protocol version a peer speaks. A
	// missing header means ProtoV1 — exactly what pre-transport binaries
	// send — so version negotiation is wire-compatible in both
	// directions: new senders tag their requests, new receivers reject
	// only versions they provably cannot serve, and old peers never see a
	// difference.
	HeaderProto = "X-Mixnn-Proto"
)

// ProtoV1 is the current typed-protocol version. The typed transport
// stamps it on every request and response; endpoints refuse requests
// claiming a HIGHER version (the peer would rely on semantics this
// binary does not implement) and accept everything at or below it.
const ProtoV1 = 1

// ParseProto extracts the typed-protocol version from a header set. A
// missing header is version 1 (pre-negotiation binaries). Malformed or
// non-positive values are rejected.
func ParseProto(h http.Header) (int, error) {
	v := h.Get(HeaderProto)
	if v == "" {
		return ProtoV1, nil
	}
	p, err := strconv.Atoi(v)
	if err != nil || p <= 0 {
		return 0, fmt.Errorf("wire: invalid %s header %q", HeaderProto, v)
	}
	return p, nil
}

// ParseHop extracts the cascade depth from a request's HeaderHop value.
// A missing header means depth 0 (a participant update). Negative or
// non-numeric values are rejected.
func ParseHop(h http.Header) (int, error) {
	v := h.Get(HeaderHop)
	if v == "" {
		return 0, nil
	}
	hop, err := strconv.Atoi(v)
	if err != nil || hop < 0 {
		return 0, fmt.Errorf("wire: invalid %s header %q", HeaderHop, v)
	}
	return hop, nil
}

// ContentTypeUpdate is the content type of binary model updates.
const ContentTypeUpdate = "application/x-mixnn-update"

// ContentTypeBatch is the content type of BatchEnvelope bodies.
const ContentTypeBatch = "application/x-mixnn-batch"

// BatchEnvelope is the wire container for one drained round: the mixed
// updates a proxy forwards as a single POST instead of one request per
// update. Binary layout (little-endian), versioned:
//
//	magic   [4]byte "MXBE"
//	version uint8 (1)
//	count   uint32
//	per update: len uint32, bytes (an encoded ParamSet, opaque here)
//
// On the proxy→server leg the envelope travels in plaintext (like
// /v1/update bodies); on the proxy→proxy cascade leg the whole encoded
// envelope is wrapped for the next hop's enclave, so a round costs one
// re-encryption instead of C.
type BatchEnvelope struct {
	Updates [][]byte
}

const (
	batchMagic   = "MXBE"
	batchVersion = 1
	batchHeader  = 4 + 1 + 4 // magic, version, count

	// maxBatchUpdates bounds the updates one envelope may claim (the
	// decoder handles untrusted input).
	maxBatchUpdates = 1 << 20
)

// BatchSize returns the exact size of a batch body of count updates that
// carry payloadBytes encoded bytes in total.
func BatchSize(count, payloadBytes int) int {
	return batchHeader + 4*count + payloadBytes
}

// BatchWriter appends one batch body to a buffer in place: the format's
// one writer. BatchEnvelope.Encode writes through it, and so does the
// outbox, whose entry tail is a batch body, so a producer that can
// append-encode its updates (nn.AppendParamSet) writes each update's
// bytes exactly once, where they will be sent. Unlike Encode it writes a
// body without updates too; DecodeBatchEnvelope refuses one.
type BatchWriter struct {
	buf   []byte
	start int // offset of the body's header in buf
	count uint32
}

// StartBatch begins a batch body at the end of buf. Size buf's capacity
// with BatchSize and the body is written without reallocating.
func StartBatch(buf []byte) BatchWriter {
	start := len(buf)
	buf = append(buf, batchMagic...)
	buf = append(buf, batchVersion)
	return BatchWriter{buf: binary.LittleEndian.AppendUint32(buf, 0), start: start}
}

// Append adds one update: encode appends the update's bytes to the slice
// it is given and returns the extended slice. A failed encode, or an
// update past the format's bounds, leaves the body as it was.
func (w *BatchWriter) Append(encode func(buf []byte) ([]byte, error)) error {
	if w.count >= maxBatchUpdates {
		return fmt.Errorf("wire: more than %d updates in one batch", maxBatchUpdates)
	}
	lenOff := len(w.buf)
	buf, err := encode(binary.LittleEndian.AppendUint32(w.buf, 0))
	if err != nil {
		return err
	}
	n := len(buf) - lenOff - 4
	if n < 0 || n > MaxBodyBytes {
		return fmt.Errorf("wire: batch update %d is %d bytes, outside [0, %d]", w.count, n, MaxBodyBytes)
	}
	binary.LittleEndian.PutUint32(buf[lenOff:], uint32(n))
	w.buf = buf
	w.count++
	return nil
}

// Finish returns the buffer StartBatch was given with the finished body
// appended. The writer must not be used again.
func (w *BatchWriter) Finish() []byte {
	binary.LittleEndian.PutUint32(w.buf[w.start+batchHeader-4:], w.count)
	return w.buf
}

// Encode serialises the envelope.
func (e BatchEnvelope) Encode() ([]byte, error) {
	if len(e.Updates) == 0 {
		return nil, fmt.Errorf("wire: empty batch envelope")
	}
	payload := 0
	for _, u := range e.Updates {
		payload += len(u)
	}
	w := StartBatch(make([]byte, 0, BatchSize(len(e.Updates), payload)))
	for _, u := range e.Updates {
		if err := w.Append(func(buf []byte) ([]byte, error) { return append(buf, u...), nil }); err != nil {
			return nil, err
		}
	}
	return w.Finish(), nil
}

// DecodeBatchEnvelope parses an envelope from untrusted input, validating
// structure before allocating. The returned update slices alias data.
func DecodeBatchEnvelope(data []byte) (BatchEnvelope, error) {
	if len(data) < batchHeader || string(data[:4]) != batchMagic {
		return BatchEnvelope{}, fmt.Errorf("wire: bad batch magic")
	}
	if data[4] != batchVersion {
		return BatchEnvelope{}, fmt.Errorf("wire: batch version %d, want %d", data[4], batchVersion)
	}
	count := binary.LittleEndian.Uint32(data[5:])
	if count == 0 || count > maxBatchUpdates {
		return BatchEnvelope{}, fmt.Errorf("wire: batch update count %d out of range", count)
	}
	// Each update needs at least its 4-byte length prefix, so a count
	// the body cannot possibly hold is rejected before the pre-sized
	// allocation — a 13-byte forgery must not buy megabytes of headers.
	if uint64(count) > uint64(len(data)-batchHeader)/4 {
		return BatchEnvelope{}, fmt.Errorf("wire: batch update count %d exceeds body", count)
	}
	off := batchHeader
	env := BatchEnvelope{Updates: make([][]byte, 0, count)}
	for i := uint32(0); i < count; i++ {
		if len(data)-off < 4 {
			return BatchEnvelope{}, fmt.Errorf("wire: batch truncated at update %d", i)
		}
		// Compare in uint64: on 32-bit platforms int(n) of an adversarial
		// length ≥ 2³¹ would go negative and slip past the bound.
		n32 := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if uint64(n32) > MaxBodyBytes || uint64(n32) > uint64(len(data)-off) {
			return BatchEnvelope{}, fmt.Errorf("wire: batch update %d length %d exceeds remaining bytes", i, n32)
		}
		n := int(n32)
		env.Updates = append(env.Updates, data[off:off+n:off+n])
		off += n
	}
	if off != len(data) {
		return BatchEnvelope{}, fmt.Errorf("wire: %d trailing bytes after batch", len(data)-off)
	}
	return env, nil
}

// MaxBodyBytes bounds request/response bodies (encrypted or encoded
// updates). 512 MiB accommodates the largest models the codec accepts.
const MaxBodyBytes = 512 << 20

// AttestationResponse carries the enclave report to participants.
type AttestationResponse struct {
	MeasurementHex string `json:"measurement"`
	NonceHex       string `json:"nonce"`
	PubKeyDER      []byte `json:"pub_key_der"`
	Signature      []byte `json:"signature"`
}

// ServerStatus reports aggregation-server progress.
type ServerStatus struct {
	Round          int `json:"round"`
	UpdatesInRound int `json:"updates_in_round"`
	ExpectPerRound int `json:"expect_per_round"`
}

// ShardStatus reports one mixing shard inside a sharded proxy.
type ShardStatus struct {
	Shard    int `json:"shard"`
	K        int `json:"k"`
	Buffered int `json:"buffered"`
	Received int `json:"received"`
	Emitted  int `json:"emitted"`
	// Quota is the shard's per-round update quota under the current
	// topology; Load counts updates routed to it in the open round.
	Quota int `json:"quota"`
	Load  int `json:"load"`
	// Addr is set for a remote shard: the peer proxy (its own enclave)
	// this shard's material is relayed to.
	Addr string `json:"addr,omitempty"`
	// Weight is the shard's capacity weight in the topology.
	Weight int `json:"weight"`
}

// OutboxLaneStatus reports one delivery lane of the outbox: the pending
// backlog and retry state for a single destination. Dest is the remote
// shard address the lane serves; empty means the tier's ordinary
// downstream (aggregation server or cascade next hop).
type OutboxLaneStatus struct {
	Dest    string `json:"dest,omitempty"`
	Pending int    `json:"pending"`
	// InFlight reports a delivery attempt running right now.
	InFlight bool `json:"in_flight,omitempty"`
	// BackoffMs is the lane's current retry delay (0 when healthy) and
	// NextRetryMs the time until its next gated attempt.
	BackoffMs   float64 `json:"backoff_ms,omitempty"`
	NextRetryMs float64 `json:"next_retry_ms,omitempty"`
	// Delivered counts entries acknowledged on this lane since the
	// process started; Failures counts transient delivery failures.
	Delivered uint64 `json:"delivered"`
	Failures  uint64 `json:"failures,omitempty"`
}

// ShardedProxyStatus reports a sharded proxy tier: global round progress,
// cascade wiring and the per-shard mixer states.
type ShardedProxyStatus struct {
	Shards      []ShardStatus `json:"shards"`
	Received    int           `json:"received"`
	HopReceived int           `json:"hop_received"`
	Forwarded   int           `json:"forwarded"`
	Rounds      int           `json:"rounds"`
	InRound     int           `json:"in_round"`
	RoundSize   int           `json:"round_size"`
	// Epoch is the round currently being ingested — deliberately an
	// alias of Rounds in the delivery pipeline's vocabulary: with
	// cross-round pipelining the tier ingests epoch N while the
	// dispatcher still delivers earlier epochs, so the pair (Epoch,
	// OutboxPending) shows how far delivery lags ingest. Consumers
	// watching delivery should read these two; Rounds stays for the
	// pre-pipeline round counter.
	Epoch int `json:"epoch"`
	// OutboxPending counts drained rounds committed to the delivery
	// outbox but not yet acknowledged downstream, across all lanes.
	OutboxPending int `json:"outbox_pending"`
	// OutboxLanes breaks the delivery backlog down per destination lane:
	// each remote peer, plus the tier's ordinary downstream (empty
	// dest). A healthy tier shows every lane at backoff 0; a dead peer
	// shows its own lane backing off while the others stay clear.
	OutboxLanes []OutboxLaneStatus `json:"outbox_lanes,omitempty"`
	// BatchesSent counts /v1/batch POSTs acknowledged downstream.
	BatchesSent int    `json:"batches_sent"`
	NextHop     string `json:"next_hop,omitempty"`
	MaxHops     int    `json:"max_hops"`
	// TopoVersion is the routing plane's current topology version and
	// RoutingMode its policy ("sticky" or "hash-quota").
	TopoVersion uint64 `json:"topo_version"`
	RoutingMode string `json:"routing_mode"`
	// StagedTopoVersion is set when a topology directive awaits the next
	// round close.
	StagedTopoVersion uint64 `json:"staged_topo_version,omitempty"`
	// OutboxQuarantined counts outbox entries set aside as undeliverable
	// (.bad files) — rounds that left the delivery path and need an
	// operator.
	OutboxQuarantined int `json:"outbox_quarantined"`
	// RestoredFrom is the shard count of the sealed blob this tier was
	// restored from, 0 if it started fresh; it differs from len(Shards)
	// once a later directive has changed the shard set.
	RestoredFrom  int     `json:"restored_from,omitempty"`
	UpdateBytes   int     `json:"update_bytes"`
	EnclaveUsed   int     `json:"enclave_used_bytes"`
	EnclavePeak   int     `json:"enclave_peak_bytes"`
	EnclavePaging int     `json:"enclave_page_events"`
	DecryptMillis float64 `json:"decrypt_ms_mean"`
	// DecryptMicros is the same per-update decrypt mean in µs — the
	// headline number for the session-crypto path, where the cost sits
	// far below a millisecond (DecryptMillis stays for older
	// consumers).
	DecryptMicros float64 `json:"decrypt_us_mean"`
	StoreMillis   float64 `json:"store_ms_mean"`
	MixMillis     float64 `json:"mix_ms_mean"`
	ProcessMillis float64 `json:"process_ms_mean"`
	// Crypto session cache observability: the enclave's live session
	// count plus its lifetime establish/hit/miss/evict/replay counters.
	// A healthy steady state shows hits ≫ establishes, with misses
	// clustered around restarts or cache pressure; a sustained miss or
	// replay rate means senders are re-establishing (and paying a key
	// agreement) per send.
	SessionsActive      int    `json:"sessions_active"`
	SessionsEstablished uint64 `json:"sessions_established"`
	SessionHits         uint64 `json:"session_hits"`
	SessionMisses       uint64 `json:"session_misses"`
	SessionEvictions    uint64 `json:"session_evictions,omitempty"`
	SessionReplays      uint64 `json:"session_replays,omitempty"`
	// Admission-control outcomes: updates refused because the sender was
	// over its token-bucket budget, and updates refused while the tier
	// was load-shedding. Both are provably-not-ingested 429 rejections.
	AdmissionRateLimited uint64 `json:"admission_rate_limited,omitempty"`
	AdmissionShed        uint64 `json:"admission_shed,omitempty"`
}

// DiscoverResponse is what a proxy advertises on /v1/discover, and no
// more than its one reader (the SDK's failover ranking) reads: who its
// peers are, and how loaded it is condensed into a health score in (0, 1]
// that SDKs sort their failover lists by. The endpoint is served
// unauthenticated, and topology or mixing-rate knowledge sharpens
// membership inference, so round fill, shard loads, epoch and the raw
// pressure signals are not here; operators read them from /v1/status and
// /v1/metrics. Peers are endpoint strings only; a client probes each
// peer's own /v1/discover for its health, and every learned peer still
// gates on attestation before receiving material, so a malicious peer
// list cannot redirect updates to an unattested enclave.
type DiscoverResponse struct {
	// Endpoint is the advertising proxy's own base URL as it wants to be
	// addressed (may be empty when the proxy does not know it).
	Endpoint string `json:"endpoint,omitempty"`
	// Peers lists sibling front endpoints a participant could fail over
	// to (operator-configured; never includes the proxy itself).
	Peers []string `json:"peers,omitempty"`
	// Health is the computed score in (0, 1]; higher is healthier, and a
	// shedding proxy always scores below any non-shedding one.
	Health float64 `json:"health"`
}

// TopologyShardSpec describes one shard in a topology directive. A
// remote shard carries the peer's address plus the attestation material
// to pin its enclave (the same trust bundle participants use): the
// receiving proxy runs the hop attestation handshake before staging.
type TopologyShardSpec struct {
	// Addr is empty for a local shard, the peer proxy's base URL for a
	// remote one.
	Addr string `json:"addr,omitempty"`
	// Weight scales the shard's share of the round (default 1).
	Weight int `json:"weight,omitempty"`
	// AuthorityPubDER + MeasurementHex pin the remote shard's enclave
	// (required with Addr unless the proxy already holds an attested key
	// for it). TrustFile is the file-based alternative for -shards-file:
	// the path of the peer's trust bundle.
	AuthorityPubDER []byte `json:"authority_pub_der,omitempty"`
	MeasurementHex  string `json:"measurement,omitempty"`
	TrustFile       string `json:"trust_file,omitempty"`
	// Secret is the inter-proxy bearer secret the remote shard's hop
	// endpoints require, if any.
	Secret string `json:"secret,omitempty"`
}

// TopologyDirective asks the proxy to reshape its routing plane at the
// next round close. Empty fields keep their current values.
type TopologyDirective struct {
	// Mode is "sticky" or "hash-quota" ("" = keep).
	Mode string `json:"mode,omitempty"`
	// RoundSize changes the round size C (0 = keep).
	RoundSize int `json:"round_size,omitempty"`
	// Shards replaces the shard set (absent = keep).
	Shards []TopologyShardSpec `json:"shards,omitempty"`
	// SyncPeers makes the receiving proxy drive each remote shard's OWN
	// round size to that shard's new quota, by posting a RoundSize
	// directive to the peer's admin endpoint as part of staging this one.
	// One directive thus reshapes both ends of every relay leg in the
	// same epoch, instead of the operator coordinating two proxies by
	// hand. Peers must run with an inter-proxy secret (their admin POST
	// surface is gated on it), and the receiving proxy must be QUIESCENT
	// (no open round, empty delivery outbox) — otherwise the directive is
	// rejected, because material routed under the old quotas could land
	// in peer rounds already resized to the new ones.
	SyncPeers bool `json:"sync_peers,omitempty"`
}

// TopologyStatus reports the routing plane over the admin endpoint.
type TopologyStatus struct {
	Version   uint64          `json:"version"`
	Mode      string          `json:"mode"`
	RoundSize int             `json:"round_size"`
	Epoch     int             `json:"epoch"`
	Shards    []TopologyShard `json:"shards"`
	// Staged describes the topology staged for the next round close, if
	// any.
	Staged *TopologyStaged `json:"staged,omitempty"`
}

// TopologyShard is one shard's view in TopologyStatus.
type TopologyShard struct {
	Shard  int    `json:"shard"`
	Addr   string `json:"addr,omitempty"`
	Weight int    `json:"weight"`
	Quota  int    `json:"quota"`
	Load   int    `json:"load"`
}

// TopologyStaged summarises a staged (not yet applied) topology.
type TopologyStaged struct {
	Version   uint64          `json:"version"`
	Mode      string          `json:"mode"`
	RoundSize int             `json:"round_size"`
	Shards    []TopologyShard `json:"shards"`
}

// Growth steps of ReadBody. A request body is read before admission
// runs, so sizing the buffer to the declared length would let a peer
// that sends nothing pin MaxBodyBytes per connection. The buffer instead
// starts at min(declared, knownFirstStep) and doubles as bytes actually
// arrive, capped at the declaration: a silent peer pins at most
// knownFirstStep, a talking one at most twice what it has sent, and a
// first-time multi-megabyte round batch still costs three steps, not
// the forty of growing 1.25x from 512 bytes. These are properties of
// the rule, not knobs.
const (
	knownFirstStep   = 1 << 20
	unknownFirstStep = 512
)

// ReadBody reads one whole request/response body of at most bound bytes
// (MaxBodyBytes everywhere outside tests) — the wire protocol's only
// bounded read. n is the length the peer declared (Content-Length;
// negative when the body is chunked): a declaration above bound is refused
// before a byte is read, a body that ends short of it is an error, and
// bytes past it are not read. An undeclared body is read to EOF and
// refused once it exceeds bound.
//
// The body lands in buf's backing array from index 0 when that is large
// enough (buf's contents are overwritten; nil is fine) and in a grown
// copy otherwise, so a caller that recycles the returned slice reads
// steady traffic without allocating.
func ReadBody(buf []byte, r io.Reader, n int64, bound int) ([]byte, error) {
	if n > int64(bound) {
		return nil, fmt.Errorf("wire: body exceeds %d bytes", bound)
	}
	limit, first := int(n), knownFirstStep
	if n < 0 {
		limit, first = bound+1, unknownFirstStep
	}
	if first = min(first, limit); cap(buf) < first {
		buf = make([]byte, 0, first)
	}
	buf = buf[:0]
	for len(buf) < limit {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(limit, 2*cap(buf))), buf...)
		}
		m, err := r.Read(buf[len(buf):min(cap(buf), limit)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			if n < 0 || len(buf) == limit {
				break
			}
			err = io.ErrUnexpectedEOF // ended short of its declared length
		}
		if err != nil {
			return nil, fmt.Errorf("wire: read body: %w", err)
		}
	}
	if len(buf) > bound {
		return nil, fmt.Errorf("wire: body exceeds %d bytes", bound)
	}
	return buf, nil
}

// WriteJSON writes v as a JSON response.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing more to do than drop the
		// connection, which the caller's return accomplishes.
		return
	}
}

// DecodeJSON parses a bounded JSON body of undeclared length into v.
func DecodeJSON(r io.Reader, v any) error {
	data, err := ReadBody(nil, r, -1, MaxBodyBytes)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("wire: decode json: %w", err)
	}
	return nil
}
