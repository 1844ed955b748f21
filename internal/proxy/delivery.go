// Delivery: the tier's outbound half. A closed round reaches this file as
// committed outbox entries; the dispatcher's workers take them from there
// to the downstream (aggregation server or cascade hop) and to remote
// shards, wrapped under the destination's hop key.
//
// Lock rule: p.mu (the round lock) may be held while taking delivery.mu,
// never the reverse — nothing in this file touches p.mu, so a delivery
// lane never waits on ingress, packaging or a seal. delivery.mu is
// never held across a transport call, and an acknowledgement does not take
// it: the ack counters are registry instruments. Each entry's retry memo is not
// delivery's to guard: it rides the outbox lane head the entry waits in,
// owned by the lane's one goroutine.
package proxy

import (
	"context"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/health"
	"mixnn/internal/outbox"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// delivery owns everything a delivery lane touches: the transport, the
// outbox and its dispatcher, the hop keys and inter-proxy secrets of every
// destination, and the counters of what was acknowledged. It holds no
// unmixed update and never sees the round lock.
type delivery struct {
	// tr, box, disp, downstream and the ack counters are set once by
	// newDelivery and only read afterwards, so the round side may use
	// them without mu.
	tr   transport.Transport
	box  *outbox.Queue
	disp *outbox.Dispatcher
	// downstream is where entries without a Dest go: the cascade's next
	// hop, or the aggregation server (nil key = plaintext).
	downstream hopTarget
	// Updates and batch POSTs acknowledged downstream (registry counters).
	forwarded, batches *health.Counter

	mu sync.Mutex
	// remotes maps remote shard addresses to attested key material. It
	// only grows: an address removed from the topology keeps its key so
	// outbox entries addressed to it under an earlier topology version
	// still deliver. An entry WITHOUT a key is a remote awaiting
	// re-attestation — restored from a seal blob with its trust material
	// only; target refuses it (its entries stall, never lost) until
	// reattest or a registration pins a key.
	remotes map[string]RemoteShard
}

// newDelivery builds the delivery half over an opened outbox, with its
// ack counters in reg, and starts its dispatcher.
func newDelivery(cfg ShardedConfig, tr transport.Transport, box *outbox.Queue, remotes map[string]RemoteShard, reg *health.Registry) *delivery {
	d := &delivery{
		tr: tr, box: box,
		downstream: hopTarget{base: cfg.Upstream},
		forwarded:  reg.NewCounter("mixnn_forwarded_total", "Updates acknowledged downstream."),
		batches:    reg.NewCounter("mixnn_batches_sent_total", "Batch POSTs acknowledged downstream."),
		remotes:    remotes,
	}
	if cfg.NextHop != "" {
		d.downstream = hopTarget{base: cfg.NextHop, sender: enclave.NewSender(cfg.NextHopKey), secret: cfg.NextHopSecret}
	}
	d.disp = outbox.NewDispatcher(box, d.deliver, outbox.Options{
		RetryBase: cfg.RetryBase,
		RetryMax:  cfg.RetryMax,
		Workers:   cfg.DeliveryWorkers,
	})
	d.disp.Start()
	return d
}

// RemoteShard is the attested key material of a remote shard: the hop
// key pinned by the attestation handshake plus the bearer secret its hop
// endpoints require (if any).
type RemoteShard struct {
	// Key is nil only inside the tier, for a remote restored from a seal
	// blob and not yet re-attested.
	Key    *enclave.HopKey
	Secret string
	// Trust is the attestation trust bundle the key was pinned under,
	// when known (directives and shards files carry it; a bare Key
	// handed to ShardedConfig.RemoteShards has none). It rides the seal
	// blob so a restarted replacement can RE-ATTEST the peer — the
	// peer's enclave key does not survive the peer's own restarts, so
	// sealing the pinned key would not be enough.
	Trust *RemoteTrust
	// sender holds the delivery session toward Key (see enclave.Sender);
	// pinned sets it, so re-registering an address — a fresh attested key
	// after the peer restarted — starts a fresh session with it.
	sender *enclave.Sender
}

// pinned returns rs ready for the delivery map: with a Sender of its own
// for the key it carries (a shared *HopKey still gets one session per
// tier), none for a keyless entry.
func (rs RemoteShard) pinned() RemoteShard {
	rs.sender = nil
	if rs.Key != nil {
		rs.sender = enclave.NewSender(rs.Key)
	}
	return rs
}

// RemoteTrust is the sealable trust material of one remote shard: what
// a proxy needs to re-run the hop attestation handshake after a
// restart, without an admin directive or a shards-file reload — the
// trust bundle the shard was pinned under plus its bearer secret.
type RemoteTrust struct {
	enclave.TrustBundle
	Secret string `json:"secret,omitempty"`
}

// deliverMemo caches one outbox entry's delivery artefacts across retry
// attempts — entries are immutable, and a long outage must not
// re-parse/re-wrap a large round every backoff tick. It is the entry's
// outbox.Entry.Memo, so it lives exactly as long as the entry waits at
// its lane's head, and only the worker draining that lane touches it.
type deliverMemo struct {
	env *outbox.Envelope // aliases the queue's (immutable) entry payload
	// body is the /v1/batch request body: the entry's own batch tail on
	// the plaintext server leg (a sub-slice of the payload, no copy), its
	// one hop wrap when cascading or relaying.
	body []byte
	id   string // idempotency id for body
	// sess is the crypto session that wrapped body (nil on the
	// plaintext server leg): a typed session rejection invalidates
	// exactly this session plus the memoized body, and the retry
	// re-wraps under a fresh establish. The idempotency id derives from
	// the entry's identity, not from body, so it survives the re-wrap
	// and redelivery stays exactly-once.
	sess *enclave.Session
}

// batchIDFor derives the idempotency id of an outbox entry from what
// already makes the entry unique and restart-stable: the queue's sender
// identity (persisted beside a disk queue) and the entry's never-reused
// sequence number, bound to the epoch, destination and update count the
// entry was committed with. It costs the same for a 2KB round and a
// 200MB one, does not depend on the hop wrap — a 428 re-wrap and a
// redelivery after a restart carry the id the first attempt did — names
// the entry rather than its content (two senders' byte-identical rounds
// are two rounds), and puts no fingerprint of the mixed plaintext into
// a cleartext header. Only a queue without a sender identity (its
// randomness source failed) falls back to hashing payload.
func batchIDFor(sender string, seq uint64, env *outbox.Envelope, payload []byte) string {
	in := payload
	if sender != "" {
		in = make([]byte, 0, 64+len(sender)+len(env.Dest))
		in = append(in, "mixnn/batch-id/v2\x00"...)
		in = append(append(in, sender...), 0)
		in = append(append(in, env.Dest...), 0)
		in = binary.LittleEndian.AppendUint64(in, seq)
		in = binary.LittleEndian.AppendUint64(in, env.Epoch)
		in = binary.LittleEndian.AppendUint32(in, uint32(len(env.Updates)))
	}
	sum := sha256.Sum256(in)
	return hex.EncodeToString(sum[:16])
}

// hopTarget is the resolved destination of one outbox entry: where to
// POST, and the session holder to wrap through, so cascade and relay legs
// pay the key agreement once per session instead of once per round (nil sender
// = plaintext to the aggregation server).
type hopTarget struct {
	base   string
	sender *enclave.Sender
	secret string
}

// target resolves an envelope's destination: a remote shard address when
// the entry is a relay leg of a multi-process topology, else the tier's
// cascade next hop or upstream server. A remote address without attested
// key material is a transient error — the material stays queued until
// the operator re-registers the shard (losing a round over a missing key
// would be strictly worse than stalling the queue).
func (d *delivery) target(env *outbox.Envelope) (hopTarget, error) {
	if env.Dest != "" {
		rs, _ := d.remote(env.Dest)
		if rs.sender == nil {
			return hopTarget{}, fmt.Errorf("proxy: no attested key for remote shard %s (topology v%d); re-register it via the topology admin endpoint", env.Dest, env.TopoVersion)
		}
		return hopTarget{base: env.Dest, sender: rs.sender, secret: rs.Secret}, nil
	}
	return d.downstream, nil
}

// deliver is the dispatcher callback: it sends one outbox entry (one
// destination's share of a drained round) onward. nil consumes the entry;
// a PermanentError quarantines it; anything else retries with backoff.
func (d *delivery) deliver(ctx context.Context, e *outbox.Entry) error {
	c, _ := e.Memo.(*deliverMemo)
	if c == nil {
		env, err := outbox.ParseEnvelope(e.Payload)
		if err != nil {
			// The queue's open hook already authenticated the entry, so a
			// parse failure means a foreign or torn payload: set it aside.
			return outbox.Permanent(err)
		}
		c = &deliverMemo{env: env}
		e.Memo = c
	}
	env := c.env
	if len(env.Updates) == 0 {
		return nil
	}
	tgt, err := d.target(env)
	if err != nil {
		return err
	}
	if c.body == nil {
		// The entry's tail is the batch body (packageRound sized it to the
		// receiver's read bound).
		enc := env.Batch
		if tgt.sender != nil {
			if enc, c.sess, err = tgt.sender.Wrap(enc); err != nil {
				return fmt.Errorf("proxy: wrap for %s: %w", tgt.base, err)
			}
		}
		c.body, c.id = enc, batchIDFor(d.box.SenderID(), e.Seq, env, e.Payload)
	}
	req := transport.BatchRequest{Body: c.body, ID: c.id}
	if tgt.sender != nil {
		req.Hop, req.Secret = env.Hop, tgt.secret
	}
	// Sender identity + entry sequence let the receiver detect a stale
	// redelivery even after the id aged out of its dedup window.
	if sender := d.box.SenderID(); sender != "" {
		req.Sender, req.Seq, req.HasSeq = sender, e.Seq, true
	}
	if _, err := d.tr.SendBatch(ctx, tgt.base, req); err != nil {
		if transport.SessionRejected(err) {
			// The downstream enclave lost our session and provably
			// ingested nothing: drop the session and the body memoized
			// under it, so the lane's retry wraps again — a lane has one
			// worker, so that wrap establishes (the idempotency id derives
			// from the entry's identity and comes out the same, so a
			// downstream that DID apply an earlier attempt still dedups
			// it).
			tgt.sender.Drop(c.sess)
			c.body, c.id, c.sess = nil, "", nil
		}
		return classifyDelivery(err)
	}
	d.forwarded.Add(float64(len(env.Updates)))
	d.batches.Inc()
	return nil
}

// classifyDelivery maps a transport error onto the dispatcher's retry
// semantics: a typed rejection carrying the stale marker, a definitive
// 4xx, or a depth rejection is permanent (retrying an entry the
// downstream rejects forever would wedge the strictly-ordered queue);
// anything else — including transport-level failures, where the
// downstream is simply unreachable — is transient. Auth failures
// (401/403) stay transient: they usually mean a secret rotation in
// progress, and quarantining a whole round over a recoverable operator
// mistake would lose it.
func classifyDelivery(err error) error {
	if errors.Is(err, transport.ErrNotSupported) {
		// A Loopback receiver that does not serve the operation — the
		// same misconfiguration an HTTP receiver answers with 404, which
		// the branch below quarantines; the two transports must agree on
		// retry policy.
		return outbox.Permanent(fmt.Errorf("proxy: downstream does not serve this operation: %w", err))
	}
	se := transport.AsStatus(err)
	if se == nil {
		return err // transient: downstream unreachable
	}
	code := se.Code
	switch {
	case se.SessionUnknown:
		// The downstream enclave lost the crypto session this entry was
		// wrapped under (restart or cache eviction) and provably
		// ingested nothing. The sender already invalidated the session
		// and memoized body, so the retry re-establishes — transient,
		// NOT the permanent 4xx class: quarantining would lose a good
		// round over a recoverable key-cache condition.
		return fmt.Errorf("proxy: downstream lost the delivery crypto session (re-establishing on retry): %d %s", code, se.Msg)
	case se.Stale && code == http.StatusConflict:
		return outbox.Permanent(fmt.Errorf("proxy: downstream rejected delivery as stale duplicate: %d %s", code, se.Msg))
	case code >= 400 && code < 500 &&
		code != http.StatusUnauthorized && code != http.StatusForbidden &&
		code != http.StatusConflict && // a duplicate still being applied by an earlier attempt
		code != http.StatusRequestTimeout && code != http.StatusTooManyRequests:
		return outbox.Permanent(fmt.Errorf("proxy: downstream rejected delivery: %d %s", code, se.Msg))
	case code == http.StatusLoopDetected:
		// The hop stamp inside the entry is immutable, so a depth
		// rejection can never succeed on retry.
		return outbox.Permanent(fmt.Errorf("proxy: downstream rejected delivery: %d %s", code, se.Msg))
	default:
		return fmt.Errorf("proxy: downstream returned %d %s", code, se.Msg)
	}
}

// AttestHopOver performs the proxy-to-proxy attestation handshake over
// tr (a Loopback tier attests its hops the same way an HTTP one does):
// it fetches the next hop's report, verifies it against the attestation
// authority and expected measurement, and returns the pinned hop key for
// ShardedConfig.NextHopKey.
func AttestHopOver(ctx context.Context, tr transport.Transport, nextHopEP string, authority *ecdsa.PublicKey, measurement [32]byte) (*enclave.HopKey, error) {
	rep, nonce, err := transport.FetchReport(ctx, tr, nextHopEP)
	if err != nil {
		return nil, err
	}
	return enclave.TrustHop(rep, authority, measurement, nonce)
}

// remote returns the attested key material registered for a remote
// shard address.
func (d *delivery) remote(addr string) (RemoteShard, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rs, ok := d.remotes[addr]
	return rs, ok
}

// RegisterRemote records attested key material for a remote shard
// address, making it usable in topology directives (and letting queued
// entries addressed to it deliver).
func (p *ShardedProxy) RegisterRemote(addr string, rs RemoteShard) error {
	return p.dlv.register(addr, rs)
}

func (d *delivery) register(addr string, rs RemoteShard) error {
	if addr == "" || rs.Key == nil {
		return fmt.Errorf("proxy: RegisterRemote needs an address and a hop key")
	}
	d.mu.Lock()
	d.remotes[addr] = rs.pinned()
	d.mu.Unlock()
	d.disp.Wake() // entries may have been waiting on this key
	return nil
}

// ensureRemote makes sure attested key material exists for a remote
// shard spec: addresses that hold a key pass through (the secret may be
// refreshed); new ones — and ones still awaiting re-attestation — must
// carry trust material (inline DER + measurement, or a trust-bundle file)
// and are attested now, so a bad directive fails at the admin call, not
// at delivery time.
func (d *delivery) ensureRemote(ctx context.Context, s wire.TopologyShardSpec) error {
	d.mu.Lock()
	existing := d.remotes[s.Addr]
	if existing.Key != nil && s.AuthorityPubDER == nil && s.TrustFile == "" {
		if s.Secret != "" && s.Secret != existing.Secret {
			existing.Secret = s.Secret
			if existing.Trust != nil {
				existing.Trust.Secret = s.Secret
			}
			d.remotes[s.Addr] = existing
		}
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()
	actx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	rs, err := resolveRemoteShard(actx, s, d.tr)
	if err != nil {
		return err
	}
	return d.register(s.Addr, rs)
}

// trust snapshots the sealable trust material of every remote shard,
// those still awaiting re-attestation included: a tier sealed while a
// peer was still down must not lose that peer's trust, or its own blob
// would become unrestorable.
func (d *delivery) trust() map[string]RemoteTrust {
	d.mu.Lock()
	defer d.mu.Unlock()
	trust := make(map[string]RemoteTrust)
	for addr, rs := range d.remotes {
		if rs.Trust != nil {
			trust[addr] = *rs.Trust
		}
	}
	return trust
}

// restore carries a sealed tier's delivery state into this one: its
// forwarded count (added, so acknowledgements this process already saw
// stay counted), and a keyless entry holding the sealed trust of every
// address not registered here — reattest (or an explicit RegisterRemote)
// turns those into deliverable relay legs.
func (d *delivery) restore(forwarded int, trust map[string]RemoteTrust) {
	d.forwarded.Add(float64(forwarded))
	d.mu.Lock()
	defer d.mu.Unlock()
	for addr, rt := range trust {
		if _, ok := d.remotes[addr]; !ok {
			d.remotes[addr] = RemoteShard{Secret: rt.Secret, Trust: &rt}
		}
	}
}

// ReattestRemotes re-runs the hop attestation handshake for every
// remote shard restored from a seal blob with its trust material only
// (no key re-attested or registered since), registering the fresh keys it
// pins (which also wakes the delivery dispatcher: queued relay entries
// for those shards become deliverable). The sealed PINNED key would not
// have been enough — a peer's enclave key does not survive the peer's
// own restart — which is why the blob carries trust material instead.
// A peer that is down stays keyless (its queued material stalls, it is
// never lost) and the returned error reports it; calling again retries.
func (p *ShardedProxy) ReattestRemotes(ctx context.Context) error {
	return p.dlv.reattest(ctx)
}

func (d *delivery) reattest(ctx context.Context) error {
	d.mu.Lock()
	pending := make(map[string]RemoteTrust)
	for addr, rs := range d.remotes {
		if rs.Key == nil && rs.Trust != nil {
			pending[addr] = *rs.Trust
		}
	}
	d.mu.Unlock()
	var errs []error
	for addr, rt := range pending {
		rs, err := attestRemote(ctx, d.tr, addr, rt)
		if err == nil {
			err = d.register(addr, rs)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("proxy: re-attest remote shard %s: %w", addr, err))
		}
	}
	return errors.Join(errs...)
}
