// Package client is the participant SDK: the component behind the
// paper's "users have only to configure its system to use a proxy",
// grown into an API a real deployment can hold onto. A Participant is a
// session handle onto the MixNN deployment: it discovers and attests
// the mixing tier's enclave, holds an ORDERED FAILOVER LIST of proxy
// endpoints, encrypts each round's update for the enclave it attested,
// and sends with retry semantics that respect the tier's protocol (202
// acknowledges acceptance into the tier; definitive 4xx rejections are
// permanent and never failed over; transport failures and 5xx answers
// fail over to the next proxy). An Admin sub-client drives the
// routing-plane directives of PR 4's admin surface through the same
// typed transport.
//
// Every leg goes through a transport.Transport, so the same Participant
// drives a networked deployment (HTTP) or an in-process one (Loopback)
// unchanged.
package client

import (
	"context"
	"crypto/ecdh"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"mixnn/internal/enclave"
	"mixnn/internal/nn"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// Config parameterises a Participant session.
type Config struct {
	// Proxies is the ordered failover list of mixing-tier endpoints:
	// sends try them in order until one accepts. At least one is
	// required.
	Proxies []string
	// Server is the aggregation server endpoint (model fetches).
	Server string
	// Transport carries every leg; nil = the HTTP transport.
	Transport transport.Transport
	// ClientID is the pseudonymous id sent with each update. A sharded
	// proxy uses it for sticky shard routing, so a participant's updates
	// always meet the same mixing buffer; without it routing falls back
	// to the tier's anonymous policy.
	ClientID string
	// Authority and Measurement pin the attestation trust: the
	// (simulated) authority key and the expected enclave measurement
	// every proxy on the failover list must attest to. They may instead
	// be supplied through Attest.
	Authority   *ecdsa.PublicKey
	Measurement [32]byte
}

// Participant is the participant-side session handle. It is safe for
// concurrent use.
type Participant struct {
	tr     transport.Transport
	server string

	mu sync.Mutex
	// proxies is the ordered failover list. It starts as the configured
	// static list and is REPLACED by Discover: bootstrapped to the full
	// peer set learned from one seed and re-ranked by observed health.
	// Every reader takes a snapshot under mu (proxySnapshot/primary).
	proxies     []string
	clientID    string
	authority   *ecdsa.PublicKey
	measurement [32]byte
	// senders holds, per proxy endpoint, the attested (or pinned) enclave
	// key and the current crypto session toward it (enclave.Sender):
	// failover re-encrypts for the endpoint it lands on, steady-state
	// sends are GCM-only under the session key, and the one-time key
	// agreement rides the session's first update. Re-pinning an endpoint
	// replaces its Sender, and the session built for the superseded key
	// with it.
	senders map[string]*enclave.Sender
	// flights single-flights the lazy failover attestation per endpoint:
	// when many goroutines share one client and fail over simultaneously
	// (a primary dying under load), exactly one runs the handshake and
	// the rest wait on its result instead of stampeding the fallback
	// proxy with duplicate attestations.
	flights map[string]*attestFlight
}

// attestFlight is one in-progress lazy attestation; waiters block on
// done and read snd/err after it closes.
type attestFlight struct {
	done chan struct{}
	snd  *enclave.Sender
	err  error
}

// New builds a participant session. The trust material may arrive later
// via Attest; sends fail until a key is attested or pinned.
func New(cfg Config) (*Participant, error) {
	if len(cfg.Proxies) == 0 {
		return nil, fmt.Errorf("client: Config.Proxies must name at least one proxy endpoint")
	}
	tr := cfg.Transport
	if tr == nil {
		tr = transport.NewHTTP(nil)
	}
	return &Participant{
		tr:          tr,
		proxies:     append([]string(nil), cfg.Proxies...),
		server:      cfg.Server,
		clientID:    cfg.ClientID,
		authority:   cfg.Authority,
		measurement: cfg.Measurement,
		senders:     make(map[string]*enclave.Sender),
		flights:     make(map[string]*attestFlight),
	}, nil
}

// SetClientID sets the pseudonymous id sent with each update.
func (c *Participant) SetClientID(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clientID = id
}

// SetEnclaveKey pins the primary proxy's enclave key directly (for
// deployments where the key is distributed out of band instead of via
// attestation).
func (c *Participant) SetEnclaveKey(pub *ecdh.PublicKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.senders[c.proxies[0]] = enclave.NewSender(enclave.PinnedHop(pub, c.measurement))
}

// Proxies returns the session's current failover list (a copy).
func (c *Participant) Proxies() []string {
	return c.proxySnapshot()
}

// proxySnapshot copies the failover list under the lock; walks iterate
// the snapshot so a concurrent Discover re-rank cannot skip or repeat
// an endpoint mid-walk.
func (c *Participant) proxySnapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.proxies...)
}

// primary returns the current head of the failover list.
func (c *Participant) primary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.proxies[0]
}

// maxDiscoverProbes bounds one Discover sweep: a malicious or buggy
// peer advertising an endless peer list must not turn a bootstrap into
// an unbounded crawl. 64 covers any plausible front tier many times
// over.
const maxDiscoverProbes = 64

// Discover refreshes the failover list from the tier itself: it sweeps
// /v1/discover starting from the current list (so a single seed
// endpoint bootstraps the full front set from the peers it advertises,
// transitively), scores every endpoint by the health its advertisement
// reports, and REPLACES the failover list with the endpoints ranked
// healthiest-first. The ranking is what makes failover self-healing: a
// front that is shedding load advertises a health score strictly below
// any non-shedding front's, so the next walk tries healthy fronts
// first without any operator re-configuration.
//
// Scoring: a reachable endpoint ranks by its advertised health; an
// endpoint without a discovery surface (404 / ErrNotSupported — a
// pre-discovery proxy) scores neutral 0 so static lists keep working
// unchanged; an unreachable endpoint ranks below everything but stays
// on the list — it may only be down for a moment, and dropping it
// would shrink the failover set permanently. The sort is stable over
// encounter order (configured list first), so ties preserve the
// operator's ordering. If NO endpoint answered at all, the list is
// left untouched and an error is returned: an empty sweep says the
// network is broken, not that every front vanished.
//
// Newly learned endpoints carry no trust: sends to them still gate on
// the same attestation handshake as configured ones (lazy, on first
// use).
func (c *Participant) Discover(ctx context.Context) error {
	frontier := c.proxySnapshot()
	seen := make(map[string]bool, len(frontier))
	for _, ep := range frontier {
		seen[ep] = true
	}
	order := make([]string, 0, len(frontier))
	score := make(map[string]float64, len(frontier))
	var errs []error
	reached := 0
	for probes := 0; len(frontier) > 0 && probes < maxDiscoverProbes; probes++ {
		ep := frontier[0]
		frontier = frontier[1:]
		order = append(order, ep)
		dr, err := c.tr.Discover(ctx, ep)
		switch se := transport.AsStatus(err); {
		case err == nil:
			reached++
			score[ep] = dr.Health
			for _, peer := range dr.Peers {
				if peer != "" && !seen[peer] {
					seen[peer] = true
					frontier = append(frontier, peer)
				}
			}
		case errors.Is(err, transport.ErrNotSupported) ||
			(se != nil && se.Code == http.StatusNotFound):
			// A reachable peer without a discovery surface: neutral, not
			// penalised — a static list of pre-discovery proxies must rank
			// exactly as configured.
			reached++
			score[ep] = 0
		default:
			score[ep] = -1
			errs = append(errs, fmt.Errorf("%s: %w", ep, err))
		}
		if ctx.Err() != nil {
			break
		}
	}
	// Endpoints advertised but never probed (probe cap, ctx expiry):
	// keep them, neutral — known to exist, health unknown.
	for _, ep := range frontier {
		order = append(order, ep)
		score[ep] = 0
	}
	if reached == 0 {
		return fmt.Errorf("client: discovery reached no proxy, keeping the current failover list: %w", errors.Join(errs...))
	}
	sort.SliceStable(order, func(i, j int) bool {
		return score[order[i]] > score[order[j]]
	})
	c.mu.Lock()
	c.proxies = order
	c.mu.Unlock()
	return nil
}

// StartDiscovery runs Discover immediately and then every interval
// until ctx is cancelled, in a background goroutine. Sweep failures
// are dropped (the list stays as it was; the next tick retries) — the
// refresh loop is an optimisation of the failover order, never a
// correctness dependency.
func (c *Participant) StartDiscovery(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = 30 * time.Second
	}
	go func() {
		_ = c.Discover(ctx)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				_ = c.Discover(ctx)
			}
		}
	}()
}

// Attest pins the trust material and runs the attestation handshake
// against every proxy of the failover list CONCURRENTLY, pinning the
// enclave key of each proxy it reaches — a down fallback costs one
// transport timeout in parallel with the others, not a serial stall
// per endpoint. It succeeds when at least one proxy attested (the rest
// attest lazily when a send fails over to them) and fails only when NO
// proxy could be attested.
func (c *Participant) Attest(ctx context.Context, authority *ecdsa.PublicKey, measurement [32]byte) error {
	c.mu.Lock()
	c.authority = authority
	c.measurement = measurement
	c.mu.Unlock()
	proxies := c.proxySnapshot()
	errs := make([]error, len(proxies))
	var wg sync.WaitGroup
	for i, ep := range proxies {
		wg.Add(1)
		go func(i int, ep string) {
			defer wg.Done()
			if _, err := c.attestOne(ctx, ep); err != nil {
				errs[i] = fmt.Errorf("%s: %w", ep, err)
			}
		}(i, ep)
	}
	wg.Wait()
	for _, err := range errs {
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("client: no proxy attested: %w", errors.Join(errs...))
}

// attested returns ep's Sender, running the lazy failover attestation
// at most ONCE per endpoint no matter how many goroutines ask
// concurrently. The first caller owns the handshake; the rest wait for
// its outcome (or their own ctx) — without this, every sender failing
// over in the same instant ran a full handshake against the fallback
// proxy, and the loser of each race overwrote the winner's pinned key
// mid-send. Failures are not cached: the flight is cleared before its
// waiters wake, so the next send retries afresh.
func (c *Participant) attested(ctx context.Context, ep string) (*enclave.Sender, error) {
	c.mu.Lock()
	if snd := c.senders[ep]; snd != nil {
		c.mu.Unlock()
		return snd, nil
	}
	if f := c.flights[ep]; f != nil {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.snd, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &attestFlight{done: make(chan struct{})}
	c.flights[ep] = f
	c.mu.Unlock()
	f.snd, f.err = c.attestOne(ctx, ep)
	c.mu.Lock()
	delete(c.flights, ep)
	c.mu.Unlock()
	close(f.done)
	return f.snd, f.err
}

// attestOne runs the handshake every proxy leg runs (fetch the report,
// enclave.TrustHop) against one endpoint and pins the key it yields.
func (c *Participant) attestOne(ctx context.Context, ep string) (*enclave.Sender, error) {
	c.mu.Lock()
	authority := c.authority
	measurement := c.measurement
	c.mu.Unlock()
	if authority == nil {
		return nil, fmt.Errorf("client: no trust material; call Attest first")
	}
	rep, nonce, err := transport.FetchReport(ctx, c.tr, ep)
	if err != nil {
		return nil, err
	}
	key, err := enclave.TrustHop(rep, authority, measurement, nonce)
	if err != nil {
		return nil, err
	}
	snd := enclave.NewSender(key)
	c.mu.Lock()
	c.senders[ep] = snd
	c.mu.Unlock()
	return snd, nil
}

// sendLease is the pair of buffers one SendUpdate call works in: the
// encoded plaintext, and the ciphertext every attempt of the call seals
// it into. Neither outlives the call — a Transport reads a body only
// until it returns, and each attempt starts after the previous one's
// transport call returned — so the pair recycles when SendUpdate does.
type sendLease struct {
	plain, ct []byte
}

// encodeBufs recycles SendUpdate's leases (*sendLease) across the
// process's participants.
var encodeBufs sync.Pool

// release ends the lease. Under the race detector the ciphertext is
// overwritten first, so a transport or a receiver that kept a slice of a
// body past its return reads garbage at once instead of a later update.
func (l *sendLease) release() {
	if raceEnabled {
		for i := range l.ct {
			l.ct[i] = 0xA5
		}
	}
	encodeBufs.Put(l)
}

// Busy-tier backoff: when a whole failover walk comes back with every
// proxy rejecting at the ingress door and at least one of them answering
// transport.ErrBusy (a full bounded queue — transient by construction),
// SendUpdate retries the walk after a jittered exponential backoff
// instead of returning. Without it, callers that loop on the transient
// error hot-spin against the saturated tier: the participant-scale load
// run measured 10.4 MILLION busy rejections for 40k accepted sends,
// every one of them a full encrypt + walk burning CPU on both sides of
// the queue it was trying to drain.
const (
	busyRetryBase = 2 * time.Millisecond
	busyRetryCap  = 250 * time.Millisecond
)

// SendUpdate encrypts the parameter update for the attested enclave and
// sends it into the mixing tier, failing over down the proxy list ONLY
// when the failed attempt provably did not ingest the update: a proxy
// that was never reached (dial failure, unregistered loopback name),
// answered an error status (any non-2xx response means the handler
// rejected before counting anything), or cannot be attested is
// skipped. Two failures stop the walk instead: a MATERIAL-shaped 4xx
// rejection (bad request, too large, unprocessable, protocol version)
// is returned immediately — every proxy of the tier would reject the
// same bytes, while endpoint-specific 4xx like auth or routing
// failures do fail over — and an AMBIGUOUS transport failure — a
// timeout or connection loss after the request went out — is returned
// without trying further proxies, because the slow proxy may have
// ingested the update and re-sending it elsewhere would double-count
// this participant in the round. A walk on which some proxy answered
// transport.ErrBusy (and none ingested) retries with jittered
// exponential backoff, bounded by ctx — see busyRetryBase/busyRetryCap.
// Acceptance (202) means the update entered the tier — delivery to the
// aggregation server is asynchronous (the proxy's sealed outbox retries
// across downstream outages), so observe round progress with
// WaitForRound rather than inferring it from the send.
func (c *Participant) SendUpdate(ctx context.Context, ps nn.ParamSet) error {
	l, _ := encodeBufs.Get().(*sendLease)
	if l == nil {
		l = new(sendLease)
	}
	defer l.release()
	if need := nn.EncodedSize(ps); cap(l.plain) < need {
		l.plain = make([]byte, 0, need)
	}
	var err error
	if l.plain, err = nn.AppendParamSet(l.plain[:0], ps); err != nil {
		return err
	}
	c.mu.Lock()
	clientID := c.clientID
	haveAny := c.authority != nil || len(c.senders) > 0
	c.mu.Unlock()
	if !haveAny {
		return fmt.Errorf("client: no enclave key pinned; call Attest first")
	}
	backoff := busyRetryBase
	for {
		err := c.sendWalk(ctx, l, clientID)
		if err == nil {
			return nil
		}
		busy := errors.Is(err, transport.ErrBusy)
		limited, hint := rateLimited(err)
		if !busy && !limited {
			return err
		}
		// Both failure shapes reach here only through the
		// every-proxy-failed path, where each attempt provably ingested
		// nothing, so a retry cannot double-count. Equal jitter
		// desynchronises the cohort: a round's worth of participants
		// hitting a full queue (or tripping one rate limiter) together
		// must not come back together.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		if limited && hint > d {
			// Honour the admission gate's Retry-After: coming back
			// sooner than the peer asked just burns another 429. Jitter
			// rides on top so the shed cohort still spreads out.
			d = hint + time.Duration(rand.Int63n(int64(backoff/2)+1))
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("client: gave up retrying a busy tier: %w", err)
		case <-time.After(d):
		}
		if backoff = backoff * 2; backoff > busyRetryCap {
			backoff = busyRetryCap
		}
	}
}

// rateLimited inspects a walk's joined error for 429 admission
// rejections, returning whether any proxy answered one and the largest
// Retry-After hint among them. It traverses the whole join tree
// (errors.Join exposes Unwrap() []error) instead of errors.As, which
// would stop at the first StatusError of any code.
func rateLimited(err error) (bool, time.Duration) {
	var limited bool
	var hint time.Duration
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if se, ok := e.(*transport.StatusError); ok {
			if se.Code == http.StatusTooManyRequests {
				limited = true
				if se.RetryAfter > hint {
					hint = se.RetryAfter
				}
			}
			return
		}
		switch u := e.(type) {
		case interface{ Unwrap() []error }:
			for _, sub := range u.Unwrap() {
				walk(sub)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	return limited, hint
}

// sendWalk runs one failover walk down the proxy list with the
// SendUpdate semantics above, sealing l.plain into l.ct for each attempt.
func (c *Participant) sendWalk(ctx context.Context, l *sendLease, clientID string) error {
	var errs []error
	var err error
	for _, ep := range c.proxySnapshot() {
		c.mu.Lock()
		snd := c.senders[ep]
		c.mu.Unlock()
		if snd == nil {
			// Lazy failover attestation: this proxy was down (or not yet
			// attested) when the session started. Single-flighted — a
			// failover storm attests the fallback once, not once per
			// in-flight send.
			if snd, err = c.attested(ctx, ep); err != nil {
				errs = append(errs, fmt.Errorf("%s: attest: %w", ep, err))
				continue
			}
		}
		ct, sess, err := snd.WrapTo(l.ct, l.plain)
		if err != nil {
			return err
		}
		l.ct = ct
		_, err = c.tr.SendUpdate(ctx, ep, transport.UpdateRequest{Body: ct, ClientID: clientID})
		if err != nil && transport.SessionRejected(err) {
			// The proxy's enclave no longer holds our session (cache
			// eviction, a restart that kept its sealed identity, or our
			// data frame raced ahead of the session's establish frame)
			// and provably ingested nothing. Re-establish with a full
			// wrap and resend to the SAME endpoint once — transparent
			// to the failover walk. The rewrap deliberately bypasses
			// the current session: the resent ciphertext must be a
			// self-contained establish frame, which the enclave can
			// never reject as unknown (see enclave.Sender.WrapFresh), so
			// one retry suffices. A rejection of the fresh establish
			// itself falls through to the ordinary classification below.
			snd.Drop(sess)
			if ct, _, err = snd.WrapFreshTo(l.ct, l.plain); err != nil {
				return err
			}
			l.ct = ct
			_, err = c.tr.SendUpdate(ctx, ep, transport.UpdateRequest{Body: ct, ClientID: clientID})
		}
		if err == nil {
			return nil
		}
		if se := transport.AsStatus(err); se != nil {
			switch se.Code {
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
				http.StatusUnprocessableEntity, http.StatusUpgradeRequired:
				// MATERIAL-shaped rejection: every proxy of the tier
				// would reject the same bytes, so failing over cannot
				// help — and a 4xx proves the handler refused before
				// counting anything. Endpoint-specific 4xx (401/403
				// auth, 404 routing) fall through to failover instead:
				// they condemn this endpoint, not the update.
				return fmt.Errorf("client: update rejected: %w", err)
			}
			if se.Code == http.StatusBadGateway || se.Code == http.StatusGatewayTimeout {
				// These conventionally come from an INTERMEDIARY (reverse
				// proxy, ingress) whose backend connection broke or timed
				// out — the mixing proxy behind it may have ingested the
				// update before the gateway gave up, so they are as
				// ambiguous as a client-side timeout.
				return fmt.Errorf("client: gateway failure at %s after the request may have been delivered (not failing over — a duplicate would skew the round): %w", ep, err)
			}
			// Everything else (401/403/404/408/429, 500, 503, …): the
			// endpoint refused or failed before ingesting (our handlers
			// only answer 2xx after mixing), and the failure is specific
			// to this endpoint; safe elsewhere.
		} else if !transport.Unreached(err) {
			// Ambiguous transport failure: the request may have been
			// delivered and ingested before the connection died.
			// Re-sending to another proxy of the SAME tier could count
			// this participant twice in the round, so surface the
			// ambiguity instead of guessing.
			return fmt.Errorf("client: send to %s failed after the request may have been delivered (not failing over — a duplicate would skew the round): %w", ep, err)
		}
		errs = append(errs, fmt.Errorf("%s: %w", ep, err))
		if ctx.Err() != nil {
			break
		}
	}
	return fmt.Errorf("client: send update failed on every proxy: %w", errors.Join(errs...))
}

// FetchModel retrieves the current global model and round number from
// the aggregation server.
func (c *Participant) FetchModel(ctx context.Context) (int, nn.ParamSet, error) {
	return c.fetchModel(ctx, 0)
}

// fetchModel downloads the server's model and decodes it unless its
// round is below minRound, in which case it returns the round with an
// empty ParamSet: the download is the protocol's poll, the decode is
// only worth its cost for a model the caller will use.
func (c *Participant) fetchModel(ctx context.Context, minRound int) (int, nn.ParamSet, error) {
	if c.server == "" {
		return 0, nn.ParamSet{}, fmt.Errorf("client: no aggregation server endpoint configured")
	}
	m, err := c.tr.Model(ctx, c.server)
	if err != nil {
		return 0, nn.ParamSet{}, fmt.Errorf("client: fetch model: %w", err)
	}
	if m.Round < minRound {
		return m.Round, nn.ParamSet{}, nil
	}
	ps, err := nn.DecodeParamSet(m.Body)
	if err != nil {
		return 0, nn.ParamSet{}, err
	}
	return m.Round, ps, nil
}

// WaitForRound polls the server until its round counter reaches
// minRound (or ctx expires) and returns the model of that round.
func (c *Participant) WaitForRound(ctx context.Context, minRound int, poll time.Duration) (int, nn.ParamSet, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		round, ps, err := c.fetchModel(ctx, minRound)
		if err == nil && round >= minRound {
			return round, ps, nil
		}
		select {
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
			return 0, nn.ParamSet{}, fmt.Errorf("client: waiting for round %d: %w", minRound, err)
		case <-time.After(poll):
		}
	}
}

// ProxyStatus fetches the primary proxy's tier status.
func (c *Participant) ProxyStatus(ctx context.Context) (wire.ShardedProxyStatus, error) {
	return proxyStatus(ctx, c.tr, c.primary())
}

// proxyStatus fetches a proxy status report, shared by the session and
// admin sub-client. A non-proxy peer is a local validation failure (a
// plain error), not a peer rejection.
func proxyStatus(ctx context.Context, tr transport.Transport, ep string) (wire.ShardedProxyStatus, error) {
	st, err := tr.Status(ctx, ep)
	if err != nil {
		return wire.ShardedProxyStatus{}, err
	}
	if st.Proxy == nil {
		return wire.ShardedProxyStatus{}, fmt.Errorf("client: endpoint %s is not a proxy", ep)
	}
	return *st.Proxy, nil
}

// ServerStatus fetches the aggregation server's round progress.
func (c *Participant) ServerStatus(ctx context.Context) (wire.ServerStatus, error) {
	st, err := c.tr.Status(ctx, c.server)
	if err != nil {
		return wire.ServerStatus{}, err
	}
	if st.Server == nil {
		return wire.ServerStatus{}, fmt.Errorf("client: endpoint %s is not an aggregation server", c.server)
	}
	return *st.Server, nil
}

// Admin returns the admin sub-client for the primary proxy's topology
// plane, authenticated with the tier's inter-proxy secret.
func (c *Participant) Admin(secret string) *Admin {
	return NewAdmin(c.tr, c.primary(), secret)
}
