// Package proxy implements the networked deployment of MixNN (Figure 3):
// an HTTP aggregation server, the MixNN proxy running inside a (simulated)
// SGX enclave, and the participant-side client that encrypts updates for
// the attested enclave.
package proxy

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"mixnn/internal/core"
	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/transport"
	"mixnn/internal/wire"
)

// AggServer is the HTTP aggregation server: it collects a fixed number of
// updates per round — one at a time on /v1/update or a whole drained
// round on /v1/batch — averages them, and serves the global model.
// An optional fl.Observer sees each completed round's updates — this is
// how the adversarial-server experiments instrument the networked path.
//
// The open round lives in one slab chunk of expect rows (the mixers'
// representation, reaching the aggregator): an update's wire bytes are
// copied once into the next row, the round's observer and Aggregate read
// the chunk's pre-built ParamSet views, and the next round overwrites the
// rows. Request bodies are only read, never kept.
type AggServer struct {
	expect int
	// layout is the global model's slab layout: the one structure every
	// update must have, checked by header comparison (nn.SlabLayout).
	layout *nn.SlabLayout

	mu     sync.Mutex
	server *fl.Server
	round  int
	// chunk holds the open round's updates in rows [0, filled). The
	// server fills it one round at a time, so it keeps the one chunk for
	// life; a round's rows are dead the moment the round closes.
	chunk    *core.SlabChunk
	filled   int
	observer fl.Observer
	// released, when set (tests), sees the chunk at each round close —
	// the moment after which nothing may read the round's rows.
	released func(*core.SlabChunk)
	// seen dedups batch idempotency ids so a proxy redelivering after a
	// lost acknowledgement cannot double-count a round.
	seen batchDedup
	// disseminated is the model as served for the current round (what
	// clients train on); recorded so observers get the exact base model.
	disseminated nn.ParamSet
	// encModel caches the encoded form of disseminated for the model
	// endpoint (participants poll it every few hundred ms; re-encoding
	// megabytes per poll would be pure garbage). modelGen bumps on every
	// disseminated change, invalidating the cache.
	encModel []byte
	modelGen uint64
}

// NewAggServer builds the server with its initial global model and the
// number of updates that completes a round.
func NewAggServer(initial nn.ParamSet, expectPerRound int) (*AggServer, error) {
	if expectPerRound <= 0 {
		return nil, fmt.Errorf("proxy: expectPerRound must be positive, got %d", expectPerRound)
	}
	layout, err := nn.NewSlabLayout(initial)
	if err != nil {
		return nil, fmt.Errorf("proxy: global model: %w", err)
	}
	return &AggServer{
		expect:       expectPerRound,
		layout:       layout,
		chunk:        core.NewSlabChunk(layout, expectPerRound),
		server:       fl.NewServer(initial),
		disseminated: initial.Clone(),
	}, nil
}

// SetObserver installs an observer of completed rounds (e.g. ∇Sim). The
// Updates it is handed are views of the round's slab rows, valid only
// until ObserveRound returns (see fl.RoundRecord).
func (s *AggServer) SetObserver(obs fl.Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = obs
}

// SetDisseminated overrides the model served to clients for the current
// round (the active-attack hook).
func (s *AggServer) SetDisseminated(ps nn.ParamSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disseminated = ps.Clone()
	s.encModel = nil
	s.modelGen++
}

// Round returns the current round number (completed rounds).
func (s *AggServer) Round() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.round
}

// Global returns the current global model.
func (s *AggServer) Global() nn.ParamSet { return s.server.Global() }

// Handler returns the HTTP API: the typed protocol served over the
// wire-compatible HTTP adapter. Endpoints the aggregation server does
// not provide (cascade ingress, attestation, topology admin) answer 404
// exactly as the unregistered routes did.
func (s *AggServer) Handler() http.Handler {
	return transport.NewHandler(s)
}

// checkUpdate validates one encoded update against the global model's
// structure without copying it. A body that is not an update at all is a
// 400; a well-formed update of another model is structural — 422, which
// proxies classify permanent and quarantine instead of wedging their
// queue on it. Both are checked BEFORE anything is buffered: a poison
// update must not enter the open round, where it would sink other
// senders' material.
func (s *AggServer) checkUpdate(raw []byte) *transport.StatusError {
	if s.layout.CheckWire(raw) == nil {
		return nil
	}
	if _, err := nn.DecodeParamSetNoCopy(raw); err != nil {
		return transport.Errorf(http.StatusBadRequest, "decode update: %v", err)
	}
	return transport.Errorf(http.StatusUnprocessableEntity, "update incompatible with the global model")
}

// absorb copies validated updates into the open round's rows and closes
// as many rounds as they complete (a batch may span a round boundary —
// e.g. a restored proxy delivering a merged backlog). Round closure is
// unchanged: observe, aggregate, advance. It reports how many rounds
// closed so a batch handler can tell "rejected untouched" from
// "partially applied". The items are only read.
func (s *AggServer) absorb(items [][]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	closed := 0
	for i, raw := range items {
		if err := s.layout.DecodeIntoSlab(s.chunk.Row(s.filled), raw); err != nil {
			return closed, fmt.Errorf("update %d: %w", i, err) // unreachable after checkUpdate
		}
		if s.filled++; s.filled < s.expect {
			continue
		}
		batch := s.chunk.Views()[:s.expect:s.expect]
		if s.observer != nil {
			s.observer.ObserveRound(fl.RoundRecord{
				Round:        s.round,
				Disseminated: s.disseminated,
				Updates:      batch,
			})
		}
		err := s.server.Aggregate(batch)
		// Aggregate's result is a fresh allocation and the observer's
		// lease ended with its call, so nothing references the rows now:
		// the next round overwrites them.
		if s.released != nil {
			s.released(s.chunk)
		}
		s.filled = 0
		if err != nil {
			// The failing round's material is dropped, and with it the
			// rest of this batch, which the sender is told failed; rounds
			// the batch closed before stay counted (see HandleBatch).
			return closed, fmt.Errorf("aggregate: %w", err)
		}
		s.round++
		s.disseminated = s.server.Global()
		s.encModel = nil
		s.modelGen++
		closed++
	}
	return closed, nil
}

// HandleUpdate ingests one plaintext mixed update. It implements
// transport.Server.
func (s *AggServer) HandleUpdate(ctx context.Context, req transport.UpdateRequest) (transport.Receipt, error) {
	if err := transport.CheckBody(req.Body); err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	if se := s.checkUpdate(req.Body); se != nil {
		return transport.Receipt{Shard: -1}, se
	}
	if _, err := s.absorb([][]byte{req.Body}); err != nil {
		return transport.Receipt{Shard: -1}, transport.Errorf(http.StatusUnprocessableEntity, "%s", err.Error())
	}
	return transport.Receipt{Shard: -1}, nil
}

// HandleBatch ingests a whole drained round in one request. The body is
// a plaintext wire.BatchEnvelope; the idempotency id makes redelivery
// safe: a batch the server already applied is acknowledged without
// reprocessing, so proxy retry after a lost acknowledgement cannot skew
// the round mean with duplicates. It implements transport.Server.
func (s *AggServer) HandleBatch(ctx context.Context, req transport.BatchRequest) (transport.Receipt, error) {
	if err := transport.CheckBody(req.Body); err != nil {
		return transport.Receipt{Shard: -1}, err
	}
	env, err := wire.DecodeBatchEnvelope(req.Body)
	if err != nil {
		return transport.Receipt{Shard: -1}, transport.Errorf(http.StatusBadRequest, "%s", err.Error())
	}
	// Validate every update before absorbing any, so a malformed item
	// cannot leave a round half-counted. The body is the sender's outbox
	// entry when the leg is a Loopback (handed over without a copy, and
	// sent again on a retry), so it is only ever read: absorb copies each
	// item into a slab row, the one write of this leg.
	for i, raw := range env.Updates {
		if se := s.checkUpdate(raw); se != nil {
			se.Msg = fmt.Sprintf("batch update %d: %s", i, se.Msg)
			return transport.Receipt{Shard: -1}, se
		}
	}
	duplicate, err := s.seen.Claim(req)
	if duplicate || err != nil {
		return transport.Receipt{Shard: -1, Duplicate: duplicate}, err
	}
	closed, err := s.absorb(env.Updates)
	if err != nil {
		// Structural failure — permanent from the sender's point of view
		// (see checkUpdate); a 5xx here would make the proxy retry the
		// same poison batch forever. If the batch spanned round
		// boundaries and some rounds DID close before the failure, keep
		// its id recorded as applied: the entry will be quarantined
		// upstream, and should the operator ever re-inject the .bad
		// file, the dedup must stop the applied rounds from
		// double-counting.
		s.seen.Finish(req, closed > 0)
		return transport.Receipt{Shard: -1}, transport.Errorf(http.StatusUnprocessableEntity, "%s", err.Error())
	}
	s.seen.Finish(req, true)
	return transport.Receipt{Shard: -1}, nil
}

// HandleHop implements transport.Server: the aggregation server is not
// a cascade hop.
func (s *AggServer) HandleHop(ctx context.Context, req transport.HopRequest) (transport.Receipt, error) {
	return transport.Receipt{Shard: -1}, transport.ErrNotSupported
}

// HandleAttest implements transport.Server: the server runs no enclave.
func (s *AggServer) HandleAttest(ctx context.Context, nonce []byte) (wire.AttestationResponse, error) {
	return wire.AttestationResponse{}, transport.ErrNotSupported
}

// HandleTopology implements transport.Server: the server has no
// routing plane.
func (s *AggServer) HandleTopology(ctx context.Context, req transport.TopologyRequest) (wire.TopologyStatus, error) {
	return wire.TopologyStatus{}, transport.ErrNotSupported
}

// HandleModel serves the current global model. It implements
// transport.Server. The encoded body is cached per model generation —
// participants poll this endpoint continuously, and the cache turns
// each poll into a buffer handoff instead of a clone + encode. The
// returned Body is shared between concurrent polls and MUST NOT be
// mutated by callers (the HTTP adapter only writes it; the SDK's
// FetchModel decodes it with the copying decoder).
func (s *AggServer) HandleModel(ctx context.Context) (transport.ModelResponse, error) {
	s.mu.Lock()
	if s.encModel != nil {
		resp := transport.ModelResponse{Round: s.round, Body: s.encModel}
		s.mu.Unlock()
		return resp, nil
	}
	round, gen := s.round, s.modelGen
	model := s.disseminated.Clone()
	s.mu.Unlock()
	// Encode outside the lock: a multi-megabyte encode must not block
	// ingress. The generation check below keeps a concurrent round
	// close (or an active-attack SetDisseminated) from caching a stale
	// body.
	body, err := nn.EncodeParamSet(model)
	if err != nil {
		return transport.ModelResponse{}, err
	}
	s.mu.Lock()
	if s.modelGen == gen && s.encModel == nil {
		s.encModel = body
	}
	s.mu.Unlock()
	return transport.ModelResponse{Round: round, Body: body}, nil
}

// HandleStatus implements transport.Server.
func (s *AggServer) HandleStatus(ctx context.Context) (transport.StatusResponse, error) {
	s.mu.Lock()
	st := wire.ServerStatus{Round: s.round, UpdatesInRound: s.filled, ExpectPerRound: s.expect}
	s.mu.Unlock()
	return transport.StatusResponse{Server: &st}, nil
}

// HandleDiscover implements transport.Server: the aggregation server is
// not a failover target for participant ingress, so it advertises
// nothing.
func (s *AggServer) HandleDiscover(ctx context.Context) (wire.DiscoverResponse, error) {
	return wire.DiscoverResponse{}, transport.ErrNotSupported
}
