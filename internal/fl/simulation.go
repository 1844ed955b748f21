package fl

import (
	"fmt"
	"math/rand"
	"sync"

	"mixnn/internal/nn"
)

// RoundRecord is what an adversarial aggregation server observes in one
// round: the model it disseminated and the per-slot updates it received.
// With classic FL, slot i genuinely is participant i's update; after MixNN,
// each slot is a per-layer mixture of many participants.
type RoundRecord struct {
	Round        int
	Disseminated nn.ParamSet
	// Updates is LENT to the observer for the duration of ObserveRound
	// only. The networked aggregation server (proxy.AggServer) hands out
	// views of the round's slab rows, which recycle the moment the round
	// closes; an observer that wants anything past its return keeps deep
	// copies (ParamSet.Clone), never the slice or its tensors. The
	// in-process Simulation's updates happen to outlive the call, but
	// observers must not rely on it.
	Updates []nn.ParamSet
	// ClientIDs[i] is the participant the server believes produced
	// Updates[i] (the sender of slot i). With client sampling only the
	// selected participants appear; after MixNN the per-layer content of
	// a slot does not actually belong to its nominal sender.
	ClientIDs []int
}

// Observer receives each round's server-side view. ∇Sim implements this.
type Observer interface {
	ObserveRound(rec RoundRecord)
}

// Disseminator lets a malicious server replace the honest global model
// before dissemination (the active form of ∇Sim). The honest behaviour is
// the identity.
type Disseminator func(round int, global nn.ParamSet) nn.ParamSet

// RoundMetrics aggregates the evaluation of one round.
type RoundMetrics struct {
	Round        int
	MeanAccuracy float64   // mean per-participant test accuracy of the new global model
	PerClient    []float64 // per-participant accuracies (Figure 6's CDF input)
}

// Simulation wires clients, an update pipeline and the server into the
// paper's iterative operating flow (Figure 2, plus the MixNN proxy of
// Figure 3 when Transform is a mixer).
type Simulation struct {
	Server    *Server
	Clients   []*Client
	Transform UpdateTransform
	// Observer, if set, sees every round from the server's perspective.
	Observer Observer
	// Disseminate, if set, replaces the model sent to participants
	// (active attack). Defaults to honest dissemination.
	Disseminate Disseminator
	// Rng drives transform randomness (mixing permutations, noise) and
	// per-round client sampling.
	Rng *rand.Rand
	// Parallel caps concurrent local trainings; 0 = GOMAXPROCS.
	Parallel int
	// ClientsPerRound samples this many clients per round (0 or >= len
	// means all participate), mirroring fl.Config.ClientsPerRound.
	ClientsPerRound int
}

// NewSimulation builds a simulation with honest dissemination.
func NewSimulation(server *Server, clients []*Client, tr UpdateTransform, seed int64) *Simulation {
	return &Simulation{
		Server:    server,
		Clients:   clients,
		Transform: tr,
		Rng:       rand.New(rand.NewSource(seed)),
	}
}

// RunRound executes one federated round and returns its metrics.
func (s *Simulation) RunRound(round int) (RoundMetrics, error) {
	global := s.Server.Global()
	toSend := global
	if s.Disseminate != nil {
		toSend = s.Disseminate(round, global)
	}

	selected := s.sampleClients()
	updates, err := s.trainAll(toSend, selected)
	if err != nil {
		return RoundMetrics{}, err
	}

	transformed, err := s.Transform.Apply(updates, s.Rng)
	if err != nil {
		return RoundMetrics{}, fmt.Errorf("fl: transform %q: %w", s.Transform.Name(), err)
	}
	if len(transformed) != len(updates) {
		return RoundMetrics{}, fmt.Errorf("fl: transform %q returned %d updates for %d clients",
			s.Transform.Name(), len(transformed), len(updates))
	}

	if s.Observer != nil {
		ids := make([]int, len(selected))
		for i, ci := range selected {
			ids[i] = s.Clients[ci].ID
		}
		s.Observer.ObserveRound(RoundRecord{Round: round, Disseminated: toSend, Updates: transformed, ClientIDs: ids})
	}

	if err := s.Server.Aggregate(transformed); err != nil {
		return RoundMetrics{}, err
	}

	return s.evaluate(round)
}

// sampleClients returns the client indices participating this round.
func (s *Simulation) sampleClients() []int {
	n := len(s.Clients)
	k := s.ClientsPerRound
	if k <= 0 || k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return s.Rng.Perm(n)[:k]
}

// Run executes the configured number of rounds and returns per-round
// metrics.
func (s *Simulation) Run(rounds int) ([]RoundMetrics, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("fl: non-positive round count %d", rounds)
	}
	out := make([]RoundMetrics, 0, rounds)
	for r := 0; r < rounds; r++ {
		m, err := s.RunRound(r)
		if err != nil {
			return out, fmt.Errorf("fl: round %d: %w", r, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// trainAll runs the selected clients' local training concurrently and
// returns the updates in selection order.
func (s *Simulation) trainAll(global nn.ParamSet, selected []int) ([]nn.ParamSet, error) {
	par := s.Parallel
	if par <= 0 {
		par = parallelism()
	}
	updates := make([]nn.ParamSet, len(selected))
	errs := make([]error, len(selected))
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, ci := range selected {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			updates[i], errs[i] = c.LocalTrain(global)
		}(i, s.Clients[ci])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return updates, nil
}

// evaluate computes the new global model's per-participant test accuracy.
func (s *Simulation) evaluate(round int) (RoundMetrics, error) {
	global := s.Server.Global()
	per := make([]float64, len(s.Clients))
	sum := 0.0
	for i, c := range s.Clients {
		acc, err := c.TestAccuracy(global)
		if err != nil {
			return RoundMetrics{}, err
		}
		per[i] = acc
		sum += acc
	}
	return RoundMetrics{
		Round:        round,
		MeanAccuracy: sum / float64(len(s.Clients)),
		PerClient:    per,
	}, nil
}
