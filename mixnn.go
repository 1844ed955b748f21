// Package mixnn is the public facade of the MixNN reproduction — a
// privacy-preserving proxy system for federated learning that protects
// participants against attribute-inference attacks by mixing neural-network
// layers between participants before aggregation (Boutet et al.,
// MIDDLEWARE 2022).
//
// The facade re-exports the user-facing types of the internal packages so
// applications interact with a single import:
//
//	import "mixnn"
//
//	spec, _ := mixnn.DatasetByKey("cifar10", mixnn.ScaleQuick, 1)
//	sim, attrs, _ := mixnn.NewFederation(spec, mixnn.MixNNArm(), 1)
//	metrics, _ := sim.Run(spec.FL.Rounds)
//
// Networked deployments are driven through the participant SDK: a
// ParticipantClient holds an ordered failover list of mixing proxies,
// attests their enclaves, and sends each round's update with typed
// retry semantics; its Admin sub-client drives routing-plane
// directives. Every inter-tier leg rides a Transport — NewHTTPTransport
// for the wire deployment, NewLoopbackTransport to run a whole
// multi-tier deployment in one process:
//
//	part, _ := mixnn.NewParticipantClient(mixnn.ParticipantConfig{
//	    Proxies: []string{"http://proxy-a:8441", "http://proxy-b:8441"},
//	    Server:  "http://agg:8440",
//	})
//	_ = part.Attest(ctx, authority, measurement)
//	_ = part.SendUpdate(ctx, update) // fails over down the proxy list
//
// Layering (see DESIGN.md):
//
//	tensor → nn → {data, fl, core, privacy, wire} → transport →
//	{attack, proxy, client} → experiment
//
// The three evaluation arms of the paper are exposed as UpdateTransforms:
// classic FL (Identity), the MixNN mixer (layer mixing; batch or
// streaming), and the noisy-gradient local-DP baseline.
package mixnn

import (
	"net/http"

	"mixnn/internal/attack"
	"mixnn/internal/client"
	"mixnn/internal/core"
	"mixnn/internal/data"
	"mixnn/internal/enclave"
	"mixnn/internal/experiment"
	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/privacy"
	"mixnn/internal/proxy"
	"mixnn/internal/transport"
)

// Model/parameter types.
type (
	// ParamSet is a model's parameters grouped by layer — the unit
	// participants send and the proxy mixes.
	ParamSet = nn.ParamSet
	// LayerParams is one layer's parameter group (the mixing unit).
	LayerParams = nn.LayerParams
	// Arch is a reusable architecture description.
	Arch = nn.Arch
	// Network is a feed-forward neural network.
	Network = nn.Network
)

// Federated-learning types.
type (
	// FLConfig holds the federated schedule (rounds, epochs, batches).
	FLConfig = fl.Config
	// Client is a federated participant.
	Client = fl.Client
	// Server is the aggregation server.
	Server = fl.Server
	// Simulation orchestrates rounds over a pluggable update pipeline.
	Simulation = fl.Simulation
	// UpdateTransform is the pluggable pipeline stage between
	// participants and server (identity / mixing / noise).
	UpdateTransform = fl.UpdateTransform
	// RoundRecord is the adversarial server's per-round view.
	RoundRecord = fl.RoundRecord
)

// Dataset types.
type (
	// Source generates a benchmark dataset and its population.
	Source = data.Source
	// Dataset is a supervised dataset.
	Dataset = data.Dataset
	// Participant is one client's data partition plus its sensitive
	// attribute.
	Participant = data.Participant
)

// Attack types.
type (
	// NablaSim is the ∇Sim attribute-inference adversary.
	NablaSim = attack.NablaSim
	// AttackConfig parameterises ∇Sim.
	AttackConfig = attack.Config
)

// Deployment types (networked mode).
type (
	// Enclave is the simulated SGX enclave hosting the proxy.
	Enclave = enclave.Enclave
	// Platform is the simulated host (fuse secret + attestation).
	Platform = enclave.Platform
	// ShardedProxy is the horizontally-scaled mixing tier: P independent
	// mixer shards behind one endpoint, optionally cascaded to a next-hop
	// proxy with per-hop re-encryption.
	ShardedProxy = proxy.ShardedProxy
	// ShardedProxyConfig parameterises a ShardedProxy.
	ShardedProxyConfig = proxy.ShardedConfig
	// HopKey is the attested key material one cascade hop holds for the
	// next.
	HopKey = enclave.HopKey
	// AggServer is the HTTP aggregation server.
	AggServer = proxy.AggServer
	// ParticipantClient is the participant SDK: a session handle that
	// attests the mixing tier, holds an ordered failover list of proxy
	// endpoints, and sends updates with typed retry semantics.
	ParticipantClient = client.Participant
	// ParticipantConfig parameterises a ParticipantClient.
	ParticipantConfig = client.Config
	// AdminClient drives a proxy's routing-plane admin surface
	// (topology reads and directives) through the typed transport.
	AdminClient = client.Admin
)

// Transport types: the typed communication layer every inter-tier leg
// rides (see internal/transport).
type (
	// Transport is the typed inter-tier protocol (SendUpdate, SendBatch,
	// Hop, Attest, Model, Topology, Status).
	Transport = transport.Transport
	// TransportServer is the receiving side of the typed protocol,
	// implemented by ShardedProxy and AggServer.
	TransportServer = transport.Server
	// LoopbackTransport runs a whole deployment in one process: peers
	// are names in a registry, operations are direct method calls.
	LoopbackTransport = transport.Loopback
)

// NewHTTPTransport returns the wire-compatible network transport;
// httpc may be nil for a default client. Update, hop and batch sends go
// over the transport's own keep-alive pool when httpc's RoundTripper is
// an *http.Transport: httpc's Timeout and the Transport's per-host
// connection limits, idle timeout, dialer, proxy, response-head bound
// and compression setting apply to them, and its CloseIdleConnections
// does not reach them. Every other request goes through httpc (see
// transport.NewHTTP).
func NewHTTPTransport(httpc *http.Client) Transport { return transport.NewHTTP(httpc) }

// NewLoopbackTransport returns an empty in-process transport registry.
func NewLoopbackTransport() *LoopbackTransport { return transport.NewLoopback() }

// NewParticipantClient builds a participant session from a config.
func NewParticipantClient(cfg ParticipantConfig) (*ParticipantClient, error) {
	return client.New(cfg)
}

// NewAdminClient builds an admin sub-client for a proxy endpoint.
func NewAdminClient(tr Transport, endpoint, secret string) *AdminClient {
	return client.NewAdmin(tr, endpoint, secret)
}

// Experiment types.
type (
	// DatasetSpec bundles a dataset with its paper schedule.
	DatasetSpec = experiment.DatasetSpec
	// Arm is one evaluation arm (fl / mixnn / noisy).
	Arm = experiment.Arm
	// Scale selects quick (CI) or full (paper) sizing.
	Scale = experiment.Scale
)

// Scales.
const (
	ScaleQuick = experiment.ScaleQuick
	ScaleFull  = experiment.ScaleFull
)

// Datasets returns the paper's four benchmark specs at the given scale.
func Datasets(scale Scale, seed int64) []DatasetSpec { return experiment.Datasets(scale, seed) }

// DatasetByKey returns one benchmark spec by name
// ("cifar10", "motionsense", "mobiact", "lfw").
func DatasetByKey(key string, scale Scale, seed int64) (DatasetSpec, error) {
	return experiment.DatasetByKey(key, scale, seed)
}

// ClassicArm returns the unprotected federated-learning arm.
func ClassicArm() Arm { return Arm{Key: "fl", Transform: fl.Identity{}} }

// MixNNArm returns the MixNN batch-mixing arm (the paper's L = C setting).
func MixNNArm() Arm { return Arm{Key: "mixnn", Transform: core.Transform{}} }

// MixNNStreamArm returns the streaming k-buffer MixNN arm (§4.3).
func MixNNStreamArm(k int) Arm { return experiment.StreamArm(k) }

// MixNNShardedArm returns the sharded mixing-tier arm: P independent
// k-buffer stream mixers over a round-robin partition of each round.
func MixNNShardedArm(k, shards int) Arm { return experiment.ShardedStreamArm(k, shards) }

// NoisyArm returns the noisy-gradient baseline with the given sigma
// (0 = the paper's N(0,1)).
func NoisyArm(sigma float64) Arm {
	return Arm{Key: "noisy", Transform: privacy.NoisyTransform{Sigma: sigma}}
}

// NewFederation wires a complete in-process federation for a dataset spec
// and arm: clients with their non-IID partitions, a fresh global model and
// the chosen pipeline. It returns the simulation and the participants'
// true sensitive attributes (for evaluating inference attacks).
func NewFederation(spec DatasetSpec, arm Arm, seed int64) (*Simulation, []int, error) {
	return experiment.BuildFederation(spec, arm, seed)
}

// NewAttack builds a ∇Sim adversary.
func NewAttack(cfg AttackConfig) (*NablaSim, error) { return attack.New(cfg) }
