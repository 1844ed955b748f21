// Package experiment contains one runner per table/figure of the paper's
// evaluation (§6), wired from the substrate packages. DESIGN.md §4 maps
// each experiment to its runner; README.md records paper-vs-measured.
package experiment

import (
	"fmt"

	"mixnn/internal/core"
	"mixnn/internal/data"
	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/privacy"
)

// Scale selects experiment sizing. Quick shrinks populations, input dims
// and rounds so the whole suite runs in seconds (CI, unit tests); Full uses
// the paper's populations and schedules (§6.1.4).
type Scale int

const (
	// ScaleQuick is the CI-sized configuration.
	ScaleQuick Scale = iota + 1
	// ScaleFull is the paper-sized configuration.
	ScaleFull
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == ScaleFull {
		return "full"
	}
	return "quick"
}

// DatasetSpec bundles everything one benchmark dataset needs: the data
// source, the model architecture, and the paper's federated schedule.
type DatasetSpec struct {
	Key    string
	Source data.Source
	Arch   nn.Arch
	FL     fl.Config
	// AttackEpochs is the reference-model training budget of ∇Sim
	// ("attack models are trained for 5 learning rounds", §6.1.4).
	AttackEpochs int
	// AuxPerClass is the adversary's background-knowledge pool per class.
	AuxPerClass int
}

// Datasets returns the four benchmark specs of §6.1.1 at the given scale.
// Seed controls data generation; the federated schedule follows §6.1.4
// (local epochs, batch sizes, rounds, population sizes).
func Datasets(scale Scale, seed int64) []DatasetSpec {
	if scale == ScaleFull {
		return fullDatasets(seed)
	}
	return quickDatasets(seed)
}

// DatasetByKey returns the named spec at the given scale.
func DatasetByKey(key string, scale Scale, seed int64) (DatasetSpec, error) {
	for _, spec := range Datasets(scale, seed) {
		if spec.Key == key {
			return spec, nil
		}
	}
	return DatasetSpec{}, fmt.Errorf("experiment: unknown dataset %q", key)
}

func fullDatasets(seed int64) []DatasetSpec {
	cifarSrc := data.NewCIFAR(data.CIFARConfig{Seed: seed})
	motionSrc := data.NewMotion(withSeed(data.MotionSenseConfig(), seed))
	mobiSrc := data.NewMotion(withSeed(data.MobiActConfig(), seed))
	facesSrc := data.NewFaces(data.FacesConfig{Seed: seed})

	return []DatasetSpec{
		{
			Key:    "cifar10",
			Source: cifarSrc,
			Arch:   convNetFor(cifarSrc, 8, 16, 64, 32),
			// §6.1.4: 3 local epochs, batch 32, 10 rounds, 16 of the 20
			// participants aggregated per round.
			FL:           fl.Config{Rounds: 10, LocalEpochs: 3, BatchSize: 32, LearningRate: 0.001, Optimizer: "adam", Seed: seed, ClientsPerRound: 16},
			AttackEpochs: 5,
			AuxPerClass:  400,
		},
		{
			Key:    "motionsense",
			Source: motionSrc,
			Arch:   convNetFor(motionSrc, 8, 16, 64, 32),
			// §6.1.4: 2 local epochs, batch 256, 20 rounds, 20 users
			// aggregated per round.
			FL:           fl.Config{Rounds: 20, LocalEpochs: 2, BatchSize: 256, LearningRate: 0.001, Optimizer: "adam", Seed: seed, ClientsPerRound: 20},
			AttackEpochs: 5,
			AuxPerClass:  400,
		},
		{
			Key:    "mobiact",
			Source: mobiSrc,
			Arch:   convNetFor(mobiSrc, 8, 16, 64, 32),
			// §6.1.4: 3 local epochs, batch 64, 20 rounds, 40 of the 58
			// subjects aggregated per round.
			FL:           fl.Config{Rounds: 20, LocalEpochs: 3, BatchSize: 64, LearningRate: 0.001, Optimizer: "adam", Seed: seed, ClientsPerRound: 40},
			AttackEpochs: 5,
			AuxPerClass:  400,
		},
		{
			Key:    "lfw",
			Source: facesSrc,
			Arch:   deepFaceFor(facesSrc, 8, 16, 8, 64),
			// §6.1.4: 2 local epochs, batch 16, 30 rounds.
			FL:           fl.Config{Rounds: 30, LocalEpochs: 2, BatchSize: 16, LearningRate: 0.001, Optimizer: "adam", Seed: seed},
			AttackEpochs: 5,
			AuxPerClass:  320,
		},
	}
}

func quickDatasets(seed int64) []DatasetSpec {
	cifarSrc := data.NewCIFAR(data.CIFARConfig{
		H: 16, W: 16,
		GroupSizes: []int{3, 3, 4},
		TrainPer:   48, TestPer: 16,
		Seed: seed,
	})
	msCfg := data.MotionSenseConfig()
	// At 50 Hz a window must span at least one gait cycle for the gender
	// frequency shift to be visible; T=48 keeps ~1 s of signal.
	msCfg.T = 48
	msCfg.Participants = 8
	msCfg.TrainPer, msCfg.TestPer = 48, 16
	msCfg.Seed = seed
	motionSrc := data.NewMotion(msCfg)

	maCfg := data.MobiActConfig()
	maCfg.T = 32
	maCfg.Participants = 10
	maCfg.TrainPer, maCfg.TestPer = 48, 16
	maCfg.Seed = seed
	mobiSrc := data.NewMotion(maCfg)

	facesSrc := data.NewFaces(data.FacesConfig{
		H: 16, W: 16,
		Participants: 8,
		TrainPer:     48, TestPer: 16,
		Seed: seed,
	})

	quickFL := func(epochs, batch int) fl.Config {
		return fl.Config{Rounds: 5, LocalEpochs: epochs, BatchSize: batch, LearningRate: 0.002, Optimizer: "adam", Seed: seed}
	}
	return []DatasetSpec{
		{Key: "cifar10", Source: cifarSrc, Arch: convNetFor(cifarSrc, 4, 8, 32, 16),
			FL: quickFL(2, 16), AttackEpochs: 3, AuxPerClass: 96},
		{Key: "motionsense", Source: motionSrc, Arch: convNetFor(motionSrc, 4, 8, 32, 16),
			FL: quickFL(2, 16), AttackEpochs: 3, AuxPerClass: 96},
		{Key: "mobiact", Source: mobiSrc, Arch: convNetFor(mobiSrc, 4, 8, 32, 16),
			FL: quickFL(2, 16), AttackEpochs: 3, AuxPerClass: 96},
		{Key: "lfw", Source: facesSrc, Arch: deepFaceFor(facesSrc, 4, 8, 4, 32),
			FL: quickFL(2, 16), AttackEpochs: 3, AuxPerClass: 96},
	}
}

func withSeed(cfg data.MotionConfig, seed int64) data.MotionConfig {
	cfg.Seed = seed
	return cfg
}

// convNetFor builds the paper's 2-conv+3-FC architecture for a source,
// pooling spatially where the input allows it (images pool 2×2 twice;
// motion windows pool along time only).
func convNetFor(src data.Source, f1, f2, h1, h2 int) nn.Arch {
	c, h, w := src.Input()
	cfg := nn.ConvNetConfig{
		InC: c, InH: h, InW: w,
		Classes:  src.Classes(),
		Filters1: f1, Filters2: f2, Hidden1: h1, Hidden2: h2,
	}
	if h%4 == 0 {
		cfg.PoolH1, cfg.PoolH2 = 2, 2
	}
	if w%4 == 0 {
		cfg.PoolW1, cfg.PoolW2 = 2, 2
	}
	return nn.NewConvNet(src.Name()+"-cnn", cfg)
}

// deepFaceFor builds the DeepFace-style architecture for the face source.
func deepFaceFor(src data.Source, f1, f2, l3, hidden int) nn.Arch {
	c, h, w := src.Input()
	return nn.NewDeepFace(src.Name()+"-deepface", nn.DeepFaceConfig{
		InC: c, InH: h, InW: w,
		Classes:  src.Classes(),
		Filters1: f1, Filters2: f2, Local3: l3, Hidden: hidden,
	})
}

// Arm is one comparison arm of the evaluation: classic FL, MixNN, or the
// noisy-gradient baseline.
type Arm struct {
	Key       string
	Transform fl.UpdateTransform
}

// Arms returns the paper's three arms. The MixNN arm uses the batch mixer
// (L = C); use StreamArm for the k-buffer variant.
func Arms() []Arm {
	return []Arm{
		{Key: "fl", Transform: fl.Identity{}},
		{Key: "mixnn", Transform: core.Transform{}},
		{Key: "noisy", Transform: privacy.NoisyTransform{Sigma: privacy.DefaultSigma}},
	}
}

// StreamArm returns the streaming-mixer arm with buffer size k
// (k <= 0 lets the transform clamp to the population size).
func StreamArm(k int) Arm {
	return Arm{Key: "mixnn-stream", Transform: core.ShardedStreamTransform{K: k}}
}

// ShardedStreamArm returns the sharded mixing-tier arm: P independent
// k-buffer stream mixers over a round-robin partition of each round. It
// evaluates how much protection the scalable multi-proxy deployment
// retains when mixing breadth shrinks from C to C/P per shard.
func ShardedStreamArm(k, shards int) Arm {
	return Arm{
		Key:       fmt.Sprintf("mixnn-sharded-p%d", shards),
		Transform: core.ShardedStreamTransform{K: k, Shards: shards},
	}
}
