package attack

import (
	"fmt"
	"math/rand"
	"testing"

	"mixnn/internal/core"
	"mixnn/internal/data"
	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/privacy"
)

// gaussSource is a minimal data.Source for attack tests: 2 main classes as
// separated Gaussian blobs in 8-D, and a binary sensitive attribute that
// skews each participant's class mixture 85/15 — the same non-IID
// mechanism as the paper's preference groups, at unit-test scale.
type gaussSource struct {
	participants int
	perClient    int
}

var _ data.Source = (*gaussSource)(nil)

func (s *gaussSource) Name() string           { return "gauss" }
func (s *gaussSource) Input() (int, int, int) { return 1, 1, 8 }
func (s *gaussSource) Classes() int           { return 2 }
func (s *gaussSource) AttrClasses() int       { return 2 }
func (s *gaussSource) AttrName(a int) string  { return fmt.Sprintf("attr%d", a) }

func (s *gaussSource) sample(attr, n int, rng *rand.Rand) data.Dataset {
	ds := data.NewDataset(n, 8)
	for i := 0; i < n; i++ {
		y := attr
		if rng.Float64() < 0.15 {
			y = 1 - attr
		}
		ds.Y[i] = y
		center := -1.0
		if y == 1 {
			center = 1.0
		}
		for j := 0; j < 8; j++ {
			ds.X.Data()[i*8+j] = center + rng.NormFloat64()*0.7
		}
	}
	return ds
}

func (s *gaussSource) Participants(seed int64) []data.Participant {
	out := make([]data.Participant, s.participants)
	for id := range out {
		rng := rand.New(rand.NewSource(seed + int64(id)*131))
		attr := id % 2
		out[id] = data.Participant{
			ID:        id,
			Attribute: attr,
			Train:     s.sample(attr, s.perClient, rng),
			Test:      s.sample(attr, s.perClient/4, rng),
		}
	}
	return out
}

func (s *gaussSource) Auxiliary(attr, n int, seed int64) data.Dataset {
	rng := rand.New(rand.NewSource(seed ^ 0x77))
	return s.sample(attr, n, rng)
}

// Interface-compliance checks for the pipeline arms used below.
var (
	_ fl.UpdateTransform = core.Transform{}
	_ fl.UpdateTransform = core.ShardedStreamTransform{}
	_ fl.UpdateTransform = privacy.NoisyTransform{}
	_ fl.UpdateTransform = fl.Identity{}
)

// runAttack runs `rounds` federated rounds of the given arm under a ∇Sim
// adversary and returns the final inference accuracy.
func runAttack(t *testing.T, tr fl.UpdateTransform, active bool, rounds int) float64 {
	t.Helper()
	src := &gaussSource{participants: 10, perClient: 64}
	arch := nn.NewMLP("gauss", 8, []int{12}, 2)
	cfg := fl.Config{Rounds: rounds, LocalEpochs: 2, BatchSize: 16, LearningRate: 0.01, Optimizer: "adam", Seed: 3}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	parts := src.Participants(11)
	clients := make([]*fl.Client, len(parts))
	trueAttrs := make([]int, len(parts))
	for i, p := range parts {
		clients[i] = fl.NewClient(p, arch, cfg)
		trueAttrs[i] = p.Attribute
	}
	server := fl.NewServer(arch.New(1000).SnapshotParams())
	sim := fl.NewSimulation(server, clients, tr, 5)

	adv, err := New(Config{
		Arch:         arch,
		Source:       src,
		AuxPerClass:  96,
		Epochs:       3,
		BatchSize:    16,
		LearningRate: 0.01,
		Active:       active,
		Seed:         21,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Observer = adv
	sim.Disseminate = adv.Disseminator()

	if _, err := sim.Run(rounds); err != nil {
		t.Fatal(err)
	}
	acc, err := adv.Accuracy(trueAttrs)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestActiveAttackBreaksClassicFL(t *testing.T) {
	acc := runAttack(t, fl.Identity{}, true, 3)
	if acc < 0.9 {
		t.Fatalf("active ∇Sim accuracy on classic FL = %g, want >= 0.9", acc)
	}
}

func TestPassiveAttackBeatsChanceOnClassicFL(t *testing.T) {
	acc := runAttack(t, fl.Identity{}, false, 3)
	if acc < 0.7 {
		t.Fatalf("passive ∇Sim accuracy on classic FL = %g, want >= 0.7", acc)
	}
}

func TestMixNNDefeatsActiveAttack(t *testing.T) {
	acc := runAttack(t, core.Transform{}, true, 3)
	// 10 participants, binary attribute: random guessing gives ~0.5.
	if acc > 0.75 {
		t.Fatalf("active ∇Sim accuracy under MixNN = %g, want ~0.5 (chance)", acc)
	}
}

func TestMixNNStreamDefeatsActiveAttack(t *testing.T) {
	acc := runAttack(t, core.ShardedStreamTransform{K: 4}, true, 3)
	if acc > 0.75 {
		t.Fatalf("active ∇Sim accuracy under streaming MixNN = %g, want ~0.5", acc)
	}
}

func TestNoisyLeaksLessThanClassicFL(t *testing.T) {
	classic := runAttack(t, fl.Identity{}, true, 3)
	noisy := runAttack(t, privacy.NoisyTransform{Sigma: privacy.DefaultSigma}, true, 3)
	if noisy > classic {
		t.Fatalf("noisy arm leaks more than classic FL: %g > %g", noisy, classic)
	}
}

func TestConfigValidation(t *testing.T) {
	src := &gaussSource{participants: 2, perClient: 8}
	arch := nn.NewMLP("g", 8, nil, 2)
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid", Config{Arch: arch, Source: src}, false},
		{"no source", Config{Arch: arch}, true},
		{"no arch", Config{Source: src}, true},
		{"bad ratio", Config{Arch: arch, Source: src, BackgroundRatio: 1.5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New error = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestAccuracyErrors(t *testing.T) {
	src := &gaussSource{participants: 2, perClient: 8}
	adv, err := New(Config{Arch: nn.NewMLP("g", 8, nil, 2), Source: src, AuxPerClass: 8, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.Accuracy([]int{0, 1}); err == nil {
		t.Fatal("Accuracy before any observation succeeded")
	}
}

func TestScoresAccumulateAcrossRounds(t *testing.T) {
	src := &gaussSource{participants: 4, perClient: 32}
	arch := nn.NewMLP("g", 8, []int{6}, 2)
	adv, err := New(Config{Arch: arch, Source: src, AuxPerClass: 32, Epochs: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	global := arch.New(5).SnapshotParams()
	updates := make([]nn.ParamSet, 4)
	rng := rand.New(rand.NewSource(6))
	for i := range updates {
		u := global.Clone()
		for _, lp := range u.Layers {
			for _, tt := range lp.Tensors {
				d := tt.Data()
				for j := range d {
					d[j] += rng.NormFloat64() * 0.1
				}
			}
		}
		updates[i] = u
	}
	rec := fl.RoundRecord{Round: 0, Disseminated: global, Updates: updates}
	adv.ObserveRound(rec)
	s1 := adv.Scores()
	adv.ObserveRound(rec)
	s2 := adv.Scores()
	if adv.Rounds() != 2 {
		t.Fatalf("rounds = %d, want 2", adv.Rounds())
	}
	for i := range s1 {
		for c := range s1[i] {
			if s1[i][c] == 0 {
				continue
			}
			if s2[i][c] == s1[i][c] {
				t.Fatalf("score[%d][%d] did not accumulate", i, c)
			}
		}
	}
	if got := adv.Predict(); len(got) != 4 {
		t.Fatalf("predictions = %d, want 4", len(got))
	}
}

func TestScoresKeyedByClientID(t *testing.T) {
	src := &gaussSource{participants: 6, perClient: 32}
	arch := nn.NewMLP("g", 8, []int{6}, 2)
	adv, err := New(Config{Arch: arch, Source: src, AuxPerClass: 32, Epochs: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	global := arch.New(5).SnapshotParams()
	mkUpdate := func(seed int64) nn.ParamSet {
		u := global.Clone()
		r := rand.New(rand.NewSource(seed))
		for _, lp := range u.Layers {
			for _, tt := range lp.Tensors {
				d := tt.Data()
				for j := range d {
					d[j] += r.NormFloat64() * 0.1
				}
			}
		}
		return u
	}

	// Two rounds with different sampled subsets: scores must accumulate
	// under the client IDs, not the slot positions.
	adv.ObserveRound(fl.RoundRecord{
		Round: 0, Disseminated: global,
		Updates: []nn.ParamSet{mkUpdate(1), mkUpdate(2)}, ClientIDs: []int{4, 1},
	})
	adv.ObserveRound(fl.RoundRecord{
		Round: 1, Disseminated: global,
		Updates: []nn.ParamSet{mkUpdate(3)}, ClientIDs: []int{5},
	})
	scores := adv.Scores()
	for _, want := range []int{4, 1, 5} {
		if _, ok := scores[want]; !ok {
			t.Fatalf("no score recorded for client %d: %v", want, scores)
		}
	}
	if _, ok := scores[0]; ok {
		t.Fatal("positional key 0 recorded despite client IDs being present")
	}
	if _, err := adv.Accuracy([]int{0, 1, 0, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	// A slot key outside the population must be reported as an error.
	if _, err := adv.Accuracy([]int{0, 1}); err == nil {
		t.Fatal("out-of-range slot key accepted")
	}
}
