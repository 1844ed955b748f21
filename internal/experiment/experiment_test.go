package experiment

import (
	"math/rand"
	"testing"

	"mixnn/internal/tensor"
)

// quickBatch returns a small random batch of the given width.
func quickBatch(dim, n int) *tensor.Tensor {
	return tensor.New(n, dim).RandN(rand.New(rand.NewSource(1)), 0, 1)
}

func TestDatasetsQuick(t *testing.T) {
	specs := Datasets(ScaleQuick, 1)
	if len(specs) != 4 {
		t.Fatalf("quick datasets = %d, want 4", len(specs))
	}
	wantKeys := map[string]bool{"cifar10": true, "motionsense": true, "mobiact": true, "lfw": true}
	for _, s := range specs {
		if !wantKeys[s.Key] {
			t.Fatalf("unexpected dataset %q", s.Key)
		}
		if err := s.FL.Validate(); err != nil {
			t.Fatalf("%s: invalid FL config: %v", s.Key, err)
		}
		if s.Arch.Build == nil {
			t.Fatalf("%s: missing architecture", s.Key)
		}
		// Architecture must accept the source's input shape.
		c, h, w := s.Source.Input()
		net := s.Arch.New(1)
		x := quickBatch(c*h*w, 2)
		out := net.Forward(x, false)
		if out.Dim(1) != s.Source.Classes() {
			t.Fatalf("%s: model outputs %d classes, source has %d", s.Key, out.Dim(1), s.Source.Classes())
		}
	}
}

func TestDatasetsFullConfigMatchesPaper(t *testing.T) {
	specs := Datasets(ScaleFull, 1)
	byKey := map[string]DatasetSpec{}
	for _, s := range specs {
		byKey[s.Key] = s
	}

	// §6.1.4 schedules.
	tests := []struct {
		key                   string
		rounds, epochs, batch int
		participants          int
	}{
		{"cifar10", 10, 3, 32, 20},
		{"motionsense", 20, 2, 256, 24},
		{"mobiact", 20, 3, 64, 58},
		{"lfw", 30, 2, 16, 20},
	}
	for _, tt := range tests {
		s, ok := byKey[tt.key]
		if !ok {
			t.Fatalf("missing dataset %q", tt.key)
		}
		if s.FL.Rounds != tt.rounds || s.FL.LocalEpochs != tt.epochs || s.FL.BatchSize != tt.batch {
			t.Fatalf("%s schedule = %d rounds/%d epochs/%d batch, want %d/%d/%d",
				tt.key, s.FL.Rounds, s.FL.LocalEpochs, s.FL.BatchSize, tt.rounds, tt.epochs, tt.batch)
		}
		if got := len(s.Source.Participants(1)); got != tt.participants {
			t.Fatalf("%s population = %d, want %d", tt.key, got, tt.participants)
		}
		if s.AttackEpochs != 5 {
			t.Fatalf("%s attack epochs = %d, want 5 (§6.1.4)", tt.key, s.AttackEpochs)
		}
	}
}

func TestDatasetByKey(t *testing.T) {
	if _, err := DatasetByKey("cifar10", ScaleQuick, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := DatasetByKey("imagenet", ScaleQuick, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestArms(t *testing.T) {
	arms := Arms()
	if len(arms) != 3 {
		t.Fatalf("arms = %d, want 3", len(arms))
	}
	for _, key := range []string{"fl", "mixnn", "noisy"} {
		if arm := mustArm(t, key); arm.Transform == nil {
			t.Fatalf("arm %q has no transform", key)
		}
	}
	if arm := StreamArm(0); arm.Key != "mixnn-stream" || arm.Transform == nil {
		t.Fatalf("stream arm %+v", arm)
	}
}

// TestFig5UtilityEquivalence is the heart of the paper: MixNN provides the
// same utility as classic FL, while noisy gradients lose accuracy.
func TestFig5UtilityEquivalence(t *testing.T) {
	spec := smallSpec(t, "cifar10")
	flRes, err := RunUtility(spec, mustArm(t, "fl"), 7)
	if err != nil {
		t.Fatal(err)
	}
	mixRes, err := RunUtility(spec, mustArm(t, "mixnn"), 7)
	if err != nil {
		t.Fatal(err)
	}
	noisyRes, err := RunUtility(spec, mustArm(t, "noisy"), 7)
	if err != nil {
		t.Fatal(err)
	}

	if len(flRes.Accuracy) != spec.FL.Rounds {
		t.Fatalf("recorded %d rounds, want %d", len(flRes.Accuracy), spec.FL.Rounds)
	}
	// Same seed, equivalent aggregation: the two curves must be nearly
	// identical (float reordering only).
	for r := range flRes.Accuracy {
		if diff := flRes.Accuracy[r] - mixRes.Accuracy[r]; diff > 0.02 || diff < -0.02 {
			t.Fatalf("round %d: fl %.4f vs mixnn %.4f — utility equivalence violated",
				r, flRes.Accuracy[r], mixRes.Accuracy[r])
		}
	}
	// Noisy gradients must hurt utility (paper: ~10% lower on average).
	if noisyRes.FinalAccuracy() >= flRes.FinalAccuracy() {
		t.Fatalf("noisy (%.4f) not worse than fl (%.4f)", noisyRes.FinalAccuracy(), flRes.FinalAccuracy())
	}
	// And the trained model must actually have learned something.
	if flRes.FinalAccuracy() < 0.4 {
		t.Fatalf("final fl accuracy %.4f too low — main task not learned", flRes.FinalAccuracy())
	}
}

// TestFig7InferenceProtection: ∇Sim succeeds against classic FL and is
// reduced to chance by MixNN.
func TestFig7InferenceProtection(t *testing.T) {
	spec := smallSpec(t, "cifar10")
	flRes, err := RunInference(spec, mustArm(t, "fl"), true, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	mixRes, err := RunInference(spec, mustArm(t, "mixnn"), true, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if flRes.FinalAccuracy() < flRes.Chance+0.2 {
		t.Fatalf("attack on classic FL = %.3f, chance %.3f — attack not working", flRes.FinalAccuracy(), flRes.Chance)
	}
	if mixRes.FinalAccuracy() > mixRes.Chance+0.25 {
		t.Fatalf("attack under MixNN = %.3f, chance %.3f — protection not working", mixRes.FinalAccuracy(), mixRes.Chance)
	}
	if flRes.FinalAccuracy() <= mixRes.FinalAccuracy() {
		t.Fatalf("MixNN (%.3f) leaks at least as much as classic FL (%.3f)", mixRes.FinalAccuracy(), flRes.FinalAccuracy())
	}
}

func TestFig8BackgroundSweepShape(t *testing.T) {
	spec := smallSpec(t, "motionsense")
	spec.FL.Rounds = 2
	results, err := RunBackgroundSweep(spec, mustArm(t, "fl"), true, []float64{0.3, 1.0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("sweep points = %d, want 2", len(results))
	}
	for i, r := range results {
		if len(r.InferenceAccuracy) != spec.FL.Rounds {
			t.Fatalf("point %d recorded %d rounds, want %d", i, len(r.InferenceAccuracy), spec.FL.Rounds)
		}
	}
	if results[0].Ratio != 0.3 || results[1].Ratio != 1.0 {
		t.Fatalf("ratios = %g/%g", results[0].Ratio, results[1].Ratio)
	}
}

func TestFig9Neighbours(t *testing.T) {
	spec := smallSpec(t, "motionsense")
	res, err := RunNeighbours(spec, DefaultNeighbourRadius, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := len(spec.Source.Participants(2))
	if len(res.Neighbours) != n {
		t.Fatalf("neighbour counts = %d, want %d", len(res.Neighbours), n)
	}
	if len(res.CDF) != n {
		t.Fatalf("CDF points = %d, want %d", len(res.CDF), n)
	}
	// The paper's claim: participants have close alter egos. With unit
	// normalisation and radius 0.5 at this scale, at least some
	// participants must have at least one neighbour.
	withNeighbour := 0
	for _, c := range res.Neighbours {
		if c > 0 {
			withNeighbour++
		}
	}
	if withNeighbour == 0 {
		t.Fatal("no participant has any close neighbour — robustness claim would fail")
	}
	// CDF is monotone and ends at 1.
	last := res.CDF[len(res.CDF)-1]
	if last.Y != 1 {
		t.Fatalf("CDF does not reach 1: %v", last)
	}
}

func TestSystemPerf(t *testing.T) {
	models := PerfModels(ScaleQuick)
	if len(models) != 2 {
		t.Fatalf("perf models = %d, want 2", len(models))
	}
	small, err := RunSystemPerf(models[0].Name, models[0].Arch, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunSystemPerf(models[1].Name, models[1].Arch, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.UpdateBytes <= 0 || big.UpdateBytes <= 0 {
		t.Fatal("update sizes not recorded")
	}
	// §6.5's qualitative claim: the larger model costs more memory.
	if big.UpdateBytes <= small.UpdateBytes {
		t.Fatalf("3conv update (%d B) not larger than 2conv (%d B)", big.UpdateBytes, small.UpdateBytes)
	}
	if small.EnclavePeakBytes <= 0 {
		t.Fatal("enclave peak memory not recorded")
	}
	if small.EndToEndMillis <= 0 {
		t.Fatal("end-to-end latency not recorded")
	}
}

// smallSpec shrinks a quick spec further for unit-test latency.
func smallSpec(t *testing.T, key string) DatasetSpec {
	t.Helper()
	spec, err := DatasetByKey(key, ScaleQuick, 11)
	if err != nil {
		t.Fatal(err)
	}
	spec.FL.Rounds = 3
	spec.AuxPerClass = 48
	spec.AttackEpochs = 2
	return spec
}

func mustArm(t *testing.T, key string) Arm {
	t.Helper()
	for _, arm := range Arms() {
		if arm.Key == key {
			return arm
		}
	}
	t.Fatalf("no arm %q", key)
	return Arm{}
}
