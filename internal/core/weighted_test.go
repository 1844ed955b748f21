package core

import (
	"math/rand"
	"testing"

	"mixnn/internal/nn"
)

// TestWeightedAverageBreaksUnderMixing documents the design constraint the
// §4.2 proof implies: MixNN's equivalence holds for the UNIFORM mean only.
// If the server weighted updates (e.g. by dataset size, classic FedAvg),
// mixing would attach participant i's weight to other participants'
// layers, changing the aggregate. MixNN deployments must aggregate
// uniformly — which the paper's operating flow does.
func TestWeightedAverageBreaksUnderMixing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	updates := makeUpdates(6, 3, rng)
	weights := []float64{1, 2, 3, 4, 5, 6} // deliberately non-uniform

	mixed, err := Transform{}.Apply(updates, rng)
	if err != nil {
		t.Fatal(err)
	}

	before, err := nn.WeightedAverage(updates, weights)
	if err != nil {
		t.Fatal(err)
	}
	after, err := nn.WeightedAverage(mixed, weights)
	if err != nil {
		t.Fatal(err)
	}
	if before.ApproxEqual(after, 1e-6) {
		t.Fatal("weighted aggregation unexpectedly survived mixing — the uniform-mean constraint would be moot")
	}

	// Uniform weights are exactly the §4.2 setting and must agree.
	uniform := []float64{1, 1, 1, 1, 1, 1}
	b2, err := nn.WeightedAverage(updates, uniform)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := nn.WeightedAverage(mixed, uniform)
	if err != nil {
		t.Fatal(err)
	}
	if !b2.ApproxEqual(a2, 1e-9) {
		t.Fatal("uniform weighted average disagrees with mixing equivalence")
	}
}
