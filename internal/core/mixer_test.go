package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mixnn/internal/nn"
	"mixnn/internal/tensor"
)

// makeUpdates builds c structurally-identical random updates with nLayers
// layers of two tensors each. Each update is tagged: every scalar of
// update i's layer j equals a distinct base value, so tests can trace
// exactly where each layer went after mixing.
func makeUpdates(c, nLayers int, rng *rand.Rand) []nn.ParamSet {
	out := make([]nn.ParamSet, c)
	for i := 0; i < c; i++ {
		var ps nn.ParamSet
		for j := 0; j < nLayers; j++ {
			w := tensor.New(3, 2).RandN(rng, float64(i*100+j), 0.01)
			b := tensor.New(2).RandN(rng, float64(i*100+j), 0.01)
			ps.Layers = append(ps.Layers, nn.LayerParams{
				Name:    layerName(j),
				Tensors: []*tensor.Tensor{w, b},
			})
		}
		out[i] = ps
	}
	return out
}

func layerName(j int) string { return string(rune('a' + j)) }

func TestBatchMixPreservesAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	updates := makeUpdates(8, 4, rng)
	mixed, err := Transform{}.Apply(updates, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed) != len(updates) {
		t.Fatalf("mixed %d updates from %d inputs", len(mixed), len(updates))
	}
	before, err := nn.Average(updates)
	if err != nil {
		t.Fatal(err)
	}
	after, err := nn.Average(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if !before.ApproxEqual(after, 1e-9) {
		t.Fatal("aggregation changed by mixing (violates §4.2 theorem)")
	}
}

func TestBatchMixAssignmentIsPerLayerBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	updates := makeUpdates(10, 5, rng)
	_, assign, err := BatchMixAssignment(updates, rng, GranularityLayer)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		seen := make(map[int]bool)
		for i := range assign {
			src := assign[i][j]
			if seen[src] {
				t.Fatalf("layer %d: participant %d used twice (not a bijection)", j, src)
			}
			seen[src] = true
		}
		if len(seen) != len(updates) {
			t.Fatalf("layer %d: only %d of %d participants used", j, len(seen), len(updates))
		}
	}
}

func TestBatchMixAssignmentMatchesContent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	updates := makeUpdates(6, 3, rng)
	mixed, assign, err := BatchMixAssignment(updates, rng, GranularityLayer)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mixed {
		for j := range mixed[i].Layers {
			src := assign[i][j]
			want := updates[src].Layers[j]
			got := mixed[i].Layers[j]
			if !tensor.Equal(got.Tensors[0], want.Tensors[0]) {
				t.Fatalf("slot %d layer %d does not hold participant %d's layer", i, j, src)
			}
			if got.Name != want.Name {
				t.Fatalf("slot %d layer %d name %q, want %q", i, j, got.Name, want.Name)
			}
		}
	}
}

func TestBatchMixActuallyMixes(t *testing.T) {
	// With 20 participants and 5 layers the probability that every emitted
	// update is entirely from a single participant is astronomically
	// small; assert at least one emitted update is genuinely composite.
	rng := rand.New(rand.NewSource(4))
	updates := makeUpdates(20, 5, rng)
	_, assign, err := BatchMixAssignment(updates, rng, GranularityLayer)
	if err != nil {
		t.Fatal(err)
	}
	composite := 0
	for i := range assign {
		first := assign[i][0]
		for _, src := range assign[i][1:] {
			if src != first {
				composite++
				break
			}
		}
	}
	if composite == 0 {
		t.Fatal("no emitted update combined layers from different participants")
	}
}

func TestBatchMixGranularities(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	updates := makeUpdates(6, 3, rng)

	tests := []struct {
		g         Granularity
		wantUnits int
	}{
		{GranularityLayer, 3},
		{GranularityTensor, 6}, // 3 layers x 2 tensors
		{GranularityModel, 1},
	}
	for _, tt := range tests {
		t.Run(tt.g.String(), func(t *testing.T) {
			mixed, assign, err := BatchMixAssignment(updates, rng, tt.g)
			if err != nil {
				t.Fatal(err)
			}
			if len(assign[0]) != tt.wantUnits {
				t.Fatalf("units = %d, want %d", len(assign[0]), tt.wantUnits)
			}
			before, _ := nn.Average(updates)
			after, err := nn.Average(mixed)
			if err != nil {
				t.Fatal(err)
			}
			if !before.ApproxEqual(after, 1e-9) {
				t.Fatalf("granularity %v changed the aggregate", tt.g)
			}
		})
	}
}

func TestBatchMixModelGranularityKeepsUpdatesIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	updates := makeUpdates(5, 3, rng)
	mixed, assign, err := BatchMixAssignment(updates, rng, GranularityModel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mixed {
		if !mixed[i].ApproxEqual(updates[assign[i][0]], 0) {
			t.Fatalf("slot %d is not exactly participant %d's whole update", i, assign[i][0])
		}
	}
}

func TestBatchMixErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if _, err := (Transform{}).Apply(nil, rng); err == nil {
		t.Fatal("a batch mix of no updates succeeded")
	}
	a := makeUpdates(1, 2, rng)[0]
	b := makeUpdates(1, 3, rng)[0]
	if _, err := (Transform{}).Apply([]nn.ParamSet{a, b}, rng); err == nil {
		t.Fatal("a batch mix of incompatible updates succeeded")
	}
	if _, _, err := BatchMixAssignment(makeUpdates(2, 2, rng), rng, Granularity(99)); err == nil {
		t.Fatal("unknown granularity accepted")
	}
}

func TestTransformInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	updates := makeUpdates(4, 3, rng)
	tr := Transform{}
	if tr.Name() != "mixnn" {
		t.Fatalf("Name() = %q", tr.Name())
	}
	mixed, err := tr.Apply(updates, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed) != 4 {
		t.Fatalf("Apply returned %d updates, want 4", len(mixed))
	}
}

// Property (§4.2 theorem): Agr(mixed) == Agr(original) for random update
// populations, layer counts and granularities.
func TestQuickMixEquivalence(t *testing.T) {
	f := func(seed int64, c8, l8, g8 uint8) bool {
		c := int(c8%9) + 2
		l := int(l8%5) + 1
		g := Granularity(int(g8%3) + 1)
		rng := rand.New(rand.NewSource(seed))
		updates := makeUpdates(c, l, rng)
		mixed, _, err := BatchMixAssignment(updates, rng, g)
		if err != nil {
			return false
		}
		before, err1 := nn.Average(updates)
		after, err2 := nn.Average(mixed)
		if err1 != nil || err2 != nil {
			return false
		}
		return before.ApproxEqual(after, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every unit column of the assignment matrix is a bijection —
// the paper's condition that each participant/layer combination appears
// exactly once.
func TestQuickMixBijectivity(t *testing.T) {
	f := func(seed int64, c8, l8 uint8) bool {
		c := int(c8%9) + 2
		l := int(l8%5) + 1
		rng := rand.New(rand.NewSource(seed))
		updates := makeUpdates(c, l, rng)
		_, assign, err := BatchMixAssignment(updates, rng, GranularityLayer)
		if err != nil {
			return false
		}
		for j := 0; j < l; j++ {
			seen := make(map[int]bool, c)
			for i := 0; i < c; i++ {
				if seen[assign[i][j]] {
					return false
				}
				seen[assign[i][j]] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
