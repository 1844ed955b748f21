package privacy

import (
	"math"
	"math/rand"
	"testing"

	"mixnn/internal/nn"
	"mixnn/internal/tensor"
)

func randomUpdates(n, size int, rng *rand.Rand) []nn.ParamSet {
	out := make([]nn.ParamSet, n)
	for i := range out {
		out[i] = nn.ParamSet{Layers: []nn.LayerParams{{
			Name:    "l",
			Tensors: []*tensor.Tensor{tensor.New(size).RandN(rng, 0, 1)},
		}}}
	}
	return out
}

func TestNoisyTransformPerturbsWithoutMutating(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	updates := randomUpdates(3, 100, rng)
	originals := make([]nn.ParamSet, len(updates))
	for i, u := range updates {
		originals[i] = u.Clone()
	}

	out, err := NoisyTransform{Sigma: 1}.Apply(updates, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := range updates {
		if !updates[i].ApproxEqual(originals[i], 0) {
			t.Fatalf("input %d was mutated", i)
		}
		if out[i].ApproxEqual(originals[i], 1e-9) {
			t.Fatalf("output %d is unperturbed", i)
		}
	}
}

func TestNoisyTransformScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	updates := randomUpdates(1, 20000, rng)
	base := updates[0].Flatten()

	out, err := NoisyTransform{Sigma: 0.5}.Apply(updates, rng)
	if err != nil {
		t.Fatal(err)
	}
	noise := out[0].Flatten().Sub(base)
	// Empirical std of the injected noise must be close to sigma.
	std := noise.Norm() / math.Sqrt(float64(noise.Size()))
	if math.Abs(std-0.5) > 0.02 {
		t.Fatalf("noise std = %g, want ~0.5", std)
	}
}

func TestNoisyTransformDefaultSigma(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	updates := randomUpdates(1, 20000, rng)
	base := updates[0].Flatten()
	out, err := NoisyTransform{}.Apply(updates, rng)
	if err != nil {
		t.Fatal(err)
	}
	noise := out[0].Flatten().Sub(base)
	std := noise.Norm() / math.Sqrt(float64(noise.Size()))
	if math.Abs(std-DefaultSigma) > 0.05 {
		t.Fatalf("default noise std = %g, want ~%g (paper's N(0,1))", std, DefaultSigma)
	}
}

func TestNoisyTransformErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	updates := randomUpdates(1, 4, rng)
	if _, err := (NoisyTransform{Sigma: -1}).Apply(updates, rng); err == nil {
		t.Fatal("negative sigma accepted")
	}
	if _, err := (NoisyTransform{}).Apply(updates, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestClippedNoisyTransformClips(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := randomUpdates(1, 50, rng)[0]

	// An update far from the reference must come back within ClipNorm
	// (plus noise, which we disable to isolate clipping).
	far := ref.Clone()
	far.Layers[0].Tensors[0].Apply(func(v float64) float64 { return v + 100 })
	out, err := ClippedNoisyTransform{Reference: ref, ClipNorm: 1, Sigma: 0}.Apply([]nn.ParamSet{far}, rng)
	if err != nil {
		t.Fatal(err)
	}
	delta := out[0].Clone().Sub(ref).Flatten().Norm()
	if math.Abs(delta-1) > 1e-9 {
		t.Fatalf("clipped delta norm = %g, want 1", delta)
	}

	// An update within the ball must pass through unchanged (sigma 0).
	near := ref.Clone()
	near.Layers[0].Tensors[0].Data()[0] += 0.1
	out, err = ClippedNoisyTransform{Reference: ref, ClipNorm: 1, Sigma: 0}.Apply([]nn.ParamSet{near}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].ApproxEqual(near, 1e-12) {
		t.Fatal("in-ball update was altered")
	}
}

func TestClippedNoisyTransformErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := randomUpdates(1, 4, rng)[0]
	u := randomUpdates(1, 4, rng)

	tests := []struct {
		name string
		tr   ClippedNoisyTransform
	}{
		{"zero clip", ClippedNoisyTransform{Reference: ref, ClipNorm: 0}},
		{"negative sigma", ClippedNoisyTransform{Reference: ref, ClipNorm: 1, Sigma: -1}},
		{"no reference", ClippedNoisyTransform{ClipNorm: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.tr.Apply(u, rng); err == nil {
				t.Fatal("no error")
			}
		})
	}

	incompatible := randomUpdates(1, 9, rng)
	if _, err := (ClippedNoisyTransform{Reference: ref, ClipNorm: 1}).Apply(incompatible, rng); err == nil {
		t.Fatal("incompatible update accepted")
	}
}
