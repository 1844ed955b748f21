package nn

import (
	"math"
	"math/rand"
	"testing"

	"mixnn/internal/tensor"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := tensor.New(5, 7).RandN(rng, 0, 3)
	probs := Softmax(logits)
	for i := 0; i < 5; i++ {
		sum := 0.0
		for j := 0; j < 7; j++ {
			p := probs.Data()[i*7+j]
			if p < 0 || p > 1 {
				t.Fatalf("prob out of range: %g", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := tensor.MustFromSlice([]float64{1000, 1000, 999}, 1, 3)
	probs := Softmax(logits)
	for _, v := range probs.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflowed: %v", probs)
		}
	}
	if probs.Data()[0] <= probs.Data()[2] {
		t.Fatal("softmax lost ordering")
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := tensor.MustFromSlice([]float64{1, 2, 3}, 1, 3)
	b := tensor.MustFromSlice([]float64{101, 102, 103}, 1, 3)
	if !tensor.ApproxEqual(Softmax(a), Softmax(b), 1e-12) {
		t.Fatal("softmax is not shift invariant")
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	probs := tensor.MustFromSlice([]float64{0.5, 0.5}, 1, 2)
	got := CrossEntropyLoss(probs, []int{0})
	if math.Abs(got-math.Ln2) > 1e-9 {
		t.Fatalf("loss = %g, want ln(2)", got)
	}
}

func TestCrossEntropyPanicsOnBadLabels(t *testing.T) {
	probs := tensor.MustFromSlice([]float64{1, 0}, 1, 2)
	for name, labels := range map[string][]int{
		"out of range": {5},
		"negative":     {-1},
		"wrong count":  {0, 1},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			CrossEntropyLoss(probs, labels)
		})
	}
}

func TestSoftmaxCrossEntropyGradientSignature(t *testing.T) {
	// For a single sample, grad = probs - onehot; the true-class entry is
	// negative, all others positive, and the row sums to ~0.
	rng := rand.New(rand.NewSource(2))
	logits := tensor.New(1, 4).RandN(rng, 0, 1)
	var loss SoftmaxCrossEntropy
	_, probs := loss.Forward(logits, []int{2})
	grad := loss.Backward(probs, []int{2})
	sum := 0.0
	for j := 0; j < 4; j++ {
		g := grad.Data()[j]
		sum += g
		if j == 2 && g >= 0 {
			t.Fatalf("true-class gradient %g not negative", g)
		}
		if j != 2 && g <= 0 {
			t.Fatalf("off-class gradient %g not positive", g)
		}
	}
	if math.Abs(sum) > 1e-12 {
		t.Fatalf("gradient row sums to %g, want 0", sum)
	}
}

func TestAccuracy(t *testing.T) {
	scores := tensor.MustFromSlice([]float64{
		0.9, 0.1,
		0.3, 0.7,
		0.6, 0.4,
	}, 3, 2)
	if got := Accuracy(scores, []int{0, 1, 1}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("accuracy = %g, want 2/3", got)
	}
	if got := Accuracy(scores, []int{0, 1, 0}); got != 1 {
		t.Fatalf("accuracy = %g, want 1", got)
	}
}
