package core_test

import (
	"fmt"
	"math/rand"

	"mixnn/internal/core"
	"mixnn/internal/nn"
	"mixnn/internal/tensor"
)

// ExampleTransform shows the paper's central property: mixing layers
// between participants leaves the aggregated mean unchanged.
func ExampleTransform() {
	rng := rand.New(rand.NewSource(1))

	// Three participants, each with a two-layer update.
	updates := make([]nn.ParamSet, 3)
	for i := range updates {
		updates[i] = nn.ParamSet{Layers: []nn.LayerParams{
			{Name: "conv1", Tensors: []*tensor.Tensor{tensor.Full(float64(i), 2)}},
			{Name: "fc1", Tensors: []*tensor.Tensor{tensor.Full(float64(i*10), 2)}},
		}}
	}

	mixed, err := core.Transform{}.Apply(updates, rng)
	if err != nil {
		panic(err)
	}

	before, _ := nn.Average(updates)
	after, _ := nn.Average(mixed)
	fmt.Println("updates emitted:", len(mixed))
	fmt.Println("aggregate unchanged:", before.ApproxEqual(after, 1e-12))
	// Output:
	// updates emitted: 3
	// aggregate unchanged: true
}

// ExampleStreamMixer walks the §4.3 enclave algorithm: fill k per-layer
// lists, then emit one mixed update per arrival.
func ExampleStreamMixer() {
	rng := rand.New(rand.NewSource(7))
	mixer, err := core.NewStreamMixerSlab(2, rng, nil)
	if err != nil {
		panic(err)
	}

	update := func(v float64) nn.ParamSet {
		return nn.ParamSet{Layers: []nn.LayerParams{
			{Name: "fc1", Tensors: []*tensor.Tensor{tensor.Full(v, 2)}},
		}}
	}

	for i := 1; i <= 4; i++ {
		out, err := mixer.Add(update(float64(i)))
		if err != nil {
			panic(err)
		}
		fmt.Printf("after update %d: emitted=%v buffered=%d\n", i, out != nil, mixer.Buffered())
	}
	fmt.Println("drained:", len(mixer.Drain()))
	// Output:
	// after update 1: emitted=false buffered=1
	// after update 2: emitted=false buffered=2
	// after update 3: emitted=true buffered=2
	// after update 4: emitted=true buffered=2
	// drained: 2
}
