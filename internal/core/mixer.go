// Package core implements the MixNN mixing strategy — the paper's primary
// contribution (§4). A mixer receives the per-participant parameter updates
// and reassembles them so that each update sent to the aggregation server
// combines layers from different participants, destroying the per-client
// gradient footprint while leaving the layer-wise mean (and therefore the
// aggregated global model) unchanged up to floating-point reordering.
//
// Two modes are provided, matching the paper:
//
//   - Transform (§4.2): wait for all C participants, then emit L = C
//     mixed updates built from one independent uniform permutation per
//     layer. Per-layer bijectivity gives the aggregation-equivalence
//     theorem.
//   - StreamMixer (§4.3): the implementation deployed inside the enclave.
//     Per-layer lists of capacity k are filled first; each further update
//     causes one element per layer to be drawn at random, assembled into
//     an outgoing update, and replaced by the arriving update's layer.
package core

import (
	"fmt"
	"math/rand"

	"mixnn/internal/nn"
	"mixnn/internal/tensor"
)

// Granularity selects the unit of mixing. The paper mixes whole layers;
// the other granularities exist for the ablation study.
type Granularity int

const (
	// GranularityLayer mixes per layer (the paper's design).
	GranularityLayer Granularity = iota + 1
	// GranularityTensor mixes each tensor independently (weights and
	// biases of the same layer may come from different participants).
	GranularityTensor
	// GranularityModel permutes whole updates without splitting them.
	// It preserves aggregation trivially but only unlinks sender
	// identity — the "no mixing" ablation arm.
	GranularityModel
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case GranularityLayer:
		return "layer"
	case GranularityTensor:
		return "tensor"
	case GranularityModel:
		return "model"
	default:
		return fmt.Sprintf("granularity(%d)", int(g))
	}
}

// BatchMixAssignment mixes the C updates with one independent uniform
// permutation per unit and returns C mixed updates (the paper's L = C
// setting, where the proxy waits for every participant before mixing)
// together with the mixing matrix: assign[i][j] is the index of the
// participant whose unit j (layer or tensor, per the granularity) landed
// in outgoing update i. For GranularityModel there is a single unit per
// update. Tests use the assignment to verify per-unit bijectivity; the
// robustness analysis (Figure 9) uses it as ground truth.
//
// The returned updates share tensor storage with the inputs; callers that
// mutate updates afterwards must clone.
func BatchMixAssignment(updates []nn.ParamSet, rng *rand.Rand, g Granularity) ([]nn.ParamSet, [][]int, error) {
	c := len(updates)
	if c == 0 {
		return nil, nil, fmt.Errorf("core: batch mix of zero updates")
	}
	for i := 1; i < c; i++ {
		if !updates[0].Compatible(updates[i]) {
			return nil, nil, fmt.Errorf("core: update %d incompatible with update 0", i)
		}
	}
	units, err := unitCount(updates[0], g)
	if err != nil {
		return nil, nil, err
	}

	// One independent uniform permutation per unit: unit j of outgoing
	// update i comes from participant perm[j][i]. Every column of the
	// assignment matrix is a bijection over participants, which is exactly
	// the condition of the §4.2 equivalence proof.
	perm := make([][]int, units)
	for j := range perm {
		perm[j] = rng.Perm(c)
	}

	mixed := make([]nn.ParamSet, c)
	assign := make([][]int, c)
	for i := 0; i < c; i++ {
		assign[i] = make([]int, units)
		for j := 0; j < units; j++ {
			assign[i][j] = perm[j][i]
		}
		mixed[i] = assembleFrom(updates, assign[i], g)
	}
	return mixed, assign, nil
}

// unitCount returns the number of mixing units per update at granularity g.
func unitCount(ps nn.ParamSet, g Granularity) (int, error) {
	switch g {
	case GranularityLayer:
		return len(ps.Layers), nil
	case GranularityTensor:
		n := 0
		for _, lp := range ps.Layers {
			n += len(lp.Tensors)
		}
		return n, nil
	case GranularityModel:
		return 1, nil
	default:
		return 0, fmt.Errorf("core: unknown granularity %d", int(g))
	}
}

// assembleFrom builds one outgoing update taking unit j from
// updates[srcs[j]]. Tensors are shared, not copied.
func assembleFrom(updates []nn.ParamSet, srcs []int, g Granularity) nn.ParamSet {
	template := updates[0]
	switch g {
	case GranularityModel:
		return updates[srcs[0]]
	case GranularityLayer:
		out := nn.ParamSet{Layers: make([]nn.LayerParams, len(template.Layers))}
		for j := range template.Layers {
			out.Layers[j] = updates[srcs[j]].Layers[j]
		}
		return out
	case GranularityTensor:
		out := nn.ParamSet{Layers: make([]nn.LayerParams, len(template.Layers))}
		u := 0
		for li, lp := range template.Layers {
			tensors := make([]*tensor.Tensor, len(lp.Tensors))
			for ti := range lp.Tensors {
				tensors[ti] = updates[srcs[u]].Layers[li].Tensors[ti]
				u++
			}
			out.Layers[li] = nn.LayerParams{Name: lp.Name, Tensors: tensors}
		}
		return out
	default:
		panic(fmt.Sprintf("core: unknown granularity %d", int(g)))
	}
}

// Transform adapts the batch mixer to the federated pipeline
// (it satisfies fl.UpdateTransform).
type Transform struct {
	// Granularity defaults to GranularityLayer (the paper's design).
	Granularity Granularity
}

// Name implements fl.UpdateTransform.
func (t Transform) Name() string { return "mixnn" }

// Apply implements fl.UpdateTransform.
func (t Transform) Apply(updates []nn.ParamSet, rng *rand.Rand) ([]nn.ParamSet, error) {
	g := t.Granularity
	if g == 0 {
		g = GranularityLayer
	}
	mixed, _, err := BatchMixAssignment(updates, rng, g)
	return mixed, err
}
