package experiment

import (
	"fmt"

	"mixnn/internal/fl"
	"mixnn/internal/nn"
	"mixnn/internal/stats"
	"mixnn/internal/tensor"
)

// NeighbourResult is the outcome of the Figure 9 robustness analysis: for
// each participant, how many other participants produced a gradient within
// the given Euclidean radius in the same round. Many close neighbours mean
// a malicious server cannot re-associate mixed layers by update proximity.
// DefaultNeighbourRadius is the Euclidean threshold on unit-normalised
// update directions. The paper uses 0.5 in its raw coordinate scale; after
// unit normalisation two directions are within 1.0 exactly when their
// cosine similarity is at least 0.5, which is the scale-free analogue
// (orthogonal directions sit at sqrt(2) ≈ 1.41).
const DefaultNeighbourRadius = 1.0

type NeighbourResult struct {
	Dataset string
	// Radius is the Euclidean threshold applied to unit-normalised update
	// directions.
	Radius float64
	// Neighbours[i] counts participants within Radius of participant i.
	Neighbours []int
	// CDF is the cumulative distribution over participants.
	CDF []stats.Point
}

// RunNeighbours executes the Figure 9 experiment: one honest federated
// round, then pairwise distances between the participants' update
// directions. Directions are normalised to unit L2 norm so the radius is
// scale-free (the paper's absolute 0.5 presumes its fixed model scale; see
// DefaultNeighbourRadius).
func RunNeighbours(spec DatasetSpec, radius float64, seed int64) (NeighbourResult, error) {
	if radius <= 0 {
		radius = DefaultNeighbourRadius
	}
	sim, _, err := BuildFederation(spec, Arm{Key: "fl", Transform: fl.Identity{}}, seed)
	if err != nil {
		return NeighbourResult{}, err
	}
	global := sim.Server.Global()

	// One round of local training, observing the raw (unmixed) updates.
	rec := &captureObserver{}
	sim.Observer = rec
	if _, err := sim.RunRound(0); err != nil {
		return NeighbourResult{}, fmt.Errorf("experiment: neighbours %s: %w", spec.Key, err)
	}

	dirs := make([]*tensor.Tensor, len(rec.updates))
	for i, u := range rec.updates {
		d := u.Clone().Sub(global).Flatten()
		if n := d.Norm(); n > 0 {
			d.Scale(1 / n)
		}
		dirs[i] = d
	}

	res := NeighbourResult{Dataset: spec.Key, Radius: radius, Neighbours: make([]int, len(dirs))}
	for i := range dirs {
		for j := range dirs {
			if i == j {
				continue
			}
			if tensor.EuclideanDistance(dirs[i], dirs[j]) <= radius {
				res.Neighbours[i]++
			}
		}
	}
	counts := make([]float64, len(res.Neighbours))
	for i, n := range res.Neighbours {
		counts[i] = float64(n)
	}
	res.CDF = stats.CDF(counts)
	return res, nil
}

// captureObserver records the updates of the observed round.
type captureObserver struct{ updates []nn.ParamSet }

var _ fl.Observer = (*captureObserver)(nil)

// ObserveRound implements fl.Observer. Updates are only lent for the call
// (fl.RoundRecord), so what outlives it is a deep copy.
func (c *captureObserver) ObserveRound(rec fl.RoundRecord) {
	c.updates = make([]nn.ParamSet, len(rec.Updates))
	for i, u := range rec.Updates {
		c.updates[i] = u.Clone()
	}
}
