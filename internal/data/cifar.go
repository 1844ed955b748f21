package data

import (
	"fmt"
	"math"
	"math/rand"

	"mixnn/internal/tensor"
)

// CIFARConfig configures the synthetic CIFAR10 equivalent.
//
// The paper (§6.1.1): 10 classes, 20 participants split into three
// preference groups (6/6/8), each participant's profile composed of 80%
// images from its preferred classes and 20% random images from the other
// classes. The sensitive attribute is the preference group.
type CIFARConfig struct {
	H, W          int     // image size (default 32×32)
	Classes       int     // main-task classes (default 10)
	GroupSizes    []int   // participants per preference group (default 6,6,8)
	TrainPer      int     // training examples per participant (default 200)
	TestPer       int     // test examples per participant (default 40)
	PreferredFrac float64 // fraction drawn from preferred classes (default 0.8)
	Noise         float64 // pixel noise std (default 0.35)
	Seed          int64   // seed for the fixed class templates
}

func (c *CIFARConfig) fillDefaults() {
	setDefault(&c.H, 32)
	setDefault(&c.W, 32)
	setDefault(&c.Classes, 10)
	if c.GroupSizes == nil {
		c.GroupSizes = []int{6, 6, 8}
	}
	setDefault(&c.TrainPer, 200)
	setDefault(&c.TestPer, 40)
	if c.PreferredFrac == 0 {
		c.PreferredFrac = 0.8
	}
	if c.Noise == 0 {
		c.Noise = 0.35
	}
}

// CIFAR generates class-conditional pattern images: each class has a fixed
// smooth template (a sum of random spatial Gaussians per RGB channel) and
// samples are the template plus pixel noise. Non-IID participant profiles
// follow the paper's preference-group construction, which is what induces
// the per-group gradient footprint that ∇Sim detects.
type CIFAR struct {
	cfg       CIFARConfig
	templates []*tensor.Tensor // one [3*H*W] template per class
	groups    [][]int          // preferred classes per group
}

var _ Source = (*CIFAR)(nil)

// NewCIFAR builds the generator; class templates are derived from cfg.Seed.
func NewCIFAR(cfg CIFARConfig) *CIFAR {
	cfg.fillDefaults()
	g := &CIFAR{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5bd1e995))
	for c := 0; c < cfg.Classes; c++ {
		g.templates = append(g.templates, blobTemplate(rng, 3, cfg.H, cfg.W, 4))
	}
	// Partition the classes into one preferred set per group, round-robin,
	// so groups have disjoint ("specific and non overlapping") preferences.
	nGroups := len(cfg.GroupSizes)
	g.groups = make([][]int, nGroups)
	for c := 0; c < cfg.Classes; c++ {
		g.groups[c%nGroups] = append(g.groups[c%nGroups], c)
	}
	return g
}

// blobTemplate renders a smooth random pattern: per channel, a sum of k
// spatial Gaussians with random centres, widths and signed amplitudes.
func blobTemplate(rng *rand.Rand, ch, h, w, k int) *tensor.Tensor {
	t := tensor.New(ch * h * w)
	d := t.Data()
	for c := 0; c < ch; c++ {
		for b := 0; b < k; b++ {
			cx, cy := rng.Float64()*float64(w), rng.Float64()*float64(h)
			sx, sy := 2+rng.Float64()*float64(w)/3, 2+rng.Float64()*float64(h)/3
			amp := 0.4 + 0.6*rng.Float64()
			if rng.Intn(2) == 0 {
				amp = -amp
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					dx, dy := (float64(x)-cx)/sx, (float64(y)-cy)/sy
					d[(c*h+y)*w+x] += amp * math.Exp(-(dx*dx+dy*dy)/2)
				}
			}
		}
	}
	return t
}

// Name implements Source.
func (g *CIFAR) Name() string { return "cifar10" }

// Input implements Source.
func (g *CIFAR) Input() (int, int, int) { return 3, g.cfg.H, g.cfg.W }

// Classes implements Source.
func (g *CIFAR) Classes() int { return g.cfg.Classes }

// AttrClasses implements Source.
func (g *CIFAR) AttrClasses() int { return len(g.cfg.GroupSizes) }

// AttrName implements Source.
func (g *CIFAR) AttrName(a int) string { return fmt.Sprintf("preference-group-%d", a) }

// sampleClass draws one image of the given class.
func (g *CIFAR) sampleClass(class int, rng *rand.Rand, dst []float64) {
	td := g.templates[class].Data()
	for i := range dst {
		dst[i] = td[i] + rng.NormFloat64()*g.cfg.Noise
	}
}

// drawLabel samples a main-task label for a participant in the given group:
// preferred classes with probability PreferredFrac, otherwise uniform over
// the remaining classes.
func (g *CIFAR) drawLabel(group int, rng *rand.Rand) int {
	pref := g.groups[group]
	if rng.Float64() < g.cfg.PreferredFrac {
		return pref[rng.Intn(len(pref))]
	}
	isPref := make(map[int]bool, len(pref))
	for _, c := range pref {
		isPref[c] = true
	}
	for {
		c := rng.Intn(g.cfg.Classes)
		if !isPref[c] {
			return c
		}
	}
}

// sampleProfile generates n examples from a group's preference profile.
func (g *CIFAR) sampleProfile(group, n int, rng *rand.Rand) Dataset {
	dim := 3 * g.cfg.H * g.cfg.W
	ds := NewDataset(n, dim)
	for i := 0; i < n; i++ {
		ds.Y[i] = g.drawLabel(group, rng)
		g.sampleClass(ds.Y[i], rng, ds.X.Data()[i*dim:(i+1)*dim])
	}
	return ds
}

// Participants implements Source: the paper's 20 participants in three
// preference groups of 6/6/8.
func (g *CIFAR) Participants(seed int64) []Participant {
	var out []Participant
	id := 0
	for group, size := range g.cfg.GroupSizes {
		for k := 0; k < size; k++ {
			rng := rand.New(rand.NewSource(seed + int64(id)*7919))
			out = append(out, Participant{
				ID:        id,
				Attribute: group,
				Train:     g.sampleProfile(group, g.cfg.TrainPer, rng),
				Test:      g.sampleProfile(group, g.cfg.TestPer, rng),
			})
			id++
		}
	}
	return out
}

// Auxiliary implements Source: background knowledge drawn from the given
// preference group's profile.
func (g *CIFAR) Auxiliary(attr, n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9 + int64(attr)))
	return g.sampleProfile(attr, n, rng)
}

func setDefault(p *int, v int) {
	if *p == 0 {
		*p = v
	}
}
