package data

import (
	"fmt"
	"math"
	"math/rand"
)

// MotionConfig configures the synthetic motion-sensor dataset used as the
// MotionSense / MobiAct substitute. Examples are windows of 6-channel
// inertial signal (3-axis accelerometer + 3-axis gyroscope) laid out as a
// 1×6×T volume. The main task is activity recognition over the paper's six
// activities; the sensitive attribute is gender.
type MotionConfig struct {
	DatasetName  string  // "motionsense" or "mobiact"
	SampleRate   float64 // Hz: 50 (MotionSense) or 20 (MobiAct)
	T            int     // window length in samples (default 64)
	Participants int     // population size: 24 (MotionSense) or 58 (MobiAct)
	TrainPer     int     // training windows per participant (default 240)
	TestPer      int     // test windows per participant (default 48)
	Noise        float64 // sensor noise std (default 0.15)
	Seed         int64   // seed for activity signatures
}

// MotionSenseConfig returns the MotionSense-shaped configuration
// (50 Hz, 24 participants).
func MotionSenseConfig() MotionConfig {
	return MotionConfig{DatasetName: "motionsense", SampleRate: 50, Participants: 24}
}

// MobiActConfig returns the MobiAct-shaped configuration
// (20 Hz, 58 participants).
func MobiActConfig() MotionConfig {
	return MotionConfig{DatasetName: "mobiact", SampleRate: 20, Participants: 58}
}

func (c *MotionConfig) fillDefaults() {
	if c.DatasetName == "" {
		c.DatasetName = "motionsense"
	}
	if c.SampleRate == 0 {
		c.SampleRate = 50
	}
	setDefault(&c.T, 64)
	setDefault(&c.Participants, 24)
	setDefault(&c.TrainPer, 240)
	setDefault(&c.TestPer, 48)
	if c.Noise == 0 {
		c.Noise = 0.15
	}
}

// activities are the six MotionSense/MobiAct activities shared by both
// datasets (§6.1.1). Gait frequency (Hz) and amplitude are loosely modelled
// on human locomotion; static activities carry orientation information only.
var motionActivities = []struct {
	name string
	freq float64 // dominant gait frequency in Hz
	amp  float64
}{
	{"downstairs", 1.6, 1.1},
	{"upstairs", 1.3, 1.0},
	{"walking", 1.0, 0.8},
	{"jogging", 2.4, 1.6},
	{"sitting", 0, 0.04},
	{"standing", 0, 0.03},
}

// Motion generates harmonic 6-channel windows. The gender attribute scales
// gait frequency (+8%) and amplitude (−15%) and shifts the orientation
// bias — a synthetic stand-in for the systematic gait differences the real
// datasets carry, producing the same kind of distribution shift that ∇Sim's
// gradient fingerprinting exploits.
type Motion struct {
	cfg MotionConfig
	// chanGain/chanPhase give each of the 6 sensor channels its own
	// response to the gait oscillation.
	chanGain  [6]float64
	chanPhase [6]float64
	// orient[activity][channel] is the gravity/orientation bias.
	orient [][6]float64
}

var _ Source = (*Motion)(nil)

// NewMotion builds a generator; activity signatures derive from cfg.Seed.
func NewMotion(cfg MotionConfig) *Motion {
	cfg.fillDefaults()
	g := &Motion{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x51ed2701))
	for k := 0; k < 6; k++ {
		g.chanGain[k] = 0.5 + rng.Float64()
		g.chanPhase[k] = rng.Float64() * 2 * math.Pi
	}
	g.orient = make([][6]float64, len(motionActivities))
	for a := range motionActivities {
		for k := 0; k < 6; k++ {
			g.orient[a][k] = rng.NormFloat64() * 0.5
		}
	}
	return g
}

// Name implements Source.
func (g *Motion) Name() string { return g.cfg.DatasetName }

// Input implements Source.
func (g *Motion) Input() (int, int, int) { return 1, 6, g.cfg.T }

// Classes implements Source.
func (g *Motion) Classes() int { return len(motionActivities) }

// AttrClasses implements Source.
func (g *Motion) AttrClasses() int { return 2 }

// AttrName implements Source.
func (g *Motion) AttrName(a int) string {
	if a == 0 {
		return "male"
	}
	return "female"
}

// subjectTraits holds per-subject variability so participants of the same
// gender still differ from one another.
type subjectTraits struct {
	gain, freqScale float64
	phase           float64
}

func drawTraits(rng *rand.Rand) subjectTraits {
	return subjectTraits{
		gain:      0.9 + 0.2*rng.Float64(),
		freqScale: 0.95 + 0.1*rng.Float64(),
		phase:     rng.Float64() * 2 * math.Pi,
	}
}

// genderFreq and genderAmp encode the synthetic attribute footprint:
// higher step frequency and lower amplitude for gender class 1. The
// magnitudes are chosen so that ∇Sim's gradient fingerprinting reaches the
// paper's reported leakage levels on an unprotected pipeline (§6.3).
func genderFreq(gender int) float64 {
	if gender == 1 {
		return 1.15
	}
	return 1.0
}

func genderAmp(gender int) float64 {
	if gender == 1 {
		return 0.72
	}
	return 1.0
}

// sampleWindow writes one 6×T window of the given activity into dst.
func (g *Motion) sampleWindow(activity, gender int, tr subjectTraits, rng *rand.Rand, dst []float64) {
	act := motionActivities[activity]
	f := act.freq * genderFreq(gender) * tr.freqScale
	a := act.amp * genderAmp(gender) * tr.gain
	dt := 1 / g.cfg.SampleRate
	for k := 0; k < 6; k++ {
		// Gender also tilts the orientation bias (posture shift).
		bias := g.orient[activity][k] * (1 + 0.25*float64(gender))
		for t := 0; t < g.cfg.T; t++ {
			ts := float64(t) * dt
			v := bias + rng.NormFloat64()*g.cfg.Noise
			if f > 0 {
				w := 2 * math.Pi * f * ts
				v += a * g.chanGain[k] * math.Sin(w+tr.phase+g.chanPhase[k])
				v += 0.4 * a * g.chanGain[k] * math.Sin(2*w+tr.phase+2*g.chanPhase[k])
			}
			dst[k*g.cfg.T+t] = v
		}
	}
}

// sampleSubject generates n windows with uniformly-drawn activities for a
// subject of the given gender.
func (g *Motion) sampleSubject(gender, n int, tr subjectTraits, rng *rand.Rand) Dataset {
	dim := 6 * g.cfg.T
	ds := NewDataset(n, dim)
	for i := 0; i < n; i++ {
		ds.Y[i] = rng.Intn(len(motionActivities))
		g.sampleWindow(ds.Y[i], gender, tr, rng, ds.X.Data()[i*dim:(i+1)*dim])
	}
	return ds
}

// Participants implements Source; genders alternate so the population is
// balanced as in the paper's datasets.
func (g *Motion) Participants(seed int64) []Participant {
	out := make([]Participant, 0, g.cfg.Participants)
	for id := 0; id < g.cfg.Participants; id++ {
		rng := rand.New(rand.NewSource(seed + int64(id)*6151))
		gender := id % 2
		tr := drawTraits(rng)
		out = append(out, Participant{
			ID:        id,
			Attribute: gender,
			Train:     g.sampleSubject(gender, g.cfg.TrainPer, tr, rng),
			Test:      g.sampleSubject(gender, g.cfg.TestPer, tr, rng),
		})
	}
	return out
}

// Auxiliary implements Source: windows from fresh subjects of the given
// gender (disjoint from the federated population by seed separation).
func (g *Motion) Auxiliary(attr, n int, seed int64) Dataset {
	if attr < 0 || attr >= 2 {
		panic(fmt.Sprintf("data: motion attribute %d outside [0,2)", attr))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x2545f491 + int64(attr)))
	// Blend several auxiliary subjects so the reference model captures the
	// gender-level (not subject-level) signal.
	const auxSubjects = 4
	parts := make([]Dataset, 0, auxSubjects)
	per := (n + auxSubjects - 1) / auxSubjects
	for s := 0; s < auxSubjects; s++ {
		tr := drawTraits(rng)
		parts = append(parts, g.sampleSubject(attr, per, tr, rng))
	}
	merged := Merge(parts...)
	return merged.Subset(rng.Perm(merged.Len())[:n])
}
