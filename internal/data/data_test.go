package data

import (
	"math/rand"
	"testing"

	"mixnn/internal/tensor"
)

func TestDatasetBatchGathersRows(t *testing.T) {
	ds := NewDataset(3, 2)
	copy(ds.X.Data(), []float64{1, 2, 3, 4, 5, 6})
	ds.Y[0], ds.Y[1], ds.Y[2] = 7, 8, 9

	x, y := ds.Batch([]int{2, 0})
	wantX := tensor.MustFromSlice([]float64{5, 6, 1, 2}, 2, 2)
	if !tensor.Equal(x, wantX) {
		t.Fatalf("Batch X = %v, want %v", x, wantX)
	}
	if y[0] != 9 || y[1] != 7 {
		t.Fatalf("Batch Y = %v, want [9 7]", y)
	}
}

func TestDatasetSplitSizes(t *testing.T) {
	ds := NewDataset(12, 1)
	rng := rand.New(rand.NewSource(1))
	train, test := ds.Split(5.0/6, rng)
	if train.Len() != 10 || test.Len() != 2 {
		t.Fatalf("split sizes = %d/%d, want 10/2", train.Len(), test.Len())
	}
}

func TestDatasetSplitPanicsOnBadFrac(t *testing.T) {
	ds := NewDataset(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on frac > 1")
		}
	}()
	ds.Split(1.5, rand.New(rand.NewSource(1)))
}

func TestDatasetShufflePreservesPairs(t *testing.T) {
	n := 50
	ds := NewDataset(n, 1)
	for i := 0; i < n; i++ {
		ds.X.Data()[i] = float64(i)
		ds.Y[i] = i
	}
	ds.Shuffle(rand.New(rand.NewSource(2)))
	for i := 0; i < n; i++ {
		if int(ds.X.Data()[i]) != ds.Y[i] {
			t.Fatalf("row %d: X %g decoupled from Y %d", i, ds.X.Data()[i], ds.Y[i])
		}
	}
}

func TestMerge(t *testing.T) {
	a := NewDataset(2, 3)
	b := NewDataset(1, 3)
	b.Y[0] = 5
	m := Merge(a, b)
	if m.Len() != 3 || m.Dim() != 3 {
		t.Fatalf("merged %dx%d, want 3x3", m.Len(), m.Dim())
	}
	if m.Y[2] != 5 {
		t.Fatalf("labels not concatenated: %v", m.Y)
	}
}

func TestMergePanicsOnWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on width mismatch")
		}
	}()
	Merge(NewDataset(1, 2), NewDataset(1, 3))
}

func TestBatchesCoverDataset(t *testing.T) {
	ds := NewDataset(10, 1)
	batches := ds.Batches(3, rand.New(rand.NewSource(3)))
	if len(batches) != 4 {
		t.Fatalf("batch count = %d, want 4", len(batches))
	}
	seen := make(map[int]bool)
	for _, b := range batches {
		for _, i := range b {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("covered %d indices, want 10", len(seen))
	}
}

// nearestCentroidAccuracy is a weak learner used to verify the synthetic
// tasks are learnable: train per-class centroids, classify by distance.
func nearestCentroidAccuracy(train, test Dataset, classes int) float64 {
	dim := train.Dim()
	centroids := make([]*tensor.Tensor, classes)
	counts := make([]int, classes)
	for c := range centroids {
		centroids[c] = tensor.New(dim)
	}
	for i := 0; i < train.Len(); i++ {
		row, _ := tensor.FromSlice(train.X.Data()[i*dim:(i+1)*dim], dim)
		centroids[train.Y[i]].Add(row)
		counts[train.Y[i]]++
	}
	for c := range centroids {
		if counts[c] > 0 {
			centroids[c].Scale(1 / float64(counts[c]))
		}
	}
	correct := 0
	for i := 0; i < test.Len(); i++ {
		row, _ := tensor.FromSlice(test.X.Data()[i*dim:(i+1)*dim], dim)
		best, bestD := -1, 0.0
		for c := range centroids {
			d := tensor.EuclideanDistance(row, centroids[c])
			if best < 0 || d < bestD {
				best, bestD = c, d
			}
		}
		if best == test.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(test.Len())
}

func testSourceBasics(t *testing.T, src Source, wantParticipants int) {
	t.Helper()
	c, h, w := src.Input()
	dim := c * h * w

	parts := src.Participants(1)
	if len(parts) != wantParticipants {
		t.Fatalf("%s: %d participants, want %d", src.Name(), len(parts), wantParticipants)
	}
	attrSeen := make(map[int]bool)
	for _, p := range parts {
		if p.Attribute < 0 || p.Attribute >= src.AttrClasses() {
			t.Fatalf("%s: attribute %d out of range", src.Name(), p.Attribute)
		}
		attrSeen[p.Attribute] = true
		if p.Train.Dim() != dim || p.Test.Dim() != dim {
			t.Fatalf("%s: dims %d/%d, want %d", src.Name(), p.Train.Dim(), p.Test.Dim(), dim)
		}
		for _, y := range p.Train.Y {
			if y < 0 || y >= src.Classes() {
				t.Fatalf("%s: label %d out of range [0,%d)", src.Name(), y, src.Classes())
			}
		}
	}
	if len(attrSeen) != src.AttrClasses() {
		t.Fatalf("%s: only %d of %d attribute classes present", src.Name(), len(attrSeen), src.AttrClasses())
	}
	for a := 0; a < src.AttrClasses(); a++ {
		if src.AttrName(a) == "" {
			t.Fatalf("%s: empty attribute name for class %d", src.Name(), a)
		}
	}

	// Determinism: same seed, same data.
	again := src.Participants(1)
	if !tensor.Equal(parts[0].Train.X, again[0].Train.X) {
		t.Fatalf("%s: participants not deterministic", src.Name())
	}
	other := src.Participants(2)
	if tensor.Equal(parts[0].Train.X, other[0].Train.X) {
		t.Fatalf("%s: different seeds produced identical data", src.Name())
	}

	aux := src.Auxiliary(0, 30, 9)
	if aux.Len() != 30 || aux.Dim() != dim {
		t.Fatalf("%s: auxiliary %dx%d, want 30x%d", src.Name(), aux.Len(), aux.Dim(), dim)
	}
}

func TestCIFARSource(t *testing.T) {
	src := NewCIFAR(CIFARConfig{H: 16, W: 16, TrainPer: 40, TestPer: 10})
	testSourceBasics(t, src, 20)

	// The paper's group sizes: 6/6/8.
	parts := src.Participants(1)
	counts := make(map[int]int)
	for _, p := range parts {
		counts[p.Attribute]++
	}
	if counts[0] != 6 || counts[1] != 6 || counts[2] != 8 {
		t.Fatalf("group sizes = %v, want 6/6/8", counts)
	}

	// Preference skew: ~80% of a participant's labels in its group classes.
	groups := src.groups
	for _, p := range parts[:3] {
		pref := make(map[int]bool)
		for _, c := range groups[p.Attribute] {
			pref[c] = true
		}
		inPref := 0
		for _, y := range p.Train.Y {
			if pref[y] {
				inPref++
			}
		}
		frac := float64(inPref) / float64(len(p.Train.Y))
		if frac < 0.6 || frac > 0.95 {
			t.Fatalf("participant %d preferred fraction = %g, want ~0.8", p.ID, frac)
		}
	}

	// Main task learnable: nearest centroid far above the 10% chance level.
	train := Merge(parts[0].Train, parts[6].Train, parts[12].Train)
	test := Merge(parts[0].Test, parts[6].Test, parts[12].Test)
	if acc := nearestCentroidAccuracy(train, test, src.Classes()); acc < 0.5 {
		t.Fatalf("CIFAR nearest-centroid accuracy = %g, want > 0.5", acc)
	}
}

func TestCIFARGroupsDisjoint(t *testing.T) {
	src := NewCIFAR(CIFARConfig{})
	seen := make(map[int]int)
	for gi, g := range src.groups {
		for _, c := range g {
			if prev, ok := seen[c]; ok {
				t.Fatalf("class %d in groups %d and %d", c, prev, gi)
			}
			seen[c] = gi
		}
	}
	if len(seen) != src.Classes() {
		t.Fatalf("groups cover %d classes, want %d", len(seen), src.Classes())
	}
}

func TestMotionSenseSource(t *testing.T) {
	cfg := MotionSenseConfig()
	cfg.TrainPer, cfg.TestPer = 60, 12
	src := NewMotion(cfg)
	testSourceBasics(t, src, 24)

	// Activity recognition learnable above the ~17% chance level.
	parts := src.Participants(1)
	train := Merge(parts[0].Train, parts[1].Train)
	test := Merge(parts[0].Test, parts[1].Test)
	if acc := nearestCentroidAccuracy(train, test, src.Classes()); acc < 0.4 {
		t.Fatalf("motion nearest-centroid accuracy = %g, want > 0.4", acc)
	}
}

func TestMobiActSource(t *testing.T) {
	cfg := MobiActConfig()
	cfg.TrainPer, cfg.TestPer = 30, 6
	src := NewMotion(cfg)
	testSourceBasics(t, src, 58)
	if src.Name() != "mobiact" {
		t.Fatalf("name = %q", src.Name())
	}
	if _, _, w := src.Input(); w != 64 {
		t.Fatalf("window = %d, want 64", w)
	}
}

func TestMotionGenderFootprint(t *testing.T) {
	// Auxiliary data of the two genders must differ systematically: the
	// mean absolute amplitude of gait activities shifts by genderAmp.
	src := NewMotion(MotionConfig{TrainPer: 10, TestPer: 2})
	a0 := src.Auxiliary(0, 200, 5)
	a1 := src.Auxiliary(1, 200, 5)
	mean := func(d Dataset) float64 {
		s := 0.0
		for _, v := range d.X.Data() {
			if v < 0 {
				s -= v
			} else {
				s += v
			}
		}
		return s / float64(len(d.X.Data()))
	}
	m0, m1 := mean(a0), mean(a1)
	if m0 <= m1 {
		t.Fatalf("male mean |x| %g not greater than female %g (amplitude footprint missing)", m0, m1)
	}
}

func TestFacesSource(t *testing.T) {
	src := NewFaces(FacesConfig{TrainPer: 40, TestPer: 8})
	testSourceBasics(t, src, 20)

	// Smile detection learnable above the 50% chance level.
	parts := src.Participants(1)
	train := Merge(parts[0].Train, parts[1].Train)
	test := Merge(parts[0].Test, parts[1].Test)
	if acc := nearestCentroidAccuracy(train, test, 2); acc < 0.7 {
		t.Fatalf("faces nearest-centroid accuracy = %g, want > 0.7", acc)
	}
}

func TestFacesGenderFootprint(t *testing.T) {
	// Gender must be visible in the image distribution (hair band rows):
	// a nearest-centroid classifier on gender should beat chance easily.
	src := NewFaces(FacesConfig{})
	a0 := src.Auxiliary(0, 100, 3)
	a1 := src.Auxiliary(1, 100, 3)
	train := Merge(a0.Subset(seqInts(0, 80)), a1.Subset(seqInts(0, 80)))
	for i := 0; i < 80; i++ {
		train.Y[i] = 0
		train.Y[80+i] = 1
	}
	test := Merge(a0.Subset(seqInts(80, 100)), a1.Subset(seqInts(80, 100)))
	for i := 0; i < 20; i++ {
		test.Y[i] = 0
		test.Y[20+i] = 1
	}
	if acc := nearestCentroidAccuracy(train, test, 2); acc < 0.8 {
		t.Fatalf("gender centroid accuracy = %g, want > 0.8", acc)
	}
}

func seqInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
