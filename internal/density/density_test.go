package density

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
)

func mapOf(t *testing.T, nx, ny int, vals ...float64) *grid.Map {
	t.Helper()
	g, err := grid.New(geom.R(0, 0, int64(nx)*10, int64(ny)*10), 10)
	if err != nil {
		t.Fatal(err)
	}
	m := grid.NewMap(g)
	copy(m.V, vals)
	return m
}

func TestVariationUniform(t *testing.T) {
	m := mapOf(t, 2, 2, 0.5, 0.5, 0.5, 0.5)
	if v := Variation(m); v != 0 {
		t.Fatalf("uniform variation = %v, want 0", v)
	}
}

func TestVariationKnown(t *testing.T) {
	// Values 0 and 1 half/half: σ = 0.5.
	m := mapOf(t, 2, 1, 0, 1)
	if v := Variation(m); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("variation = %v, want 0.5", v)
	}
}

func TestLineHotspotsColumnStructure(t *testing.T) {
	// 2 columns × 2 rows. Column 0: (0.2, 0.4) → col mean 0.3, deviations
	// 0.1+0.1. Column 1: (0.5, 0.5) → 0. lh = 0.2.
	g, _ := grid.New(geom.R(0, 0, 20, 20), 10)
	m := grid.NewMap(g)
	m.Set(0, 0, 0.2)
	m.Set(0, 1, 0.4)
	m.Set(1, 0, 0.5)
	m.Set(1, 1, 0.5)
	if lh := LineHotspots(m); math.Abs(lh-0.2) > 1e-12 {
		t.Fatalf("lh = %v, want 0.2", lh)
	}
}

func TestLineHotspotsInsensitiveToColumnShift(t *testing.T) {
	// Adding a constant to an entire column does not change lh.
	g, _ := grid.New(geom.R(0, 0, 30, 30), 10)
	m := grid.NewMap(g)
	rng := rand.New(rand.NewSource(3))
	for k := range m.V {
		m.V[k] = rng.Float64()
	}
	base := LineHotspots(m)
	for j := 0; j < g.NY; j++ {
		m.Add(1, j, 0.37)
	}
	if got := LineHotspots(m); math.Abs(got-base) > 1e-9 {
		t.Fatalf("lh changed by column shift: %v -> %v", base, got)
	}
}

func TestOutlierHotspots(t *testing.T) {
	// Nearly uniform map with one extreme spike: σ small, spike deviates
	// beyond 3σ → positive outlier score.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 0.5
	}
	vals[0] = 0.9
	m := mapOf(t, 10, 10, vals...)
	if oh := OutlierHotspots(m); oh <= 0 {
		t.Fatalf("spiked map outlier = %v, want > 0", oh)
	}
	// Uniform: zero.
	for i := range vals {
		vals[i] = 0.5
	}
	m2 := mapOf(t, 10, 10, vals...)
	if oh := OutlierHotspots(m2); oh != 0 {
		t.Fatalf("uniform outlier = %v, want 0", oh)
	}
}

func TestQuickVariationShiftInvariant(t *testing.T) {
	f := func(seed int64, shiftQ uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g, _ := grid.New(geom.R(0, 0, 40, 40), 10)
		m := grid.NewMap(g)
		for k := range m.V {
			m.V[k] = rng.Float64()
		}
		base := Variation(m)
		shift := float64(shiftQ) / 64
		for k := range m.V {
			m.V[k] += shift
		}
		return math.Abs(Variation(m)-base) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func boundsOf(t *testing.T, lower, upper []float64, nx, ny int) LayerBounds {
	t.Helper()
	return LayerBounds{
		Lower: mapOf(t, nx, ny, lower...),
		Upper: mapOf(t, nx, ny, upper...),
	}
}

var testWeights = PlanWeights{
	AlphaVar: 0.2, BetaVar: 0.5,
	AlphaLine: 0.2, BetaLine: 5,
	AlphaOutlier: 0.15, BetaOutlier: 1,
}

func TestRealizeClamping(t *testing.T) {
	b := boundsOf(t, []float64{0.2, 0.6}, []float64{0.5, 0.9}, 2, 1)
	m := Realize(b, 0.4)
	if m.V[0] != 0.4 { // within range
		t.Fatalf("window 0 = %v, want 0.4", m.V[0])
	}
	if m.V[1] != 0.6 { // td below lower bound → lower
		t.Fatalf("window 1 = %v, want 0.6", m.V[1])
	}
	m = Realize(b, 0.95)
	if m.V[0] != 0.5 || m.V[1] != 0.9 { // clamped to uppers
		t.Fatalf("clamped = %v", m.V)
	}
}

func TestPlanCaseITrivial(t *testing.T) {
	// All windows can reach the max wire density 0.6 → perfect uniformity.
	b := boundsOf(t,
		[]float64{0.2, 0.6, 0.3, 0.4},
		[]float64{0.8, 0.9, 0.7, 0.8}, 2, 2)
	plan, err := PlanTargets([]LayerBounds{b}, testWeights, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Td[0]-0.6) > 1e-9 {
		t.Fatalf("Case I target = %v, want 0.6", plan.Td[0])
	}
	real := Realize(b, plan.Td[0])
	if Variation(real) != 0 {
		t.Fatalf("Case I must be perfectly uniform, σ = %v", Variation(real))
	}
}

func TestPlanCaseIISearch(t *testing.T) {
	// One window is capped at 0.5 while max wire density is 0.8: planning
	// must pick a target in the contested band and beat the naive
	// td=maxLower plan or match it.
	b := boundsOf(t,
		[]float64{0.1, 0.8, 0.1, 0.1},
		[]float64{0.5, 0.9, 0.9, 0.9}, 2, 2)
	plan, err := PlanTargets([]LayerBounds{b}, testWeights, 32)
	if err != nil {
		t.Fatal(err)
	}
	naive := DensityScore([]*grid.Map{Realize(b, 0.8)}, testWeights)
	if plan.Score+1e-12 < naive {
		t.Fatalf("planned score %v worse than naive %v", plan.Score, naive)
	}
	if plan.Td[0] < 0.5-1e-9 || plan.Td[0] > 0.8+1e-9 {
		t.Fatalf("Case II target %v outside contested band [0.5,0.8]", plan.Td[0])
	}
}

func TestPlanMultiLayerJoint(t *testing.T) {
	b1 := boundsOf(t, []float64{0.3, 0.3}, []float64{0.9, 0.9}, 2, 1)
	b2 := boundsOf(t, []float64{0.1, 0.7}, []float64{0.4, 0.8}, 2, 1)
	plan, err := PlanTargets([]LayerBounds{b1, b2}, testWeights, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Td) != 2 {
		t.Fatalf("want 2 targets, got %v", plan.Td)
	}
	if plan.Td[0] != 0.3 {
		t.Fatalf("layer 1 is Case I with maxLower 0.3, got %v", plan.Td[0])
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := PlanTargets(nil, testWeights, 8); err == nil {
		t.Fatal("no layers must error")
	}
	bad := boundsOf(t, []float64{0.9}, []float64{0.1}, 1, 1)
	if _, err := PlanTargets([]LayerBounds{bad}, testWeights, 8); err == nil {
		t.Fatal("lower > upper must error")
	}
}

func TestDensityScoreMonotoneInBeta(t *testing.T) {
	m := mapOf(t, 2, 1, 0.2, 0.8)
	w1 := testWeights
	w2 := testWeights
	w2.BetaVar *= 10
	if DensityScore([]*grid.Map{m}, w2) < DensityScore([]*grid.Map{m}, w1) {
		t.Fatal("larger β must not decrease the score")
	}
}

// Realize applies Eqn. (5): each window's planned density is the target
// density td clamped into the window's feasible [l,u] range.
func Realize(b LayerBounds, td float64) *grid.Map {
	out := grid.NewMap(b.Lower.G)
	for k, l := range b.Lower.V {
		u := b.Upper.V[k]
		switch {
		case td < l:
			out.V[k] = l
		case td > u:
			out.V[k] = u
		default:
			out.V[k] = td
		}
	}
	return out
}

// DensityScore evaluates the combined density score of one realized
// density map per layer under w. Per Eqn. (3): variation and line-hotspot
// raw values are summed across layers; the outlier component uses
// Σσ(l)·Σoh(l).
func DensityScore(maps []*grid.Map, w PlanWeights) float64 {
	var sumSigma, sumLine, sumOut float64
	for _, m := range maps {
		met := Measure(m)
		sumSigma += met.Sigma
		sumLine += met.Line
		sumOut += met.Outlier
	}
	return w.AlphaVar*F(sumSigma, w.BetaVar) +
		w.AlphaLine*F(sumLine, w.BetaLine) +
		w.AlphaOutlier*F(sumSigma*sumOut, w.BetaOutlier)
}
