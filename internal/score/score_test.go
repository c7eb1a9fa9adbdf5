package score

import (
	"math"
	"testing"

	"dummyfill/internal/density"
	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

func TestF(t *testing.T) {
	cases := []struct {
		x, beta, want float64
	}{
		{0, 10, 1},
		{5, 10, 0.5},
		{10, 10, 0},
		{20, 10, 0},   // clamped at 0
		{5, 0, 0},     // degenerate β
		{-5, 10, 1.5}, // negative raw values can exceed 1 (not used in practice)
	}
	for _, c := range cases {
		if got := density.F(c.x, c.beta); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("F(%v,%v) = %v, want %v", c.x, c.beta, got, c.want)
		}
	}
}

func TestContestAlphasSumToOne(t *testing.T) {
	c := ContestAlphas()
	sum := c.AlphaOverlay + c.AlphaVar + c.AlphaLine + c.AlphaOutlier +
		c.AlphaSize + c.AlphaRuntime + c.AlphaMemory
	if math.Abs(sum-1.0) > 1e-12 {
		t.Fatalf("α sum = %v, want 1.0", sum)
	}
}

func testCoeffs() Coefficients {
	c := ContestAlphas()
	c.BetaOverlay = 1000
	c.BetaVar = 0.5
	c.BetaLine = 10
	c.BetaOutlier = 1
	c.BetaSize = 1
	c.BetaRuntime = 60
	c.BetaMemory = 1024
	return c
}

func TestScoreQualityExcludesRuntimeMemory(t *testing.T) {
	raw := Raw{Overlay: 500, SumSigma: 0.25, SumLine: 5, SumOutlier: 0.5,
		FileSizeB: 1 << 19, RuntimeSec: 30, MemoryMiB: 512}
	c := testCoeffs()
	r := Score(raw, c)
	wantQuality := 0.2*0.5 + 0.2*0.5 + 0.2*0.5 + 0.15*(1-0.25*0.5/1) + 0.05*0.5
	if math.Abs(r.Quality-wantQuality) > 1e-12 {
		t.Fatalf("quality = %v, want %v", r.Quality, wantQuality)
	}
	wantTotal := wantQuality + 0.15*0.5 + 0.05*0.5
	if math.Abs(r.Total-wantTotal) > 1e-12 {
		t.Fatalf("total = %v, want %v", r.Total, wantTotal)
	}
	if r.String() == "" {
		t.Fatal("String must render")
	}
}

// twoLayerLayout builds a deterministic 2-layer layout for overlay and
// density measurement tests.
func twoLayerLayout() *layout.Layout {
	return &layout.Layout{
		Name:   "ov",
		Die:    geom.R(0, 0, 100, 100),
		Window: 50,
		Rules:  layout.Rules{MinWidth: 2, MinSpace: 2, MinArea: 4},
		Layers: []*layout.Layer{
			{
				Wires:       []geom.Rect{geom.R(0, 0, 20, 20)},
				FillRegions: []geom.Rect{geom.R(30, 30, 100, 100)},
			},
			{
				Wires:       []geom.Rect{geom.R(40, 40, 60, 60)},
				FillRegions: []geom.Rect{geom.R(0, 0, 30, 30)},
			},
		},
	}
}

func TestOverlayAreasFillVsWire(t *testing.T) {
	lay := twoLayerLayout()
	// One fill on layer 0 overlapping the layer-1 wire by 10x10.
	sol := &layout.Solution{Fills: []layout.Fill{
		{Layer: 0, Rect: geom.R(30, 30, 50, 50)},
	}}
	ovs := OverlayAreas(lay, sol)
	if len(ovs) != 1 {
		t.Fatalf("expected 1 layer pair, got %d", len(ovs))
	}
	if ovs[0] != 100 {
		t.Fatalf("overlay = %d, want 100", ovs[0])
	}
}

func TestOverlayAreasWireVsFill(t *testing.T) {
	lay := twoLayerLayout()
	// Fill on layer 1 under the layer-0 wire: counted via wires(l)∩fills(l+1).
	sol := &layout.Solution{Fills: []layout.Fill{
		{Layer: 1, Rect: geom.R(10, 10, 30, 30)},
	}}
	if ov := TotalOverlay(lay, sol); ov != 100 {
		t.Fatalf("overlay = %d, want 100", ov)
	}
}

func TestOverlayFillVsFill(t *testing.T) {
	lay := twoLayerLayout()
	sol := &layout.Solution{Fills: []layout.Fill{
		{Layer: 0, Rect: geom.R(30, 30, 40, 40)},
		{Layer: 1, Rect: geom.R(25, 25, 30, 30)}, // no overlap with above fill
		{Layer: 1, Rect: geom.R(0, 0, 5, 5)},     // under layer-0 wire: 25
	}}
	// fill(0) 30..40 vs fills(1): no overlap (25..30 touches only).
	// wires(0) 0..20 vs fill(1) 0..5 → 25.
	if ov := TotalOverlay(lay, sol); ov != 25 {
		t.Fatalf("overlay = %d, want 25", ov)
	}
}

func TestOverlayWireWireNotCharged(t *testing.T) {
	lay := twoLayerLayout()
	lay.Layers[0].Wires = []geom.Rect{geom.R(40, 40, 60, 60)} // directly under layer-1 wire
	lay.Layers[0].FillRegions = nil
	sol := &layout.Solution{}
	if ov := TotalOverlay(lay, sol); ov != 0 {
		t.Fatalf("wire-wire overlap charged: %d", ov)
	}
}

func TestMeasureDensityUniformFill(t *testing.T) {
	lay := &layout.Layout{
		Name:   "uni",
		Die:    geom.R(0, 0, 100, 100),
		Window: 50,
		Rules:  layout.Rules{MinWidth: 2, MinSpace: 2, MinArea: 4},
		Layers: []*layout.Layer{{
			FillRegions: []geom.Rect{geom.R(0, 0, 100, 100)},
		}},
	}
	// Fill each window with the same 10x10 fill → perfectly uniform.
	sol := &layout.Solution{Fills: []layout.Fill{
		{Layer: 0, Rect: geom.R(0, 0, 10, 10)},
		{Layer: 0, Rect: geom.R(50, 0, 60, 10)},
		{Layer: 0, Rect: geom.R(0, 50, 10, 60)},
		{Layer: 0, Rect: geom.R(50, 50, 60, 60)},
	}}
	ss, sl, so, maps, err := MeasureDensity(lay, sol)
	if err != nil {
		t.Fatal(err)
	}
	if ss != 0 || sl != 0 || so != 0 {
		t.Fatalf("uniform fill must have zero metrics: σ=%v lh=%v oh=%v", ss, sl, so)
	}
	if len(maps) != 1 || maps[0].At(0, 0) != 0.04 {
		t.Fatalf("density map wrong: %v", maps[0].V)
	}
}

func TestMeasureCombines(t *testing.T) {
	lay := twoLayerLayout()
	sol := &layout.Solution{Fills: []layout.Fill{
		{Layer: 0, Rect: geom.R(30, 30, 50, 50)},
	}}
	raw, err := Measure(lay, sol, 2048, 1.5, 128)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Overlay != 100 {
		t.Fatalf("overlay = %d", raw.Overlay)
	}
	if raw.FileSizeB != 2048 || raw.RuntimeSec != 1.5 || raw.MemoryMiB != 128 {
		t.Fatalf("pass-through raw fields wrong: %+v", raw)
	}
	if raw.NumFills != 1 {
		t.Fatalf("NumFills = %d", raw.NumFills)
	}
	if raw.SumSigma <= 0 {
		t.Fatal("non-uniform layout must have positive σ")
	}
}

func TestPlanWeightsExtraction(t *testing.T) {
	c := testCoeffs()
	w := c.PlanWeights()
	if w.AlphaVar != c.AlphaVar || w.BetaLine != c.BetaLine || w.AlphaOutlier != c.AlphaOutlier {
		t.Fatalf("plan weights mismatch: %+v", w)
	}
}
