package fill

import (
	"context"
	"testing"

	"dummyfill/internal/density"
	"dummyfill/internal/dlp"
	"dummyfill/internal/drc"
	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
	"dummyfill/internal/score"
	"dummyfill/internal/synth"
)

// tinyLayout generates the synthetic tiny design once.
func tinyLayout(t testing.TB) *layout.Layout {
	t.Helper()
	lay, err := synth.Generate(synth.DesignTiny())
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

func TestEngineOnSyntheticDesign(t *testing.T) {
	lay := tinyLayout(t)
	e, err := New(lay, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Fills) == 0 {
		t.Fatal("no fills on synthetic design")
	}
	if vs := drc.Check(lay, &res.Solution, true); len(vs) != 0 {
		t.Fatalf("%d DRC violations on synthetic design, first: %v", len(vs), vs[0])
	}
	// Each layer's σ must drop by at least half.
	g, _ := lay.Grid()
	_, _, _, maps, err := score.MeasureDensity(lay, &res.Solution)
	if err != nil {
		t.Fatal(err)
	}
	for li, m := range maps {
		before := density.Variation(lay.WireDensityMap(g, li))
		after := density.Variation(m)
		if after > 0.5*before {
			t.Fatalf("layer %d: σ %.4f -> %.4f (less than 2x improvement)", li, before, after)
		}
	}
}

func TestEngineSolverBackendsEquivalent(t *testing.T) {
	// All three LP backends must produce DRC-clean solutions with
	// essentially the same fill area (identical optima can differ in
	// which vertex is returned, so compare aggregates).
	lay := tinyLayout(t)
	areas := map[string]int64{}
	counts := map[string]int{}
	for _, s := range []struct {
		name   string
		solver dlp.PSolver
	}{
		{"ssp", dlp.ViaSSP},
		{"netsimplex", dlp.ViaNetworkSimplex},
		{"simplex", dlp.ViaSimplexLP},
	} {
		opts := DefaultOptions()
		opts.NewSolver = func() dlp.PSolver { return s.solver }
		e, err := New(lay, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("backend %s: %v", s.name, err)
		}
		if vs := drc.Check(lay, &res.Solution, true); len(vs) != 0 {
			t.Fatalf("backend %s: %d DRC violations", s.name, len(vs))
		}
		var area int64
		for _, f := range res.Solution.Fills {
			area += f.Rect.Area()
		}
		areas[s.name] = area
		counts[s.name] = len(res.Solution.Fills)
	}
	for name, a := range areas {
		ref := areas["ssp"]
		dev := float64(a-ref) / float64(ref)
		if dev < -0.02 || dev > 0.02 {
			t.Fatalf("backend %s fill area deviates %.1f%% from SSP (%d vs %d)",
				name, dev*100, a, ref)
		}
	}
}

func TestEngineEmptyFillRegions(t *testing.T) {
	// A layout with wires but no room to fill: the engine must succeed
	// with an empty solution.
	lay := &layout.Layout{
		Name: "nofree", Die: geom.R(0, 0, 200, 200), Window: 100,
		Rules: testRules(),
		Layers: []*layout.Layer{{
			Wires: []geom.Rect{geom.R(0, 0, 200, 200)},
		}},
	}
	e, err := New(lay, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Fills) != 0 {
		t.Fatalf("no free space but %d fills inserted", len(res.Solution.Fills))
	}
}

func TestEngineEmptyLayerAmongOthers(t *testing.T) {
	// One layer has no wires at all (everything fillable), another no
	// fill regions: both extremes in one run.
	lay := &layout.Layout{
		Name: "mixed", Die: geom.R(0, 0, 200, 200), Window: 100,
		Rules: testRules(),
		Layers: []*layout.Layer{
			{FillRegions: []geom.Rect{geom.R(0, 0, 200, 200)}},
			{Wires: []geom.Rect{geom.R(0, 0, 200, 200)}},
		},
	}
	opts := DefaultOptions()
	opts.MinDensity = 0.3 // an all-empty layer is "uniform" at 0; force fill
	e, err := New(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	hasL0 := false
	for _, f := range res.Solution.Fills {
		if f.Layer == 1 {
			t.Fatalf("fill on fully-covered layer: %v", f)
		}
		if f.Layer == 0 {
			hasL0 = true
		}
	}
	if !hasL0 {
		t.Fatal("empty layer received no fills")
	}
	if vs := drc.Check(lay, &res.Solution, true); len(vs) != 0 {
		t.Fatalf("DRC: %v", vs[0])
	}
}

func TestEngineSingleLayer(t *testing.T) {
	// Single layer: no overlay pairs at all; only the odd pass runs.
	lay := &layout.Layout{
		Name: "single", Die: geom.R(0, 0, 300, 300), Window: 100,
		Rules: testRules(),
		Layers: []*layout.Layer{{
			Wires:       []geom.Rect{geom.R(0, 0, 80, 80)},
			FillRegions: []geom.Rect{geom.R(100, 0, 300, 300), geom.R(0, 100, 90, 300)},
		}},
	}
	e, err := New(lay, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Fills) == 0 {
		t.Fatal("single-layer layout got no fills")
	}
	if vs := drc.Check(lay, &res.Solution, true); len(vs) != 0 {
		t.Fatalf("DRC: %v", vs[0])
	}
}

func TestEngineFiveLayers(t *testing.T) {
	// More layers than the synthetic designs use: the odd/even passes and
	// overlay pairs must generalize.
	mk := func(seed int64) *layout.Layer {
		return &layout.Layer{
			Wires:       []geom.Rect{geom.R(seed*13%200, seed*29%200, seed*13%200+60, seed*29%200+30)},
			FillRegions: []geom.Rect{geom.R(0, 250, 400, 400), geom.R(250, 0, 400, 240)},
		}
	}
	lay := &layout.Layout{
		Name: "five", Die: geom.R(0, 0, 400, 400), Window: 200,
		Rules:  testRules(),
		Layers: []*layout.Layer{mk(1), mk(2), mk(3), mk(4), mk(5)},
	}
	e, err := New(lay, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	perLayer := res.Solution.PerLayer(5)
	for li, fills := range perLayer {
		if len(fills) == 0 {
			t.Fatalf("layer %d of 5 received no fills", li)
		}
	}
	if vs := drc.Check(lay, &res.Solution, true); len(vs) != 0 {
		t.Fatalf("DRC: %v", vs[0])
	}
}

func TestEngineSingleWindow(t *testing.T) {
	// Window size equal to the die: planning degenerates to one window.
	lay := fig4Layout()
	lay.Window = 100
	e, err := New(lay, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != 1 {
		t.Fatalf("expected 1 window, got %d", res.Windows)
	}
}

func TestEngineWindowLargerThanDie(t *testing.T) {
	lay := fig4Layout()
	lay.Window = 1000 // window exceeds the 100x100 die
	e, err := New(lay, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineTinyDesign(b *testing.B) {
	lay := tinyLayout(b)
	for i := 0; i < b.N; i++ {
		e, err := New(lay, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCandidateGeneration(b *testing.B) {
	lay := tinyLayout(b)
	e, err := New(lay, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	wins, _ := e.prepareWindows(context.Background())
	td := []float64{0.4, 0.4, 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range wins {
			w.sel = w.sel[:0]
			w.selectCandidates(lay, td, 1.15, 1.0)
		}
	}
}

func BenchmarkSizeWindow(b *testing.B) {
	lay := tinyLayout(b)
	e, err := New(lay, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	wins, _ := e.prepareWindows(context.Background())
	td := []float64{0.4, 0.4, 0.4}
	for _, w := range wins {
		w.selectCandidates(lay, td, 1.15, 1.0)
	}
	sc := newSizeScratch(e.opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range wins {
			targets := e.windowTargets(w, td, sc)
			if _, err := sizeWindowScratch(context.Background(), w, lay, targets, e.opts, sc); err != nil {
				b.Fatal(err)
			}
		}
	}
}
