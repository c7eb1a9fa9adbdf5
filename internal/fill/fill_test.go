package fill

import (
	"context"
	"math"
	"testing"

	"dummyfill/internal/density"
	"dummyfill/internal/dlp"
	"dummyfill/internal/drc"
	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
	"dummyfill/internal/score"
)

// sizeWindowScratch sizes one window with the scratch's own solver.
func sizeWindowScratch(ctx context.Context, w *window, lay *layout.Layout, targets []int64, opts Options, sc *sizeScratch) ([]cell, error) {
	return sizeWindowWith(ctx, w, lay, targets, opts, sc, sc.solver())
}

// sizeWindow is a test convenience over sizeWindowScratch with fresh
// scratch and a background context.
func sizeWindow(w *window, lay *layout.Layout, targets []int64, opts Options) ([]cell, error) {
	return sizeWindowScratch(context.Background(), w, lay, targets, opts, newSizeScratch(opts))
}

// pruneSurplus is pruneSurplusScratch with fresh scratch.
func pruneSurplus(cells []cell, targets []int64, nl int) []cell {
	return pruneSurplusScratch(cells, targets, nl, &sizeScratch{})
}

func testRules() layout.Rules {
	return layout.Rules{MinWidth: 4, MinSpace: 4, MinArea: 16, MaxFillDim: 40}
}

func TestTileRectBasic(t *testing.T) {
	rules := testRules()
	cells := TileRegion(geom.R(0, 0, 84, 40), rules)
	if len(cells) != 2 {
		t.Fatalf("expected 2 cells (84 = 40+4+40), got %d: %v", len(cells), cells)
	}
	gx, gy := cells[0].Gap(cells[1])
	if gx < rules.MinSpace && gy < rules.MinSpace {
		t.Fatalf("cells violate spacing: %v %v", cells[0], cells[1])
	}
	for _, c := range cells {
		if c.W() < rules.MinWidth || c.H() < rules.MinWidth || c.Area() < rules.MinArea {
			t.Fatalf("illegal cell %v", c)
		}
		if c.W() > rules.MaxFillDim || c.H() > rules.MaxFillDim {
			t.Fatalf("cell exceeds max dim: %v", c)
		}
	}
}

func TestTileRectSliverDropped(t *testing.T) {
	rules := testRules()
	if cells := TileRegion(geom.R(0, 0, 3, 100), rules); cells != nil {
		t.Fatalf("sub-min-width sliver must produce no cells: %v", cells)
	}
	if cells := TileRegion(geom.R(0, 0, 4, 4), rules); len(cells) != 1 {
		t.Fatalf("exactly-minimal rect must produce one cell: %v", cells)
	}
	if cells := TileRegion(geom.R(0, 0, 5, 3), rules); cells != nil {
		t.Fatalf("min-area violating rect must be dropped: %v", cells)
	}
}

func TestTileRectCoversLargeRegion(t *testing.T) {
	rules := testRules()
	r := geom.R(0, 0, 200, 200)
	cells := TileRegion(r, rules)
	if len(cells) == 0 {
		t.Fatal("no cells for large region")
	}
	var area int64
	for i, c := range cells {
		if !r.ContainsRect(c) {
			t.Fatalf("cell %v escapes region", c)
		}
		area += c.Area()
		for j := i + 1; j < len(cells); j++ {
			gx, gy := c.Gap(cells[j])
			if gx < rules.MinSpace && gy < rules.MinSpace {
				t.Fatalf("cells %v and %v violate spacing", c, cells[j])
			}
		}
	}
	if float64(area) < 0.5*float64(r.Area()) {
		t.Fatalf("tiling utilization too low: %d of %d", area, r.Area())
	}
}

// fig4Window builds the Fig. 4 situation: a window where the region free
// on both layers is large enough for both density gaps → fills should land
// only in the shared region, achieving zero overlay.
func fig4Layout() *layout.Layout {
	// Die = one 100x100 window. Layer 0 wires on the left strip, layer 1
	// wires on the right strip. Middle is free on both layers.
	return &layout.Layout{
		Name:   "fig4",
		Die:    geom.R(0, 0, 100, 100),
		Window: 100,
		Rules:  testRules(),
		Layers: []*layout.Layer{
			{
				Wires:       []geom.Rect{geom.R(0, 0, 20, 100)},
				FillRegions: []geom.Rect{geom.R(24, 0, 100, 100)},
			},
			{
				Wires:       []geom.Rect{geom.R(80, 0, 100, 100)},
				FillRegions: []geom.Rect{geom.R(0, 0, 76, 100)},
			},
		},
	}
}

func TestCandidateZeroOverlayCase(t *testing.T) {
	lay := fig4Layout()
	e, err := New(lay, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wins, _ := e.prepareWindows(context.Background())
	if len(wins) != 1 {
		t.Fatalf("expected 1 window, got %d", len(wins))
	}
	w := wins[0]
	// Targets slightly above wire density: gap fits easily in the shared
	// region x∈[24,76).
	w.selectCandidates(lay, []float64{0.3, 0.3}, 1.0)
	if len(w.sel) == 0 {
		t.Fatal("no candidates selected")
	}
	shared := geom.R(24, 0, 76, 100)
	for _, c := range w.sel {
		if c.layer != 0 {
			continue
		}
		if !shared.ContainsRect(c.rect) {
			t.Fatalf("layer-0 fill %v outside shared region in zero-overlay case", c.rect)
		}
	}
	// Layer-1 fills must avoid overlap with both layer-0 wires and the
	// selected layer-0 fills when possible; verify total overlay is zero.
	var l0 []geom.Rect
	for _, c := range w.sel {
		if c.layer == 0 {
			l0 = append(l0, c.rect)
		}
	}
	for _, c := range w.sel {
		if c.layer != 1 {
			continue
		}
		for _, r := range l0 {
			if c.rect.Overlaps(r) {
				t.Fatalf("fill-fill overlay in zero-overlay case: %v vs %v", c.rect, r)
			}
		}
		if c.rect.Overlaps(geom.R(0, 0, 20, 100)) {
			t.Fatalf("layer-1 fill %v overlaps layer-0 wire region", c.rect)
		}
	}
}

func TestCandidateNonZeroOverlayCase(t *testing.T) {
	// Fig. 5: shared free region too small for the demand → fills must
	// extend into Region 1/2 and some overlay is unavoidable.
	lay := fig4Layout()
	e, err := New(lay, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wins, _ := e.prepareWindows(context.Background())
	w := wins[0]
	w.selectCandidates(lay, []float64{0.7, 0.7}, 1.0)
	var area0 int64
	outsideShared := false
	shared := geom.R(24, 0, 76, 100)
	for _, c := range w.sel {
		if c.layer == 0 {
			area0 += c.rect.Area()
			if !shared.ContainsRect(c.rect) {
				outsideShared = true
			}
		}
	}
	if float64(area0) < 0.5*float64(w.rect.Area()) {
		t.Fatalf("high target did not generate enough candidates: %d", area0)
	}
	if !outsideShared {
		t.Fatal("demand exceeds the shared region; fills must spill outside it")
	}
}

func TestSelectRespectsLambda(t *testing.T) {
	lay := fig4Layout()
	e, _ := New(lay, DefaultOptions())
	winsA, _ := e.prepareWindows(context.Background())
	winsA[0].selectCandidates(lay, []float64{0.4, 0.4}, 1.0)
	winsB, _ := e.prepareWindows(context.Background())
	winsB[0].selectCandidates(lay, []float64{0.4, 0.4}, 1.5)
	areaOf := func(w *window) (a int64) {
		for _, c := range w.sel {
			a += c.rect.Area()
		}
		return
	}
	if areaOf(winsB[0]) <= areaOf(winsA[0]) {
		t.Fatalf("larger λ must select at least as much candidate area: %d vs %d",
			areaOf(winsB[0]), areaOf(winsA[0]))
	}
}

func TestSizeWindowShrinksToTarget(t *testing.T) {
	lay := fig4Layout()
	e, _ := New(lay, DefaultOptions())
	wins, _ := e.prepareWindows(context.Background())
	w := wins[0]
	w.selectCandidates(lay, []float64{0.5, 0.5}, 1.3)
	var selArea int64
	for _, c := range w.sel {
		if c.layer == 0 {
			selArea += c.rect.Area()
		}
	}
	target := int64(float64(selArea) * 0.7) // force meaningful shrink
	targets := []int64{target, target}
	sized, err := sizeWindow(w, lay, targets, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, c := range sized {
		if c.layer == 0 {
			got += c.rect.Area()
		}
	}
	// Within 10% of target (integer granularity + min sizes).
	if got > selArea {
		t.Fatalf("sizing grew fills: %d > %d", got, selArea)
	}
	dev := float64(got-target) / float64(target)
	if dev < -0.15 || dev > 0.15 {
		t.Fatalf("sized area %d deviates %.0f%% from target %d", got, dev*100, target)
	}
	// All sized fills stay inside their original cells and remain legal.
	for _, c := range sized {
		r := c.rect
		if r.W() < lay.Rules.MinWidth || r.H() < lay.Rules.MinWidth || r.Area() < lay.Rules.MinArea {
			t.Fatalf("illegal sized fill %v", r)
		}
	}
}

func TestSizingFixesSpacingViolations(t *testing.T) {
	lay := fig4Layout()
	w := &window{rect: geom.R(0, 0, 100, 100), layers: make([]winLayer, 2)}
	// Two abutting cells (gap 0 < MinSpace 4), horizontally separable.
	w.sel = []cell{
		{rect: geom.R(30, 30, 50, 50), layer: 0, quality: 1},
		{rect: geom.R(50, 30, 70, 50), layer: 0, quality: 0.5},
	}
	targets := []int64{800, 0}
	sized, err := sizeWindow(w, lay, targets, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sized) != 2 {
		t.Fatalf("both cells should survive, got %d", len(sized))
	}
	gx, gy := sized[0].rect.Gap(sized[1].rect)
	if gx < lay.Rules.MinSpace && gy < lay.Rules.MinSpace {
		t.Fatalf("spacing violation not fixed: %v vs %v", sized[0].rect, sized[1].rect)
	}
}

func TestSizingDropsHopelesslyCrowdedCells(t *testing.T) {
	lay := fig4Layout()
	w := &window{rect: geom.R(0, 0, 100, 100), layers: make([]winLayer, 2)}
	// Three minimum-size cells stacked with zero gaps: the chain cannot
	// satisfy spacing by shrinking (cells are already at min width), so
	// at least one must be deleted.
	w.sel = []cell{
		{rect: geom.R(30, 30, 34, 34), layer: 0, quality: 3},
		{rect: geom.R(34, 30, 38, 34), layer: 0, quality: 1},
		{rect: geom.R(38, 30, 42, 34), layer: 0, quality: 2},
	}
	sized, err := sizeWindow(w, lay, []int64{48, 0}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sized) >= 3 {
		t.Fatalf("over-crowded chain should lose a cell, kept %d", len(sized))
	}
	for i := range sized {
		for j := i + 1; j < len(sized); j++ {
			gx, gy := sized[i].rect.Gap(sized[j].rect)
			if gx < lay.Rules.MinSpace && gy < lay.Rules.MinSpace {
				t.Fatalf("spacing still violated after deletion")
			}
		}
	}
}

func TestPruneSurplus(t *testing.T) {
	cells := []cell{
		{rect: geom.R(0, 0, 10, 10), layer: 0, quality: 0.9},
		{rect: geom.R(20, 0, 30, 10), layer: 0, quality: 0.1},
		{rect: geom.R(40, 0, 50, 10), layer: 0, quality: 0.5},
	}
	out := pruneSurplus(cells, []int64{150}, 1)
	if len(out) != 2 {
		t.Fatalf("expected 2 cells after pruning, got %d", len(out))
	}
	for _, c := range out {
		if c.quality == 0.1 {
			t.Fatal("lowest-quality cell should have been pruned")
		}
	}
	// Exact fit: nothing pruned.
	out = pruneSurplus(cells, []int64{300}, 1)
	if len(out) != 3 {
		t.Fatalf("no surplus but %d cells pruned", 3-len(out))
	}
}

// gradientLayout builds a 4x4-window layout with a strong density gradient
// so the engine has real work to do.
func gradientLayout() *layout.Layout {
	die := geom.R(0, 0, 400, 400)
	rules := testRules()
	mk := func(dens []int64) *layout.Layer {
		l := &layout.Layer{}
		// dens[k] = wire strip width per window column k (0..3).
		for wx := 0; wx < 4; wx++ {
			for wy := 0; wy < 4; wy++ {
				x0 := int64(wx) * 100
				y0 := int64(wy) * 100
				wwidth := dens[(wx+wy)%4]
				if wwidth > 0 {
					l.Wires = append(l.Wires, geom.R(x0+10, y0+10, x0+10+wwidth, y0+90))
				}
				// Free region right of the wire with sm keepout.
				fx := x0 + 10 + wwidth + rules.MinSpace
				if wwidth == 0 {
					fx = x0 + 4
				}
				l.FillRegions = append(l.FillRegions, geom.R(fx, y0+10, x0+96, y0+90))
			}
		}
		return l
	}
	return &layout.Layout{
		Name:   "grad",
		Die:    die,
		Window: 100,
		Rules:  rules,
		Layers: []*layout.Layer{
			mk([]int64{10, 30, 50, 70}),
			mk([]int64{70, 50, 30, 10}),
			mk([]int64{0, 20, 40, 60}),
		},
	}
}

func TestEngineEndToEnd(t *testing.T) {
	lay := gradientLayout()
	e, err := New(lay, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Fills) == 0 {
		t.Fatal("engine inserted no fills")
	}
	if res.Candidates < len(res.Solution.Fills) {
		t.Fatalf("candidates %d < final fills %d", res.Candidates, len(res.Solution.Fills))
	}
	// DRC clean.
	if vs := drc.Check(lay, &res.Solution, true); len(vs) != 0 {
		t.Fatalf("DRC violations: %v (total %d)", vs[0], len(vs))
	}
	// Density must improve: σ after fill < σ before.
	g, _ := lay.Grid()
	var before, after float64
	ss, _, _, _, err := score.MeasureDensity(lay, &res.Solution)
	if err != nil {
		t.Fatal(err)
	}
	after = ss
	for li := range lay.Layers {
		before += density.Variation(lay.WireDensityMap(g, li))
	}
	if after >= before {
		t.Fatalf("fill did not improve uniformity: σ %v -> %v", before, after)
	}
	if after > 0.4*before {
		t.Fatalf("fill should cut σ by more than 60%%: %v -> %v", before, after)
	}
}

func TestEngineDeterministic(t *testing.T) {
	lay := gradientLayout()
	opts := DefaultOptions()
	opts.Workers = 4
	run := func() map[layout.Fill]bool {
		e, err := New(lay, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		out := map[layout.Fill]bool{}
		for _, f := range res.Solution.Fills {
			out[f] = true
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("fill count differs across runs: %d vs %d", len(a), len(b))
	}
	for f := range a {
		if !b[f] {
			t.Fatalf("fill %v missing in second run", f)
		}
	}
}

func TestEngineOptionValidation(t *testing.T) {
	lay := gradientLayout()
	bad := DefaultOptions()
	bad.Lambda = 0.5
	if _, err := New(lay, bad); err == nil {
		t.Fatal("λ < 1 must be rejected")
	}
	for _, lambda := range []float64{math.NaN(), math.Inf(1)} {
		bad = DefaultOptions()
		bad.Lambda = lambda
		if _, err := New(lay, bad); err == nil {
			t.Fatalf("λ = %v must be rejected", lambda)
		}
	}
	bad = DefaultOptions()
	bad.NewSolver = nil
	if _, err := New(lay, bad); err == nil {
		t.Fatal("nil NewSolver must be rejected")
	}
	// A closure over a stateless solver is a valid factory.
	ok := DefaultOptions()
	ok.NewSolver = func() dlp.PSolver { return dlp.ViaSSP }
	if _, err := New(lay, ok); err != nil {
		t.Fatalf("stateless solver factory must be accepted: %v", err)
	}
	if _, err := New(&layout.Layout{}, DefaultOptions()); err == nil {
		t.Fatal("invalid layout must be rejected")
	}
}

func TestEngineOverlayBetterThanGreedy(t *testing.T) {
	// The engine's overlay should be no worse than blindly using every
	// candidate cell at full size.
	lay := gradientLayout()
	e, _ := New(lay, DefaultOptions())
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	engineOv := score.TotalOverlay(lay, &res.Solution)

	wins, _ := e.prepareWindows(context.Background())
	var greedy layout.Solution
	for _, w := range wins {
		for li := range w.layers {
			for _, fr := range w.layers[li].free {
				for _, r := range TileRegion(fr, lay.Rules) {
					greedy.Fills = append(greedy.Fills, layout.Fill{Layer: li, Rect: r})
				}
			}
		}
	}
	greedyOv := score.TotalOverlay(lay, &greedy)
	if engineOv > greedyOv {
		t.Fatalf("engine overlay %d worse than greedy %d", engineOv, greedyOv)
	}
}
