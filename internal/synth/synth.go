// Package synth generates deterministic synthetic multi-layer layouts that
// stand in for the proprietary ICCAD 2014 contest benchmarks. Each design
// has clustered wiring that produces density gradients, line hotspots and
// outlier windows — the features the contest metrics measure — plus
// feasible fill regions extracted as wire-keepout-free space, exactly the
// input shape the paper's flow consumes.
package synth

import (
	"fmt"
	"math/rand"

	"dummyfill/internal/density"
	"dummyfill/internal/gdsii"
	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
	"dummyfill/internal/ingest"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
	"dummyfill/internal/score"
)

// Spec parameterizes one synthetic design.
type Spec struct {
	Name     string
	Seed     int64
	DieSize  int64 // square die edge in DBU
	Window   int64
	NumLayer int
	Rules    layout.Rules
	// WiresPerLayer is the approximate wire shape count per layer.
	WiresPerLayer int
	// Clusters is the number of high-density wiring clusters per layer.
	Clusters int
	// WireWidth and MeanWireLen set wire geometry.
	WireWidth   int64
	MeanWireLen int64
	// BetaRuntime/BetaMemory are the runtime/memory score scales (the
	// other βs are calibrated from the generated layout).
	BetaRuntime, BetaMemory float64
	// Sites, when non-nil, makes the design row-based: instead of
	// clustered wiring, the generator places standard-cell-like blocks
	// snapped to this lattice and the layout carries the site grid — the
	// input shape of the site fill mode. Clusters/WireWidth/MeanWireLen
	// are ignored for row-based designs.
	Sites *layout.SiteGrid
	// RowUtil is the mean row utilization of a row-based design (fraction
	// of sites occupied by placed cells, before the row-gradient skew).
	RowUtil float64
}

// The three designs mirror Table 2's s/b/m at laptop scale: the shape
// counts scale ~1:6:20 like the contest's 382K:8.1M:31.8M.
func DesignS() Spec {
	return Spec{
		Name: "s", Seed: 1001,
		DieSize: 16000, Window: 1000, NumLayer: 3,
		Rules:         layout.Rules{MinWidth: 8, MinSpace: 8, MinArea: 64, MaxFillDim: 400},
		WiresPerLayer: 7000, Clusters: 6,
		WireWidth: 16, MeanWireLen: 400,
		BetaRuntime: 10, BetaMemory: 1024,
	}
}

func DesignB() Spec {
	return Spec{
		Name: "b", Seed: 2002,
		DieSize: 40000, Window: 2000, NumLayer: 3,
		Rules:         layout.Rules{MinWidth: 8, MinSpace: 8, MinArea: 64, MaxFillDim: 800},
		WiresPerLayer: 40000, Clusters: 12,
		WireWidth: 16, MeanWireLen: 500,
		BetaRuntime: 60, BetaMemory: 4096,
	}
}

func DesignM() Spec {
	return Spec{
		Name: "m", Seed: 3003,
		DieSize: 64000, Window: 2000, NumLayer: 3,
		Rules:         layout.Rules{MinWidth: 8, MinSpace: 8, MinArea: 64, MaxFillDim: 800},
		WiresPerLayer: 130000, Clusters: 20,
		WireWidth: 16, MeanWireLen: 500,
		BetaRuntime: 120, BetaMemory: 8192,
	}
}

// DesignTiny is a fast, sub-second design for tests, examples and smoke
// runs. It is not part of the contest trio.
func DesignTiny() Spec {
	return Spec{
		Name: "tiny", Seed: 4004,
		DieSize: 4000, Window: 500, NumLayer: 3,
		Rules:         layout.Rules{MinWidth: 8, MinSpace: 8, MinArea: 64, MaxFillDim: 200},
		WiresPerLayer: 800, Clusters: 3,
		WireWidth: 16, MeanWireLen: 250,
		BetaRuntime: 2, BetaMemory: 512,
	}
}

// DesignRow is the row-based placement design for the site fill mode: a
// single placement layer of cells snapped to a lattice that exactly
// covers the die, with a bottom-to-top utilization gradient so the
// density planner has real work. MinSpace is 0 — abutting fillers are
// legal on a placement lattice — and the rules admit the smallest
// default-library filler (1 site × 1 row).
func DesignRow() Spec {
	return Spec{
		Name: "row", Seed: 5005,
		DieSize: 6000, Window: 600, NumLayer: 1,
		Rules:       layout.Rules{MinWidth: 10, MinSpace: 0, MinArea: 1200, MaxFillDim: 400},
		Sites:       &layout.SiteGrid{SiteW: 10, RowH: 120, Rows: 50, Sites: 600},
		RowUtil:     0.55,
		BetaRuntime: 2, BetaMemory: 512,
	}
}

// Designs returns the three standard designs in contest order.
func Designs() []Spec { return []Spec{DesignS(), DesignB(), DesignM()} }

// ByName resolves a design name.
func ByName(name string) (Spec, error) {
	for _, s := range append(Designs(), DesignTiny(), DesignRow()) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("synth: unknown design %q (have s, b, m, row, tiny)", name)
}

// Generate builds the layout of a spec. Generation is deterministic for a
// given spec.
func Generate(sp Spec) (*layout.Layout, error) {
	if sp.Sites != nil {
		return generateRow(sp)
	}
	if sp.DieSize <= 0 || sp.NumLayer <= 0 || sp.WiresPerLayer <= 0 {
		return nil, fmt.Errorf("synth: invalid spec %+v", sp)
	}
	die := geom.R(0, 0, sp.DieSize, sp.DieSize)
	lay := &layout.Layout{
		Name:   sp.Name,
		Die:    die,
		Window: sp.Window,
		Rules:  sp.Rules,
	}
	g, err := grid.New(die, sp.Window)
	if err != nil {
		return nil, err
	}
	for li := 0; li < sp.NumLayer; li++ {
		rng := rand.New(rand.NewSource(sp.Seed + int64(li)*7919))
		layer := &layout.Layer{}
		layer.Wires = genWires(rng, sp, li)
		// Odd layers route vertically; vertical slab decomposition keeps
		// their free regions fat instead of shredded into thin bands.
		layer.FillRegions = ingest.ExtractFillRegions(g, layer.Wires, sp.Rules, li%2 == 1)
		lay.Layers = append(lay.Layers, layer)
	}
	if err := lay.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated invalid layout: %v", err)
	}
	return lay, nil
}

// generateRow builds a row-based design: per placement row, an
// alternation of random gaps and placed cells, all snapped to the
// lattice. Gap sizes grow with the row index so the lower rows are
// dense and the upper sparse — a density gradient the planner must
// equalize. The free regions are the exact complement of the placed
// cells (MinSpace 0), decomposed into horizontal slabs that align with
// the row gaps.
func generateRow(sp Spec) (*layout.Layout, error) {
	if sp.DieSize <= 0 || sp.RowUtil <= 0 || sp.RowUtil >= 1 {
		return nil, fmt.Errorf("synth: invalid row spec %+v", sp)
	}
	sg := *sp.Sites
	if err := sg.Validate(); err != nil {
		return nil, err
	}
	die := geom.R(0, 0, sp.DieSize, sp.DieSize)
	lay := &layout.Layout{
		Name:   sp.Name,
		Die:    die,
		Window: sp.Window,
		Rules:  sp.Rules,
		Sites:  &sg,
	}
	g, err := grid.New(die, sp.Window)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sp.Seed))
	// Mean cell width (sites) and the gap mean that hits RowUtil.
	const minCell, cellSpread = 4, 37 // widths 4..40, mean 22
	meanCell := float64(minCell) + float64(cellSpread-1)/2
	meanGap := meanCell * (1 - sp.RowUtil) / sp.RowUtil
	layer := &layout.Layer{}
	for j := 0; j < sg.Rows; j++ {
		// Utilization gradient: gaps stretch toward the top rows.
		scale := 0.4 + 1.6*float64(j)/float64(sg.Rows)
		maxGap := int(2*meanGap*scale) + 1
		for x := 0; x < sg.Sites; {
			x += 1 + rng.Intn(maxGap)
			w := minCell + rng.Intn(cellSpread)
			if x+w > sg.Sites {
				break
			}
			layer.Wires = append(layer.Wires, geom.Rect{
				XL: sg.SiteX(x), YL: sg.RowY(j),
				XH: sg.SiteX(x + w), YH: sg.RowY(j) + sg.RowH,
			})
			x += w
		}
	}
	layer.FillRegions = ingest.ExtractFillRegions(g, layer.Wires, sp.Rules, false)
	lay.Layers = append(lay.Layers, layer)
	if err := lay.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated invalid layout: %v", err)
	}
	return lay, nil
}

// genWires produces clustered manhattan wiring. Even layers route
// horizontally, odd layers vertically (as real routing stacks do), which
// also creates the cross-layer overlap structure the overlay metric cares
// about.
func genWires(rng *rand.Rand, sp Spec, li int) []geom.Rect {
	die := geom.R(0, 0, sp.DieSize, sp.DieSize)
	horizontal := li%2 == 0

	// Cluster centers with per-cluster intensity; one corner cluster is
	// made extreme to guarantee outlier windows.
	type cluster struct {
		cx, cy int64
		sigma  float64
		weight float64
	}
	clusters := make([]cluster, sp.Clusters)
	for c := range clusters {
		clusters[c] = cluster{
			cx:     rng.Int63n(sp.DieSize),
			cy:     rng.Int63n(sp.DieSize),
			sigma:  float64(sp.DieSize) * (0.04 + 0.1*rng.Float64()),
			weight: 0.5 + rng.Float64(),
		}
	}
	clusters[0].cx, clusters[0].cy = sp.DieSize/10, sp.DieSize/10
	clusters[0].sigma = float64(sp.DieSize) * 0.03
	clusters[0].weight = 3.0
	var totalW float64
	for _, c := range clusters {
		totalW += c.weight
	}

	wires := make([]geom.Rect, 0, sp.WiresPerLayer)
	for len(wires) < sp.WiresPerLayer {
		// Pick a cluster by weight; 20% of wires are uniform background.
		var x, y int64
		if rng.Float64() < 0.2 {
			x = rng.Int63n(sp.DieSize)
			y = rng.Int63n(sp.DieSize)
		} else {
			r := rng.Float64() * totalW
			var cl cluster
			for _, c := range clusters {
				if r -= c.weight; r <= 0 {
					cl = c
					break
				}
			}
			x = cl.cx + int64(rng.NormFloat64()*cl.sigma)
			y = cl.cy + int64(rng.NormFloat64()*cl.sigma)
		}
		length := int64(rng.ExpFloat64() * float64(sp.MeanWireLen))
		if length < sp.WireWidth {
			length = sp.WireWidth
		}
		var r geom.Rect
		if horizontal {
			r = geom.R(x, y, x+length, y+sp.WireWidth)
		} else {
			r = geom.R(x, y, x+sp.WireWidth, y+length)
		}
		r = r.Intersect(die)
		if r.Empty() || r.W() < sp.WireWidth || r.H() < sp.WireWidth {
			continue
		}
		wires = append(wires, r)
	}
	return wires
}

// Coefficients calibrates the α/β score table for a generated layout (our
// Table 2 analogue). α weights are the contest's; βs are set from the
// unfilled layout's raw metrics so that scores land in the same [0,1]
// working band the contest scores occupy:
//
//   - density βs: the unfilled layout's raw metric, so a component score
//     reads as the fractional improvement over no fill at all;
//   - overlay β: the expected overlay of density-equivalent random fill
//     placement between adjacent layers;
//   - size β: four times the input (wires-only) GDSII size, mirroring the
//     contest's β/input ratios;
//   - runtime/memory βs: fixed per design in the spec.
func Coefficients(sp Spec, lay *layout.Layout) (score.Coefficients, error) {
	return Calibrate(lay, sp.BetaRuntime, sp.BetaMemory)
}

// Calibrate computes the α/β score table for an arbitrary layout using
// the same rules as Coefficients; runtime/memory βs are supplied by the
// caller (they depend on the machine budget, not the layout).
func Calibrate(lay *layout.Layout, betaRuntime, betaMemory float64) (score.Coefficients, error) {
	c := score.ContestAlphas()
	g, err := lay.Grid()
	if err != nil {
		return c, err
	}
	var sumSigma, sumLine, sumOut float64
	for li := range lay.Layers {
		m := density.Measure(lay.WireDensityMap(g, li))
		sumSigma += m.Sigma
		sumLine += m.Line
		sumOut += m.Outlier
	}
	c.BetaVar = sumSigma
	c.BetaLine = sumLine
	c.BetaOutlier = sumSigma * sumOut
	if c.BetaVar <= 0 {
		c.BetaVar = 0.01
	}
	if c.BetaLine <= 0 {
		c.BetaLine = 0.1
	}
	if c.BetaOutlier <= 0 {
		c.BetaOutlier = 1e-4
	}

	dieArea := float64(lay.Die.Area())
	var expOv float64
	for l := 0; l+1 < len(lay.Layers); l++ {
		fa0 := float64(geom.TotalArea(lay.Layers[l].FillRegions))
		fa1 := float64(geom.TotalArea(lay.Layers[l+1].FillRegions))
		wa1 := float64(geom.UnionArea(lay.Layers[l+1].Wires))
		wa0 := float64(geom.UnionArea(lay.Layers[l].Wires))
		// Random-placement expectation: fills(l) against everything above
		// plus wires(l) against fills above.
		expOv += fa0*(fa1+wa1)/dieArea + wa0*fa1/dieArea
	}
	c.BetaOverlay = expOv
	if c.BetaOverlay <= 0 {
		c.BetaOverlay = 1
	}

	// The contest's size score measures the solution (fills-only) GDSII;
	// β of the order of the input wire GDSII size mirrors the contest's
	// β/input ratios (0.7–1.9).
	sz, err := gdsii.DeckSize(layio.LayoutDeck, lay, nil)
	if err != nil {
		return c, err
	}
	c.BetaSize = 4 * float64(sz) / (1 << 20)
	if c.BetaSize <= 0 {
		c.BetaSize = 1
	}
	c.BetaRuntime = betaRuntime
	c.BetaMemory = betaMemory
	return c, nil
}
