// Package score implements the ICCAD 2014 contest scoring model the paper
// evaluates against (§2.3, Eqns. 3–4): per-component scores
// f(x) = max(0, 1 − x/β) weighted by α, covering overlay, density
// variation, line hotspots, outlier hotspots, GDSII file size, runtime and
// memory. Testcase Quality excludes the runtime and memory components.
package score

import (
	"fmt"
	"slices"
	"sync"

	"dummyfill/internal/density"
	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
	"dummyfill/internal/layout"
)

// Coefficients are the α/β parameters of one benchmark (one row of
// Table 2). β units: overlay in DBU² (raw area), variation dimensionless,
// line/outlier in density units, size in MiB, runtime in seconds, memory
// in MiB.
type Coefficients struct {
	AlphaOverlay, BetaOverlay float64
	AlphaVar, BetaVar         float64
	AlphaLine, BetaLine       float64
	AlphaOutlier, BetaOutlier float64
	AlphaSize, BetaSize       float64
	AlphaRuntime, BetaRuntime float64
	AlphaMemory, BetaMemory   float64
}

// ContestAlphas returns coefficients with the contest's α weights
// (overlay 0.2, variation 0.2, line 0.2, outlier 0.15, size 0.05,
// runtime 0.15, memory 0.05) and zero βs; callers fill in βs per design.
func ContestAlphas() Coefficients {
	return Coefficients{
		AlphaOverlay: 0.2,
		AlphaVar:     0.2,
		AlphaLine:    0.2,
		AlphaOutlier: 0.15,
		AlphaSize:    0.05,
		AlphaRuntime: 0.15,
		AlphaMemory:  0.05,
	}
}

// PlanWeights extracts the density-planning weights from c.
func (c Coefficients) PlanWeights() density.PlanWeights {
	return density.PlanWeights{
		AlphaVar: c.AlphaVar, BetaVar: c.BetaVar,
		AlphaLine: c.AlphaLine, BetaLine: c.BetaLine,
		AlphaOutlier: c.AlphaOutlier, BetaOutlier: c.BetaOutlier,
	}
}

// Raw holds the unscored measurements of a solution.
type Raw struct {
	Overlay    int64   // Σ_l ov(l,l+1), DBU²
	SumSigma   float64 // Σ_l σ(l)
	SumLine    float64 // Σ_l lh(l)
	SumOutlier float64 // Σ_l oh(l)
	FileSizeB  int64   // solution GDSII bytes
	RuntimeSec float64
	MemoryMiB  float64
	NumFills   int
}

// Report is a fully scored solution (one row of Table 3).
type Report struct {
	Raw Raw
	// Component scores in [0,1].
	Overlay, Variation, Line, Outlier, Size, Runtime, Memory float64
	// Quality = weighted sum excluding runtime and memory; Total includes
	// them.
	Quality, Total float64
}

// Score converts raw measurements into a report under c.
func Score(raw Raw, c Coefficients) *Report {
	r := &Report{Raw: raw}
	r.Overlay = density.F(float64(raw.Overlay), c.BetaOverlay)
	r.Variation = density.F(raw.SumSigma, c.BetaVar)
	r.Line = density.F(raw.SumLine, c.BetaLine)
	r.Outlier = density.F(raw.SumSigma*raw.SumOutlier, c.BetaOutlier)
	r.Size = density.F(float64(raw.FileSizeB)/(1<<20), c.BetaSize)
	r.Runtime = density.F(raw.RuntimeSec, c.BetaRuntime)
	r.Memory = density.F(raw.MemoryMiB, c.BetaMemory)
	r.Quality = c.AlphaOverlay*r.Overlay + c.AlphaVar*r.Variation +
		c.AlphaLine*r.Line + c.AlphaOutlier*r.Outlier + c.AlphaSize*r.Size
	r.Total = r.Quality + c.AlphaRuntime*r.Runtime + c.AlphaMemory*r.Memory
	return r
}

// MeasureDensity computes the post-fill density metrics summed over
// layers. Fill shapes are assumed disjoint from wires and from each other
// (guaranteed by construction and checked by the DRC package).
func MeasureDensity(lay *layout.Layout, sol *layout.Solution) (sumSigma, sumLine, sumOutlier float64, maps []*grid.Map, err error) {
	g, err := lay.Grid()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	perLayer := sol.PerLayer(len(lay.Layers))
	nl := len(lay.Layers)
	maps = make([]*grid.Map, nl)
	mets := make([]density.Metrics, nl)
	var wg sync.WaitGroup
	for li := 0; li < nl; li++ {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			wire := lay.WireDensityMap(g, li)
			fillArea := grid.AreaMap(g, perLayer[li])
			fill := grid.DensityMap(fillArea)
			total := grid.NewMap(g)
			for k := range total.V {
				total.V[k] = wire.V[k] + fill.V[k]
			}
			mets[li] = density.Measure(total)
			maps[li] = total
		}(li)
	}
	wg.Wait()
	for _, m := range mets {
		sumSigma += m.Sigma
		sumLine += m.Line
		sumOutlier += m.Outlier
	}
	return sumSigma, sumLine, sumOutlier, maps, nil
}

// OverlayAreas computes the fill-induced overlay area between each pair of
// vertically adjacent layers (§2.1): for pair (l, l+1) it counts
// fills(l)∩(wires(l+1)∪fills(l+1)) plus wires(l)∩fills(l+1) — i.e. every
// overlap that involves at least one fill; wire-wire overlap is the
// pre-existing design and is not charged.
func OverlayAreas(lay *layout.Layout, sol *layout.Solution) []int64 {
	nl := len(lay.Layers)
	perLayer := sol.PerLayer(nl)
	if nl < 2 {
		return nil
	}
	out := make([]int64, nl-1)
	var wg sync.WaitGroup
	for l := 0; l+1 < nl; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			out[l] = pairOverlay(lay, perLayer, l)
		}(l)
	}
	wg.Wait()
	return out
}

// pairOverlay computes the overlay area between layer l and l+1.
func pairOverlay(lay *layout.Layout, perLayer [][]geom.Rect, l int) int64 {
	// fills(l) vs everything above.
	above := slices.Concat(lay.Layers[l+1].Wires, perLayer[l+1])
	upper := geom.NewIndex(lay.Die.UnionAll(above), 0, above, 0)
	var ov int64
	var pieces []geom.Rect
	for _, f := range perLayer[l] {
		ov += upper.OverlapArea(f, &pieces)
	}
	// wires(l) vs fills above only.
	fillUpper := geom.NewIndex(lay.Die.UnionAll(perLayer[l+1]), 0, perLayer[l+1], 0)
	for _, w := range lay.Layers[l].Wires {
		ov += fillUpper.OverlapArea(w, &pieces)
	}
	return ov
}

// TotalOverlay sums OverlayAreas.
func TotalOverlay(lay *layout.Layout, sol *layout.Solution) int64 {
	var t int64
	for _, v := range OverlayAreas(lay, sol) {
		t += v
	}
	return t
}

// Measure computes the full raw metrics of a solution. fileSize, runtime
// and memory are supplied by the harness (they depend on IO and process
// state, not geometry).
func Measure(lay *layout.Layout, sol *layout.Solution, fileSizeB int64, runtimeSec, memMiB float64) (Raw, error) {
	ss, sl, so, _, err := MeasureDensity(lay, sol)
	if err != nil {
		return Raw{}, err
	}
	return Raw{
		Overlay:    TotalOverlay(lay, sol),
		SumSigma:   ss,
		SumLine:    sl,
		SumOutlier: so,
		FileSizeB:  fileSizeB,
		RuntimeSec: runtimeSec,
		MemoryMiB:  memMiB,
		NumFills:   len(sol.Fills),
	}, nil
}

// String renders a compact one-line summary of the report.
func (r *Report) String() string {
	return fmt.Sprintf("ov=%.3f var=%.3f line=%.3f outl=%.3f size=%.3f rt=%.3f mem=%.3f quality=%.3f total=%.3f",
		r.Overlay, r.Variation, r.Line, r.Outlier, r.Size, r.Runtime, r.Memory, r.Quality, r.Total)
}
