// Package layout models the input to the fill flow: a die, a stack of
// routing layers with signal wires and feasible fill regions, the DRC rule
// set governing fills, and the window dissection parameters.
package layout

import (
	"fmt"
	"math"

	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
)

// Rules is the DRC rule set for dummy fills (Table 1 of the paper:
// minimum spacing sm, minimum width wm, minimum area am) plus a maximum
// fill dimension, which industrial fill rule decks impose and which the
// candidate generator uses to tile large free regions.
type Rules struct {
	MinWidth   int64 // wm: minimum fill width/height
	MinSpace   int64 // sm: minimum fill-to-fill and fill-to-wire spacing
	MinArea    int64 // am: minimum fill area
	MaxFillDim int64 // maximum fill width/height (0 = unlimited)
}

// Validate checks rule sanity.
func (r Rules) Validate() error {
	if r.MinWidth <= 0 {
		return fmt.Errorf("layout: MinWidth must be positive, got %d", r.MinWidth)
	}
	if r.MinSpace < 0 {
		return fmt.Errorf("layout: MinSpace must be non-negative, got %d", r.MinSpace)
	}
	if r.MinArea < r.MinWidth*r.MinWidth {
		return fmt.Errorf("layout: MinArea %d below MinWidth² %d", r.MinArea, r.MinWidth*r.MinWidth)
	}
	if r.MaxFillDim != 0 && r.MaxFillDim < r.MinWidth {
		return fmt.Errorf("layout: MaxFillDim %d below MinWidth %d", r.MaxFillDim, r.MinWidth)
	}
	return nil
}

// Layer holds the shapes of one routing layer.
type Layer struct {
	// Wires are the signal shapes (rectangles; polygons are converted on
	// input).
	Wires []geom.Rect
	// FillRegions are the feasible fill regions: rectangles where dummy
	// fills may be placed. They may abut but not overlap each other, and
	// keep at least MinSpace from every wire of the layer (Validate
	// enforces both), so candidates tiled from them are DRC-clean.
	FillRegions []geom.Rect
}

// Layout is a multi-layer design.
type Layout struct {
	Name   string
	Die    geom.Rect
	Window int64 // window size for density analysis
	Rules  Rules
	Layers []*Layer
	// Sites is the standard-cell placement lattice, when the layout has
	// one (DEF ingest, the synthetic row design). Required by the
	// site-grid fill mode; nil for pure continuous-rect layouts.
	Sites *SiteGrid
}

// Validate checks structural consistency: shapes inside the die, and the
// fill-region contract of Layer.FillRegions — no region overlaps another
// region of its layer or lies closer than MinSpace to one of its wires
// (the same Gap test drc applies to fills). Candidates tiled from regions
// that keep this contract are DRC-clean by construction.
func (l *Layout) Validate() error {
	if l.Die.Empty() {
		return fmt.Errorf("layout: empty die")
	}
	if l.Window <= 0 {
		return fmt.Errorf("layout: window size must be positive, got %d", l.Window)
	}
	if err := l.Rules.Validate(); err != nil {
		return err
	}
	if len(l.Layers) == 0 {
		return fmt.Errorf("layout: no layers")
	}
	if l.Sites != nil {
		if err := l.Sites.Validate(); err != nil {
			return err
		}
	}
	ms := l.Rules.MinSpace
	for li, layer := range l.Layers {
		for _, w := range layer.Wires {
			if !l.Die.ContainsRect(w) {
				return fmt.Errorf("layout: layer %d wire %v escapes die %v", li, w, l.Die)
			}
		}
		if len(layer.FillRegions) == 0 {
			continue
		}
		// One index holds the wires and, as they pass, the regions: each
		// region is checked against both with a single query.
		nw := len(layer.Wires)
		ix := geom.NewIndex(l.Die, indexCell(l.Die, nw+len(layer.FillRegions)))
		for _, w := range layer.Wires {
			ix.Insert(w)
		}
		for _, fr := range layer.FillRegions {
			if !l.Die.ContainsRect(fr) {
				return fmt.Errorf("layout: layer %d fill region %v escapes die %v", li, fr, l.Die)
			}
			var err error
			ix.Query(fr.Expand(ms), func(id int, r geom.Rect) bool {
				switch gx, gy := fr.Gap(r); {
				case id >= nw && fr.Overlaps(r):
					err = fmt.Errorf("layout: layer %d fill region %v overlaps fill region %v", li, fr, r)
				case id < nw && (fr.Overlaps(r) || gx < ms && gy < ms):
					err = fmt.Errorf("layout: layer %d fill region %v lies within MinSpace %d of wire %v", li, fr, ms, r)
				}
				return err == nil
			})
			if err != nil {
				return err
			}
			ix.Insert(fr)
		}
	}
	return nil
}

// indexCell sizes the bins of an index over die holding n shapes so that
// the grid has about n/4 bins, none narrower than max(W, H)/n: queries
// then visit a handful of shapes however elongated the die is.
func indexCell(die geom.Rect, n int) int64 {
	w, h := die.W(), die.H()
	cell := int64(2 * math.Sqrt(float64(w)*float64(h)/float64(n)))
	return max(cell, max(w, h)/int64(n), 1)
}

// Grid returns the window dissection of the layout.
func (l *Layout) Grid() (*grid.Grid, error) { return grid.New(l.Die, l.Window) }

// NumShapes returns the total wire rectangle count across layers (the
// "#P" statistic of Table 2).
func (l *Layout) NumShapes() int {
	n := 0
	for _, layer := range l.Layers {
		n += len(layer.Wires)
	}
	return n
}

// Fill is one inserted dummy fill shape.
type Fill struct {
	Layer int
	Rect  geom.Rect
}

// Solution is a complete fill assignment for a layout.
type Solution struct {
	Fills []Fill
}

// PerLayer splits the solution's fill rects by layer, sized to the layout.
func (s *Solution) PerLayer(numLayers int) [][]geom.Rect {
	out := make([][]geom.Rect, numLayers)
	for _, f := range s.Fills {
		if f.Layer >= 0 && f.Layer < numLayers {
			out[f.Layer] = append(out[f.Layer], f.Rect)
		}
	}
	return out
}

// Stats summarises a layout for reporting.
type Stats struct {
	Name       string
	NumLayers  int
	NumShapes  int
	DieArea    int64
	WireArea   []int64   // per layer
	FillArea   []int64   // per layer (feasible fill region area)
	WireDens   []float64 // per layer, whole-die wire density
	NumWindows int
}

// Statistics computes summary statistics of the layout.
func (l *Layout) Statistics() Stats {
	st := Stats{
		Name:      l.Name,
		NumLayers: len(l.Layers),
		NumShapes: l.NumShapes(),
		DieArea:   l.Die.Area(),
	}
	if g, err := l.Grid(); err == nil {
		st.NumWindows = g.NumWindows()
	}
	for _, layer := range l.Layers {
		wa := geom.UnionArea(layer.Wires)
		fa := geom.TotalArea(layer.FillRegions)
		st.WireArea = append(st.WireArea, wa)
		st.FillArea = append(st.FillArea, fa)
		st.WireDens = append(st.WireDens, float64(wa)/float64(l.Die.Area()))
	}
	return st
}

// WireDensityMap returns the per-window wire density of layer li.
func (l *Layout) WireDensityMap(g *grid.Grid, li int) *grid.Map {
	// Wires may overlap each other (routes + vias); compute exact union
	// area per window by clipping each wire to windows, then removing
	// double counting per window.
	perWin := make(map[int][]geom.Rect)
	for _, w := range l.Layers[li].Wires {
		g.RangeOverlapping(w, func(i, j int, clip geom.Rect) {
			k := j*g.NX + i
			perWin[k] = append(perWin[k], clip)
		})
	}
	area := grid.NewMap(g)
	for k := range area.V {
		if rects := perWin[k]; len(rects) > 0 {
			area.V[k] = float64(geom.UnionArea(rects))
		}
	}
	return grid.DensityMap(area)
}

// FillRegionAreaMap returns the per-window feasible fill-region area of
// layer li (fill regions are disjoint by construction, so plain
// accumulation is exact).
func (l *Layout) FillRegionAreaMap(g *grid.Grid, li int) *grid.Map {
	return grid.AreaMap(g, l.Layers[li].FillRegions)
}
