// Package layout models the input to the fill flow: a die, a stack of
// routing layers with signal wires and feasible fill regions, the DRC rule
// set governing fills, and the window dissection parameters.
package layout

import (
	"fmt"
	"math"
	"slices"

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

// Validate checks structural consistency: a window grid that grid.New
// accepts (so at most grid.MaxWindows windows), at most
// grid.MaxWindowLayers windows × layers, at most grid.MaxIncidences
// shape-window incidences per layer, shapes inside
// the die, and the fill-region contract of Layer.FillRegions — no region
// overlaps another region of its layer or lies closer than MinSpace to
// one of its wires (the same Gap test drc applies to fills). Candidates
// tiled from regions that keep this contract are DRC-clean by
// construction.
func (l *Layout) Validate() error {
	g, err := l.Grid()
	if err != nil {
		return fmt.Errorf("layout: %w", err)
	}
	if err := l.Rules.Validate(); err != nil {
		return err
	}
	if len(l.Layers) == 0 {
		return fmt.Errorf("layout: no layers")
	}
	if err := g.CheckLayers(len(l.Layers)); err != nil {
		return fmt.Errorf("layout: %w", err)
	}
	if l.Sites != nil {
		if err := l.Sites.Validate(); err != nil {
			return err
		}
	}
	ms := l.Rules.MinSpace
	for li, layer := range l.Layers {
		if err := g.CheckIncidences(layer.Wires, layer.FillRegions, ms); err != nil {
			return fmt.Errorf("layout: layer %d: %w", li, err)
		}
		for _, w := range layer.Wires {
			if !l.Die.ContainsRect(w) {
				return fmt.Errorf("layout: layer %d wire %v escapes die %v", li, w, l.Die)
			}
		}
		if len(layer.FillRegions) == 0 {
			continue
		}
		// One index holds the wires followed by the regions: each region
		// is checked against the wires and the regions before it with a
		// single query.
		nw := len(layer.Wires)
		shapes := slices.Concat(layer.Wires, layer.FillRegions)
		ix := geom.NewIndex(l.Die, indexCell(l.Die, len(shapes)), shapes, 0)
		for i, fr := range layer.FillRegions {
			if !l.Die.ContainsRect(fr) {
				return fmt.Errorf("layout: layer %d fill region %v escapes die %v", li, fr, l.Die)
			}
			var err error
			ix.QueryBefore(fr.Expand(ms), nw+i, func(id int, r geom.Rect) bool {
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
// Wires may overlap each other (routes + vias), so each window's area is
// the exact union of its wire clips.
func (l *Layout) WireDensityMap(g *grid.Grid, li int) *grid.Map {
	wires := l.Layers[li].Wires
	bins := g.Bin(wires, 0)
	area := grid.NewMap(g)
	var clips []geom.Rect
	for k := range area.V {
		ids := bins.Window(k)
		if len(ids) == 0 {
			continue
		}
		win := g.Window(k%g.NX, k/g.NX)
		clips = clips[:0]
		for _, si := range ids {
			clips = append(clips, wires[si].Intersect(win))
		}
		area.V[k] = float64(geom.UnionArea(clips))
	}
	return grid.DensityMap(area)
}

// FillRegionAreaMap returns the per-window feasible fill-region area of
// layer li (fill regions are disjoint by construction, so plain
// accumulation is exact).
func (l *Layout) FillRegionAreaMap(g *grid.Grid, li int) *grid.Map {
	return grid.AreaMap(g, l.Layers[li].FillRegions)
}
