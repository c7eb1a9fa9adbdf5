// Package ingest builds fill-flow inputs from external data: it converts
// streamed layout shapes into a layout.Layout, performing the front half
// of the paper's flow — polygon-to-rectangle conversion ([16]) and
// feasible fill-region extraction (free space minus the wire spacing
// keepout), window by window.
package ingest

import (
	"fmt"
	"io"

	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// MaxLayers caps the layer stack FromShapes will build. Layer ids come
// straight off untrusted streams; without a cap a single hostile shape
// on layer 2^40 would allocate a dense slice that large. Real processes
// stop well short of 65536 routing layers.
const MaxLayers = 1 << 16

// Options control layout construction.
type Options struct {
	// Window is the density-analysis window size. Zero picks the stream
	// header's window if it carries one, else 1/16 of the die's larger
	// dimension.
	Window int64
	// Rules is the fill rule set. The zero value defers to the stream
	// header's rules (text layouts carry them); a stream without rules then
	// fails validation.
	Rules layout.Rules
	// Die overrides the die area; zero value uses the stream header's die
	// if present, else the bounding box of all shapes.
	Die geom.Rect
}

// FromShapes drains a streaming shape reader into a Layout ready for the
// fill engine, without materializing any per-format library. Wires
// (datatype 0) block fill; existing fills (datatype 1) are dropped;
// explicit fill regions (datatype 2, text layouts) are trusted as-is.
// For formats without layout metadata (GDSII, OASIS, DEF) the feasible
// fill regions are computed: the free space at least MinSpace away from
// any wire, extracted per window with the slab orientation chosen per
// layer from the dominant wire direction. A layer id at or above
// MaxLayers, on a shape or in the header, fails with an error wrapping
// layio.ErrLimit.
func FromShapes(sr layio.ShapeReader, opts Options) (*layout.Layout, error) {
	if opts.Rules != (layout.Rules{}) {
		if err := opts.Rules.Validate(); err != nil {
			return nil, err
		}
	}

	var wires, regions [][]geom.Rect // dense, per layer
	var bbox geom.Rect
	for {
		s, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if s.Layer < 0 {
			return nil, fmt.Errorf("ingest: negative layer id %d", s.Layer)
		}
		if s.Layer >= MaxLayers {
			return nil, fmt.Errorf("ingest: %w: layer id %d at or above cap %d", layio.ErrLimit, s.Layer, MaxLayers)
		}
		dst := &wires
		switch s.Datatype {
		case layio.DatatypeFill:
			continue
		case layio.DatatypeRegion:
			dst = &regions
		default:
			bbox = bbox.Union(s.Rect)
		}
		for len(*dst) <= s.Layer {
			*dst = append(*dst, nil)
		}
		(*dst)[s.Layer] = append((*dst)[s.Layer], s.Rect)
	}
	hdr := sr.Header()
	if hdr.NumLayers > MaxLayers {
		return nil, fmt.Errorf("ingest: %w: header declares %d layers, above cap %d", layio.ErrLimit, hdr.NumLayers, MaxLayers)
	}

	if len(wires) == 0 && !hdr.HasLayoutMeta {
		return nil, fmt.Errorf("ingest: library %q contains no shapes", hdr.Name)
	}
	lay := &layout.Layout{Name: hdr.Name, Die: opts.Die, Window: opts.Window, Rules: opts.Rules}
	if lay.Die.Empty() {
		lay.Die = hdr.Die
	}
	if lay.Die.Empty() {
		lay.Die = bbox
	}
	if lay.Window <= 0 {
		lay.Window = hdr.Window
	}
	if lay.Window <= 0 {
		lay.Window = max(lay.Die.W(), lay.Die.H()) / 16
		if lay.Window < 1 {
			lay.Window = 1
		}
	}
	if lay.Rules == (layout.Rules{}) {
		lay.Rules = hdr.Rules
	}
	if err := lay.Rules.Validate(); err != nil {
		return nil, err
	}
	if hdr.Sites != nil {
		sites := *hdr.Sites
		lay.Sites = &sites
	}

	at := func(sl [][]geom.Rect, li int) []geom.Rect {
		if li < len(sl) {
			return sl[li]
		}
		return nil
	}
	lay.Layers = make([]*layout.Layer, max(len(wires), len(regions), hdr.NumLayers))
	if hdr.HasLayoutMeta {
		// The file states its own geometry; trust it unmodified and let
		// validation police it.
		for li := range lay.Layers {
			lay.Layers[li] = &layout.Layer{Wires: at(wires, li), FillRegions: at(regions, li)}
		}
	} else {
		g, err := grid.New(lay.Die, lay.Window)
		if err != nil {
			return nil, err
		}
		for li := range lay.Layers {
			clipped := clipToDie(at(wires, li), lay.Die)
			lay.Layers[li] = &layout.Layer{
				Wires:       clipped,
				FillRegions: ExtractFillRegions(g, clipped, lay.Rules, dominantlyVertical(clipped)),
			}
		}
	}
	if err := lay.Validate(); err != nil {
		return nil, fmt.Errorf("ingest: constructed layout invalid: %v", err)
	}
	return lay, nil
}

// clipToDie returns the non-empty intersections of shapes with die in one
// exact-size slice (nil when none survive).
func clipToDie(shapes []geom.Rect, die geom.Rect) []geom.Rect {
	n := 0
	for _, s := range shapes {
		if !s.Intersect(die).Empty() {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]geom.Rect, 0, n)
	for _, s := range shapes {
		if c := s.Intersect(die); !c.Empty() {
			out = append(out, c)
		}
	}
	return out
}

// dominantlyVertical reports whether shapes run mostly vertically: their
// summed heights exceed their summed widths.
func dominantlyVertical(shapes []geom.Rect) bool {
	var sumW, sumH int64
	for _, s := range shapes {
		sumW += s.W()
		sumH += s.H()
	}
	return sumH > sumW
}

// ExtractFillRegions computes the feasible fill regions of one layer:
// per window, the free space after expanding every shape by the minimum
// spacing, decomposed into vertical slabs when vertical is set (else
// horizontal), with slivers unable to host a legal fill dropped.
func ExtractFillRegions(g *grid.Grid, shapes []geom.Rect, rules layout.Rules, vertical bool) []geom.Rect {
	perWin := make([][]geom.Rect, g.NumWindows())
	for _, s := range shapes {
		ex := s.Expand(rules.MinSpace)
		g.RangeOverlapping(ex, func(i, j int, clip geom.Rect) {
			k := j*g.NX + i
			perWin[k] = append(perWin[k], clip)
		})
	}
	var out []geom.Rect
	for k := 0; k < g.NumWindows(); k++ {
		win := g.Window(k%g.NX, k/g.NX)
		for _, f := range geom.DifferenceOriented(win, perWin[k], vertical) {
			if f.W() >= rules.MinWidth && f.H() >= rules.MinWidth && f.Area() >= rules.MinArea {
				out = append(out, f)
			}
		}
	}
	return out
}
