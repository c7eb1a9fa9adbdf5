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
	// KeepFills controls whether existing fill shapes (datatype 1) found
	// in the input are treated as wires (blocking new fill) or dropped.
	KeepFills bool
}

// FromShapes drains a streaming shape reader into a Layout ready for the
// fill engine, without materializing any per-format library. Wires
// (datatype 0) block fill; existing fills (datatype 1) are kept as wires
// or dropped per Options.KeepFills; explicit fill regions (datatype 2,
// text layouts) are trusted as-is. For formats without layout metadata
// (GDSII, OASIS) the feasible fill regions are computed: the free space
// at least MinSpace away from any shape, extracted per window with the
// slab orientation chosen per layer from the dominant wire direction.
func FromShapes(sr layio.ShapeReader, opts Options) (*layout.Layout, error) {
	if opts.Rules != (layout.Rules{}) {
		if err := opts.Rules.Validate(); err != nil {
			return nil, err
		}
	}

	ensure := func(sl *[][]geom.Rect, n int) error {
		if n > layout.MaxBuilderLayers {
			return fmt.Errorf("ingest: layer count %d exceeds cap %d", n, layout.MaxBuilderLayers)
		}
		for len(*sl) < n {
			*sl = append(*sl, nil)
		}
		return nil
	}
	var wires, fills, regions [][]geom.Rect // dense, per layer
	var bbox geom.Rect
	nshapes := 0
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
		dst := &wires
		switch s.Datatype {
		case layio.DatatypeFill:
			if !opts.KeepFills {
				continue
			}
			dst = &fills
		case layio.DatatypeRegion:
			dst = &regions
		}
		if err := ensure(dst, s.Layer+1); err != nil {
			return nil, err
		}
		(*dst)[s.Layer] = append((*dst)[s.Layer], s.Rect)
		if dst != &regions {
			bbox = bbox.Union(s.Rect)
			nshapes++
		}
	}
	hdr := sr.Header()

	if nshapes == 0 && !hdr.HasLayoutMeta {
		return nil, fmt.Errorf("ingest: library %q contains no shapes", hdr.Name)
	}
	die := opts.Die
	if die.Empty() {
		die = hdr.Die
	}
	if die.Empty() {
		die = bbox
	}
	window := opts.Window
	if window <= 0 {
		window = hdr.Window
	}
	if window <= 0 {
		window = max64(die.W(), die.H()) / 16
		if window < 1 {
			window = 1
		}
	}
	rules := opts.Rules
	if rules == (layout.Rules{}) {
		rules = hdr.Rules
	}
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	numLayers := len(wires)
	for _, n := range [...]int{len(fills), len(regions), hdr.NumLayers} {
		if n > numLayers {
			numLayers = n
		}
	}

	b := layout.NewBuilder().
		SetName(hdr.Name).SetDie(die).SetWindow(window).SetRules(rules).
		EnsureLayers(numLayers)
	if hdr.Sites != nil {
		b.SetSites(*hdr.Sites)
	}
	at := func(sl [][]geom.Rect, li int) []geom.Rect {
		if li < len(sl) {
			return sl[li]
		}
		return nil
	}
	if hdr.HasLayoutMeta {
		// The file states its own geometry; trust it unmodified and let
		// validation police it.
		for li := 0; li < numLayers; li++ {
			for _, r := range at(wires, li) {
				b.AddWire(li, r)
			}
			for _, r := range at(fills, li) {
				b.AddWire(li, r)
			}
			for _, r := range at(regions, li) {
				b.AddFillRegion(li, r)
			}
		}
	} else {
		g, err := grid.New(die, window)
		if err != nil {
			return nil, err
		}
		for li := 0; li < numLayers; li++ {
			shapes := append(append([]geom.Rect(nil), at(wires, li)...), at(fills, li)...)
			clipped := make([]geom.Rect, 0, len(shapes))
			for _, s := range shapes {
				if c := s.Intersect(die); !c.Empty() {
					clipped = append(clipped, c)
				}
			}
			for _, r := range clipped {
				b.AddWire(li, r)
			}
			for _, r := range ExtractFillRegions(g, clipped, rules) {
				b.AddFillRegion(li, r)
			}
		}
	}
	lay, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("ingest: constructed layout invalid: %v", err)
	}
	return lay, nil
}

// ExtractFillRegions computes the feasible fill regions of one layer:
// per window, the free space after expanding every shape by the minimum
// spacing, with the slab orientation picked from the layer's dominant
// wire direction, and slivers unable to host a legal fill dropped.
func ExtractFillRegions(g *grid.Grid, shapes []geom.Rect, rules layout.Rules) []geom.Rect {
	// Dominant direction: compare summed widths vs. heights.
	var sumW, sumH int64
	for _, s := range shapes {
		sumW += s.W()
		sumH += s.H()
	}
	vertical := sumH > sumW

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

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
