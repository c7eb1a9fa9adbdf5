package ingest_test

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"dummyfill/internal/drc"
	"dummyfill/internal/fill"
	"dummyfill/internal/gdsii"
	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
	"dummyfill/internal/ingest"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
	"dummyfill/internal/synth"
	"dummyfill/internal/textfmt"
)

// gdsReader encodes the boundaries as a one-structure GDSII stream and
// opens the streaming reader over it.
func gdsReader(t *testing.T, bs ...gdsii.Boundary) layio.ShapeReader {
	t.Helper()
	var buf bytes.Buffer
	sw := gdsii.NewStreamWriter(&buf)
	if err := sw.BeginLibrary("lib"); err != nil {
		t.Fatal(err)
	}
	if err := sw.BeginStructure("TOP"); err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		if err := sw.WriteBoundary(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.EndStructure(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return gdsii.NewShapeReader(&buf, gdsii.DefaultLimits())
}

func testOpts() ingest.Options {
	return ingest.Options{
		Window: 500,
		Rules:  layout.Rules{MinWidth: 8, MinSpace: 8, MinArea: 64, MaxFillDim: 200},
	}
}

func TestFromShapesRoundTripSynthDesign(t *testing.T) {
	// synth design → GDS → ingest → layout: wires must survive exactly,
	// and the reconstructed layout must drive the fill engine to a
	// DRC-clean solution.
	src, err := synth.Generate(synth.DesignTiny())
	if err != nil {
		t.Fatal(err)
	}
	f, err := layio.Lookup(gdsii.FormatName)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := layio.WriteDeck(&buf, f, layio.LayoutDeck, src, nil); err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Die = src.Die
	opts.Rules = src.Rules
	opts.Window = src.Window
	lay, err := ingest.FromShapes(gdsii.NewShapeReader(&buf, gdsii.DefaultLimits()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if lay.NumShapes() != src.NumShapes() {
		t.Fatalf("wires lost: %d vs %d", lay.NumShapes(), src.NumShapes())
	}
	if len(lay.Layers) != len(src.Layers) {
		t.Fatalf("layers: %d vs %d", len(lay.Layers), len(src.Layers))
	}
	e, err := fill.New(lay, fill.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Fills) == 0 {
		t.Fatal("ingested layout produced no fills")
	}
	if vs := drc.Check(lay, &res.Solution, true); len(vs) != 0 {
		t.Fatalf("%d DRC violations, first: %v", len(vs), vs[0])
	}
}

func TestFromShapesPolygonWires(t *testing.T) {
	// An L-shaped wire must be decomposed and its keepout respected.
	lShape := gdsii.Boundary{
		Layer:    1,
		Datatype: 0,
		Pts: []geom.Point{
			{X: 100, Y: 100}, {X: 300, Y: 100}, {X: 300, Y: 200},
			{X: 200, Y: 200}, {X: 200, Y: 300}, {X: 100, Y: 300},
		},
	}
	opts := testOpts()
	opts.Die = geom.R(0, 0, 1000, 1000)
	lay, err := ingest.FromShapes(gdsReader(t, lShape), opts)
	if err != nil {
		t.Fatal(err)
	}
	var wireArea int64
	for _, w := range lay.Layers[0].Wires {
		wireArea += w.Area()
	}
	if wireArea != 30000 { // L-shape area
		t.Fatalf("decomposed wire area = %d, want 30000", wireArea)
	}
	// No fill region may touch the L-shape's keepout.
	for _, fr := range lay.Layers[0].FillRegions {
		for _, w := range lay.Layers[0].Wires {
			gx, gy := fr.Gap(w)
			if gx < opts.Rules.MinSpace && gy < opts.Rules.MinSpace {
				t.Fatalf("fill region %v inside keepout of wire %v", fr, w)
			}
		}
	}
}

// TestFromShapesDropsFills checks that existing fill shapes (datatype 1)
// in the input neither block new fill nor survive as wires.
func TestFromShapesDropsFills(t *testing.T) {
	shapes := []gdsii.Boundary{
		{Layer: 1, Datatype: 0, Pts: rectPts(geom.R(0, 0, 100, 100))},
		{Layer: 1, Datatype: 1, Pts: rectPts(geom.R(300, 300, 400, 400))},
	}
	opts := testOpts()
	opts.Die = geom.R(0, 0, 1000, 1000)
	lay, err := ingest.FromShapes(gdsReader(t, shapes...), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Layers[0].Wires) != 1 {
		t.Fatalf("wires = %d, want 1 (the fill dropped)", len(lay.Layers[0].Wires))
	}
	covered := false
	for _, fr := range lay.Layers[0].FillRegions {
		covered = covered || fr.ContainsRect(geom.R(300, 300, 400, 400))
	}
	if !covered {
		t.Fatal("a dropped fill still blocks the fill regions")
	}
}

func TestFromShapesDefaults(t *testing.T) {
	wire := gdsii.Boundary{Layer: 1, Datatype: 0, Pts: rectPts(geom.R(0, 0, 1600, 50))}
	opts := ingest.Options{Rules: testOpts().Rules} // no window, no die
	lay, err := ingest.FromShapes(gdsReader(t, wire), opts)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Window != 100 { // 1600/16
		t.Fatalf("default window = %d, want 100", lay.Window)
	}
	if lay.Die != (geom.Rect{XL: 0, YL: 0, XH: 1600, YH: 50}) {
		t.Fatalf("default die = %v", lay.Die)
	}
}

func TestFromShapesErrors(t *testing.T) {
	if _, err := ingest.FromShapes(gdsReader(t), testOpts()); err == nil {
		t.Fatal("shapeless library must error")
	}
	wire := gdsii.Boundary{Layer: 1, Pts: rectPts(geom.R(0, 0, 10, 10))}
	if _, err := ingest.FromShapes(gdsReader(t, wire), ingest.Options{}); err == nil {
		t.Fatal("zero rules must error")
	}
}

// TestFromShapesNegativeLayer checks that a shape on a negative layer id
// fails ingest; a negative id is malformed input, not a limit.
func TestFromShapesNegativeLayer(t *testing.T) {
	neg := &stubReader{shapes: []layio.Shape{{Layer: -3, Rect: geom.R(0, 0, 1, 1)}}}
	if _, err := ingest.FromShapes(neg, testOpts()); err == nil || !strings.Contains(err.Error(), "negative layer id -3") {
		t.Fatalf("negative layer: err = %v, want negative layer id", err)
	}
}

// stubReader replays fixed shapes, then reports hdr.
type stubReader struct {
	shapes []layio.Shape
	hdr    layio.Header
}

func (s *stubReader) Next() (layio.Shape, error) {
	if len(s.shapes) == 0 {
		return layio.Shape{}, io.EOF
	}
	sh := s.shapes[0]
	s.shapes = s.shapes[1:]
	return sh, nil
}

func (s *stubReader) Header() layio.Header { return s.hdr }

// TestFromShapesLayerCap checks the layer cap: a layer id at or above
// MaxLayers, on any shape or in the header, fails with an error wrapping
// layio.ErrLimit, while the top layer under the cap still builds.
func TestFromShapesLayerCap(t *testing.T) {
	meta := layio.Header{
		Die: geom.R(0, 0, 10, 10), Window: 5, HasLayoutMeta: true,
		Rules: layout.Rules{MinWidth: 1, MinArea: 1},
	}
	unit := geom.R(0, 0, 1, 1)
	over := map[string]layio.ShapeReader{
		"text fill":   textfmt.NewShapeReader(strings.NewReader("fill 65536 0 0 1 1\n"), textfmt.DefaultLimits()),
		"shape wire":  &stubReader{shapes: []layio.Shape{{Layer: ingest.MaxLayers, Rect: unit}}},
		"header only": &stubReader{hdr: layio.Header{NumLayers: ingest.MaxLayers + 1, HasLayoutMeta: true}},
	}
	for name, sr := range over {
		if _, err := ingest.FromShapes(sr, ingest.Options{}); !errors.Is(err, layio.ErrLimit) {
			t.Errorf("%s: err = %v, want one wrapping layio.ErrLimit", name, err)
		}
	}
	top := &stubReader{shapes: []layio.Shape{{Layer: ingest.MaxLayers - 1, Rect: unit}}, hdr: meta}
	lay, err := ingest.FromShapes(top, ingest.Options{})
	if err != nil {
		t.Fatalf("wire on layer MaxLayers-1: %v", err)
	}
	if len(lay.Layers) != ingest.MaxLayers {
		t.Fatalf("built %d layers, want %d", len(lay.Layers), ingest.MaxLayers)
	}
}

// readText ingests a text layout made of a fixed header and body.
func readText(body string) (*layout.Layout, error) {
	const head = "layout chip\ndie 0 0 100 100\nwindow 25\nrules 2 1 4 0\n"
	sr := textfmt.NewShapeReader(strings.NewReader(head+body), textfmt.DefaultLimits())
	return ingest.FromShapes(sr, ingest.Options{})
}

// TestFromShapesBuild checks that FromShapes builds a text layout's name,
// layers, wires and regions as stated.
func TestFromShapesBuild(t *testing.T) {
	lay, err := readText("layer 0\nwire 10 10 20 20\nregion 50 50 60 60\nlayer 1\nwire 30 30 40 40\n")
	if err != nil {
		t.Fatal(err)
	}
	if lay.Name != "chip" || len(lay.Layers) != 2 {
		t.Fatalf("built %q with %d layers, want chip with 2", lay.Name, len(lay.Layers))
	}
	if len(lay.Layers[0].Wires) != 1 || len(lay.Layers[0].FillRegions) != 1 || len(lay.Layers[1].Wires) != 1 {
		t.Fatalf("shape counts wrong: %+v", lay.Layers)
	}
}

// TestFromShapesValidates checks that a layout failing Layout.Validate
// (here a wire escaping the die) fails ingest.
func TestFromShapesValidates(t *testing.T) {
	if _, err := readText("layer 0\nwire 50 50 150 150\n"); err == nil || !strings.Contains(err.Error(), "escapes die") {
		t.Fatalf("err = %v, want escapes-die validation error", err)
	}
}

// TestExtractFillRegionsOrientation checks the dominant-direction rule
// FromShapes applies per layer: mostly-vertical wires get vertical slabs
// and mostly-horizontal wires horizontal ones, on wires staggered so
// that the two decompositions differ.
func TestExtractFillRegionsOrientation(t *testing.T) {
	rules := testOpts().Rules
	die := geom.R(0, 0, 1000, 1000)
	g, err := grid.New(die, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var vert, horiz []geom.Rect
	for k, x := 0, int64(100); x < 900; k, x = k+1, x+100 {
		v := geom.R(x, 0, x+16, 300+int64(k)*80)
		vert = append(vert, v)
		horiz = append(horiz, geom.R(v.YL, v.XL, v.YH, v.XH))
	}
	for _, c := range []struct {
		name     string
		wires    []geom.Rect
		vertical bool
	}{{"vertical", vert, true}, {"horizontal", horiz, false}} {
		want := ingest.ExtractFillRegions(g, c.wires, rules, c.vertical)
		if other := ingest.ExtractFillRegions(g, c.wires, rules, !c.vertical); slices.Equal(want, other) {
			t.Fatalf("%s: both slab orientations agree; the case cannot tell them apart", c.name)
		}
		var bs []gdsii.Boundary
		for _, w := range c.wires {
			bs = append(bs, gdsii.Boundary{Layer: 1, Pts: rectPts(w)})
		}
		opts := testOpts()
		opts.Die, opts.Window = die, 1000
		lay, err := ingest.FromShapes(gdsReader(t, bs...), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(lay.Layers[0].FillRegions, want) {
			t.Fatalf("%s wires: FromShapes did not pick %s slabs", c.name, c.name)
		}
	}
}

func rectPts(r geom.Rect) []geom.Point {
	return []geom.Point{
		{X: r.XL, Y: r.YL}, {X: r.XH, Y: r.YL},
		{X: r.XH, Y: r.YH}, {X: r.XL, Y: r.YH},
	}
}
