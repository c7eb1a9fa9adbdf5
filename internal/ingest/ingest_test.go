package ingest

import (
	"bytes"
	"testing"

	"dummyfill/internal/drc"
	"dummyfill/internal/fill"
	"dummyfill/internal/gdsii"
	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
	"dummyfill/internal/synth"
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

func testOpts() Options {
	return Options{
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
	lay, err := FromShapes(gdsii.NewShapeReader(&buf, gdsii.DefaultLimits()), opts)
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
	lay, err := FromShapes(gdsReader(t, lShape), opts)
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

func TestFromShapesKeepFills(t *testing.T) {
	shapes := []gdsii.Boundary{
		{Layer: 1, Datatype: 0, Pts: rectPts(geom.R(0, 0, 100, 100))},
		{Layer: 1, Datatype: 1, Pts: rectPts(geom.R(300, 300, 400, 400))},
	}
	opts := testOpts()
	opts.Die = geom.R(0, 0, 1000, 1000)

	lay, err := FromShapes(gdsReader(t, shapes...), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Layers[0].Wires) != 1 {
		t.Fatalf("dropped-fills mode: wires = %d, want 1", len(lay.Layers[0].Wires))
	}

	opts.KeepFills = true
	lay, err = FromShapes(gdsReader(t, shapes...), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Layers[0].Wires) != 2 {
		t.Fatalf("keep-fills mode: blocking shapes = %d, want 2", len(lay.Layers[0].Wires))
	}
}

func TestFromShapesDefaults(t *testing.T) {
	wire := gdsii.Boundary{Layer: 1, Datatype: 0, Pts: rectPts(geom.R(0, 0, 1600, 50))}
	opts := Options{Rules: testOpts().Rules} // no window, no die
	lay, err := FromShapes(gdsReader(t, wire), opts)
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
	if _, err := FromShapes(gdsReader(t), testOpts()); err == nil {
		t.Fatal("shapeless library must error")
	}
	wire := gdsii.Boundary{Layer: 1, Pts: rectPts(geom.R(0, 0, 10, 10))}
	if _, err := FromShapes(gdsReader(t, wire), Options{}); err == nil {
		t.Fatal("zero rules must error")
	}
}

func TestExtractFillRegionsOrientation(t *testing.T) {
	rules := testOpts().Rules
	g, err := grid.New(geom.R(0, 0, 1000, 1000), 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Vertical wires → vertical slabs preferred → free pieces should be
	// tall, not wide.
	var vert []geom.Rect
	for x := int64(100); x < 900; x += 100 {
		vert = append(vert, geom.R(x, 0, x+16, 1000))
	}
	regions := ExtractFillRegions(g, vert, rules)
	if len(regions) == 0 {
		t.Fatal("no regions extracted")
	}
	tall := 0
	for _, r := range regions {
		if r.H() > r.W() {
			tall++
		}
	}
	if tall < len(regions)/2 {
		t.Fatalf("vertical wires should produce mostly tall regions: %d of %d", tall, len(regions))
	}
}

func rectPts(r geom.Rect) []geom.Point {
	return []geom.Point{
		{X: r.XL, Y: r.YL}, {X: r.XH, Y: r.YL},
		{X: r.XH, Y: r.YH}, {X: r.XL, Y: r.YH},
	}
}
