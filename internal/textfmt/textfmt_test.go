package textfmt

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"

	"dummyfill/internal/fill"
	"dummyfill/internal/geom"
	"dummyfill/internal/ingest"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
	"dummyfill/internal/synth"
)

// readLayout ingests a text layout the way every format is ingested:
// the registered streaming reader under the default limits, drained by
// ingest.FromShapes.
func readLayout(r io.Reader) (*layout.Layout, error) {
	return ingest.FromShapes(NewShapeReader(r, layio.DefaultLimits()), ingest.Options{})
}

// readFills drains a text solution through the streaming reader,
// returning its name and fills.
func readFills(r io.Reader) (string, []layout.Fill, error) {
	sr := NewShapeReader(r, layio.DefaultLimits())
	var fills []layout.Fill
	for {
		s, err := sr.Next()
		if err == io.EOF {
			return sr.Header().Name, fills, nil
		}
		if err != nil {
			return "", nil, err
		}
		fills = append(fills, layout.Fill{Layer: s.Layer, Rect: s.Rect})
	}
}

func TestLayoutRoundTrip(t *testing.T) {
	src, err := synth.Generate(synth.DesignTiny())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLayout(&buf, src); err != nil {
		t.Fatal(err)
	}
	back, err := readLayout(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != src.Name || back.Die != src.Die || back.Window != src.Window || back.Rules != src.Rules {
		t.Fatalf("header mismatch: %+v", back)
	}
	if len(back.Layers) != len(src.Layers) {
		t.Fatalf("layers %d vs %d", len(back.Layers), len(src.Layers))
	}
	for li := range src.Layers {
		if len(back.Layers[li].Wires) != len(src.Layers[li].Wires) {
			t.Fatalf("layer %d wires differ", li)
		}
		for i, w := range src.Layers[li].Wires {
			if back.Layers[li].Wires[i] != w {
				t.Fatalf("layer %d wire %d mismatch", li, i)
			}
		}
		if len(back.Layers[li].FillRegions) != len(src.Layers[li].FillRegions) {
			t.Fatalf("layer %d regions differ", li)
		}
	}
}

func TestSolutionRoundTrip(t *testing.T) {
	src, err := synth.Generate(synth.DesignTiny())
	if err != nil {
		t.Fatal(err)
	}
	e, err := fill.New(src, fill.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	f, err := layio.Lookup(FormatName)
	if err != nil {
		t.Fatal(err)
	}
	if err := layio.WriteDeck(&buf, f, layio.SolutionDeck, src, &res.Solution); err != nil {
		t.Fatal(err)
	}
	name, fills, err := readFills(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != src.Name {
		t.Fatalf("name %q", name)
	}
	if len(fills) != len(res.Solution.Fills) {
		t.Fatalf("fills %d vs %d", len(fills), len(res.Solution.Fills))
	}
	for i := range fills {
		if fills[i] != res.Solution.Fills[i] {
			t.Fatalf("fill %d mismatch", i)
		}
	}
}

func TestReadLayoutHandWritten(t *testing.T) {
	in := `
# a tiny hand-written layout
layout demo
die 0 0 200 200
window 100
rules 8 8 64 80

layer 0
wire 10 10 90 30
region 10 40 190 190

layer 1
region 10 10 190 190
`
	lay, err := readLayout(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if lay.Name != "demo" || len(lay.Layers) != 2 {
		t.Fatalf("parsed %+v", lay)
	}
	if lay.Layers[0].Wires[0] != geom.R(10, 10, 90, 30) {
		t.Fatalf("wire parsed wrong: %v", lay.Layers[0].Wires[0])
	}
}

func TestReadLayoutErrors(t *testing.T) {
	cases := []string{
		"wire 0 0 10 10",                        // shape before layer
		"layout x\ndie 0 0 10 10\nlayer 1",      // non-sequential layer
		"layout x\ndie 0 0",                     // bad die
		"layout x\nfrobnicate 1",                // unknown directive
		"layout x\ndie 0 0 100 100\nwindow zap", // bad int
		"layout x\ndie 0 0 100 100\nwindow 50\nrules 8 8 64 0\nlayer 0\nwire 5 5 5 9", // degenerate rect
	}
	for i, c := range cases {
		if _, err := readLayout(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d parsed without error", i)
		}
	}
}

func TestReadSolutionErrors(t *testing.T) {
	cases := []string{
		"fill 0 0 0 10",     // missing a coordinate
		"fill -1 0 0 10 10", // negative layer
		"bogus",             // unknown directive
		"fill a 0 0 10 10",  // bad layer
	}
	for i, c := range cases {
		_, _, err := readFills(strings.NewReader(c))
		if err == nil {
			t.Fatalf("case %d parsed without error", i)
		}
		if !strings.Contains(err.Error(), strconv.Quote(c)) {
			t.Errorf("case %d: error %q does not quote the line", i, err)
		}
	}
}

func TestSanitizeName(t *testing.T) {
	var buf bytes.Buffer
	lay := &layout.Layout{
		Name: "has spaces", Die: geom.R(0, 0, 100, 100), Window: 50,
		Rules:  layout.Rules{MinWidth: 4, MinSpace: 4, MinArea: 16},
		Layers: []*layout.Layer{{Wires: []geom.Rect{geom.R(0, 0, 10, 10)}}},
	}
	if err := WriteLayout(&buf, lay); err != nil {
		t.Fatal(err)
	}
	back, err := readLayout(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "has_spaces" {
		t.Fatalf("name not sanitized: %q", back.Name)
	}
}
