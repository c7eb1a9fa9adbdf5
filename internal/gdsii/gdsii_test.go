package gdsii

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// decodeReal8 converts a GDSII 8-byte real to float64.
func decodeReal8(bits uint64) float64 {
	if bits == 0 {
		return 0
	}
	sign := 1.0
	if bits&(1<<63) != 0 {
		sign = -1
	}
	exp := int((bits>>56)&0x7F) - 64
	mant := float64(bits&((1<<56)-1)) / float64(uint64(1)<<56)
	return sign * mant * math.Pow(16, float64(exp))
}

func TestReal8KnownValues(t *testing.T) {
	// 1.0 in GDSII real: exponent 65 (16^1), mantissa 1/16 → 0x4110000000000000.
	if got := encodeReal8(1.0); got != 0x4110000000000000 {
		t.Fatalf("encode(1.0) = %#016x", got)
	}
	if got := decodeReal8(0x4110000000000000); got != 1.0 {
		t.Fatalf("decode = %v, want 1.0", got)
	}
	if got := encodeReal8(0); got != 0 {
		t.Fatalf("encode(0) = %#x", got)
	}
	if got := decodeReal8(0); got != 0 {
		t.Fatalf("decode(0) = %v", got)
	}
}

func TestReal8RoundTrip(t *testing.T) {
	vals := []float64{1e-9, 1e-3, 0.5, 2, 1024, -3.25, 6.25e-10, 123456789}
	for _, v := range vals {
		got := decodeReal8(encodeReal8(v))
		if math.Abs(got-v) > math.Abs(v)*1e-12 {
			t.Errorf("roundtrip(%v) = %v", v, got)
		}
	}
}

func TestQuickReal8RoundTrip(t *testing.T) {
	f := func(mant int32, scale uint8) bool {
		v := float64(mant) * math.Pow(10, float64(int(scale%20)-10))
		got := decodeReal8(encodeReal8(v))
		if v == 0 {
			return got == 0
		}
		return math.Abs(got-v) <= math.Abs(v)*1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Structure and Library are a test fixture: a materialized GDSII
// library written through StreamWriter, for reader tests that need
// polygons and multi-structure inputs.
type Structure struct {
	Name       string
	Boundaries []Boundary
}

type Library struct {
	Name    string
	Structs []Structure
}

func (lib *Library) Write(w io.Writer) error {
	sw := NewStreamWriter(w)
	if err := sw.BeginLibrary(lib.Name); err != nil {
		return err
	}
	for _, st := range lib.Structs {
		if err := sw.BeginStructure(st.Name); err != nil {
			return err
		}
		for _, b := range st.Boundaries {
			if err := sw.WriteBoundary(b); err != nil {
				return err
			}
		}
		if err := sw.EndStructure(); err != nil {
			return err
		}
	}
	return sw.Close()
}

func rectBoundary(layer, dt int, r geom.Rect) Boundary {
	return Boundary{Layer: layer, Datatype: dt, Pts: []geom.Point{
		{X: r.XL, Y: r.YL}, {X: r.XH, Y: r.YL}, {X: r.XH, Y: r.YH}, {X: r.XL, Y: r.YH},
	}}
}

func sampleLibrary() *Library {
	return &Library{
		Name: "LIB",
		Structs: []Structure{{
			Name: "TOP",
			Boundaries: []Boundary{
				{Layer: 1, Datatype: 0, Pts: []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 5}, {X: 0, Y: 5}}},
				{Layer: 2, Datatype: 1, Pts: []geom.Point{{X: 3, Y: 3}, {X: 8, Y: 3}, {X: 8, Y: 9}, {X: 3, Y: 9}}},
			},
		}},
	}
}

// drain reads every shape of a GDSII stream through a ShapeReader.
func drain(r io.Reader, lim layio.Limits) (layio.Header, []layio.Shape, error) {
	sr := NewShapeReader(r, lim)
	var out []layio.Shape
	for {
		s, err := sr.Next()
		if err == io.EOF {
			return sr.Header(), out, nil
		}
		if err != nil {
			return sr.Header(), nil, err
		}
		out = append(out, s)
	}
}

// findRecord returns the first record of type typ in a GDSII stream.
func findRecord(t *testing.T, data []byte, typ byte) *record {
	t.Helper()
	r := bytes.NewReader(data)
	for {
		rec, err := readRecord(r)
		if err != nil {
			t.Fatalf("record type %#x not found: %v", typ, err)
		}
		if rec.typ == typ {
			return rec
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	lib := sampleLibrary()
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	units := findRecord(t, buf.Bytes(), RecUnits)
	if len(units.data) != 16 {
		t.Fatalf("UNITS payload %d bytes, want 16", len(units.data))
	}
	uu := decodeReal8(binary.BigEndian.Uint64(units.data[0:]))
	mdbu := decodeReal8(binary.BigEndian.Uint64(units.data[8:]))
	if math.Abs(uu-1e-3) > 1e-18 || math.Abs(mdbu-1e-9) > 1e-24 {
		t.Fatalf("units %v %v", uu, mdbu)
	}
	if got := findRecord(t, buf.Bytes(), RecStrName).str(); got != "TOP" {
		t.Fatalf("structure name %q", got)
	}
	hdr, shapes, err := drain(&buf, layio.DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Name != "LIB" {
		t.Fatalf("lib name %q", hdr.Name)
	}
	want := []layio.Shape{
		{Layer: 0, Datatype: 0, Rect: geom.R(0, 0, 10, 5)},
		{Layer: 1, Datatype: 1, Rect: geom.R(3, 3, 8, 9)},
	}
	if len(shapes) != len(want) {
		t.Fatalf("shapes %v, want %v", shapes, want)
	}
	for i := range want {
		if shapes[i] != want[i] {
			t.Fatalf("shape %d = %+v, want %+v", i, shapes[i], want[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, _, err := drain(bytes.NewReader(nil), layio.DefaultLimits()); err == nil {
		t.Fatal("empty stream must error")
	}
	// Stream without ENDLIB.
	var buf bytes.Buffer
	if err := writeInt16s(&buf, RecHeader, 600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := drain(&buf, layio.DefaultLimits()); err == nil {
		t.Fatal("missing ENDLIB must error")
	}
	// Truncated record.
	if _, _, err := drain(bytes.NewReader([]byte{0x00, 0x08, 0x00, 0x02, 0x01}), layio.DefaultLimits()); err == nil {
		t.Fatal("truncated record must error")
	}
}

func TestBoundaryTooFewPoints(t *testing.T) {
	lib := &Library{Name: "X", Structs: []Structure{{
		Name:       "S",
		Boundaries: []Boundary{{Layer: 1, Pts: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}}},
	}}}
	if err := lib.Write(&bytes.Buffer{}); err == nil {
		t.Fatal("degenerate boundary must error")
	}
}

// extract drains a GDSII stream into per-layer rectangle sets, separated
// into wires and fills by datatype.
func extract(t *testing.T, data []byte) (wires, fills map[int][]geom.Rect) {
	t.Helper()
	_, shapes, err := drain(bytes.NewReader(data), layio.DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	wires, fills = map[int][]geom.Rect{}, map[int][]geom.Rect{}
	for _, s := range shapes {
		if s.Datatype == layio.DatatypeFill {
			fills[s.Layer] = append(fills[s.Layer], s.Rect)
		} else {
			wires[s.Layer] = append(wires[s.Layer], s.Rect)
		}
	}
	return wires, fills
}

func fillTestLayout() *layout.Layout {
	return &layout.Layout{
		Name:   "fl",
		Die:    geom.R(0, 0, 1000, 1000),
		Window: 500,
		Rules:  layout.Rules{MinWidth: 2, MinSpace: 2, MinArea: 4},
		Layers: []*layout.Layer{
			{Wires: []geom.Rect{geom.R(0, 0, 100, 50), geom.R(200, 200, 300, 220)}},
			{Wires: []geom.Rect{geom.R(500, 500, 800, 520)}},
		},
	}
}

func TestFromLayoutAndExtract(t *testing.T) {
	lay := fillTestLayout()
	sol := &layout.Solution{Fills: []layout.Fill{
		{Layer: 0, Rect: geom.R(400, 400, 450, 450)},
		{Layer: 1, Rect: geom.R(100, 100, 150, 160)},
	}}
	var buf bytes.Buffer
	if err := layio.WriteDeck(&buf, format, layio.LayoutDeck, lay, sol); err != nil {
		t.Fatal(err)
	}
	wires, fills := extract(t, buf.Bytes())
	if len(wires[0]) != 2 || len(wires[1]) != 1 {
		t.Fatalf("wires extracted wrong: %v", wires)
	}
	if len(fills[0]) != 1 || len(fills[1]) != 1 {
		t.Fatalf("fills extracted wrong: %v", fills)
	}
	if fills[0][0] != geom.R(400, 400, 450, 450) {
		t.Fatalf("fill rect mismatch: %v", fills[0][0])
	}
}

func TestEncodedSizeMatchesWrite(t *testing.T) {
	lay := fillTestLayout()
	sol := &layout.Solution{Fills: []layout.Fill{{Layer: 1, Rect: geom.R(100, 100, 150, 160)}}}
	for _, kind := range []layio.DeckKind{layio.LayoutDeck, layio.SolutionDeck} {
		var buf bytes.Buffer
		if err := layio.WriteDeck(&buf, format, kind, lay, sol); err != nil {
			t.Fatal(err)
		}
		n, err := DeckSize(kind, lay, sol)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("kind %d: DeckSize = %d, written %d", kind, n, buf.Len())
		}
	}
}

func TestFileSizeGrowsWithFills(t *testing.T) {
	lay := fillTestLayout()
	few := &layout.Solution{Fills: []layout.Fill{{Layer: 0, Rect: geom.R(0, 100, 10, 110)}}}
	rng := rand.New(rand.NewSource(1))
	var many layout.Solution
	for i := 0; i < 500; i++ {
		x := rng.Int63n(900)
		y := rng.Int63n(900)
		many.Fills = append(many.Fills, layout.Fill{Layer: 0, Rect: geom.R(x, y, x+5, y+5)})
	}
	sFew, err := DeckSize(layio.LayoutDeck, lay, few)
	if err != nil {
		t.Fatal(err)
	}
	sMany, err := DeckSize(layio.LayoutDeck, lay, &many)
	if err != nil {
		t.Fatal(err)
	}
	if sMany <= sFew {
		t.Fatalf("more fills must produce a bigger file: %d vs %d", sMany, sFew)
	}
	// Each rectangle boundary costs a fixed 64 bytes (BOUNDARY 4 + LAYER 6
	// + DATATYPE 6 + XY 4+5·8 closed ring + ENDEL 4): check the delta.
	perFill := (sMany - sFew) / 499
	if perFill != 64 {
		t.Fatalf("per-fill encoding cost = %d bytes, want 64", perFill)
	}
}

func TestNonRectangularBoundaryExtraction(t *testing.T) {
	lib := &Library{Name: "L", Structs: []Structure{{
		Name: "S",
		Boundaries: []Boundary{{
			Layer: 1,
			Pts: []geom.Point{
				{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 5}, {X: 5, Y: 5}, {X: 5, Y: 10}, {X: 0, Y: 10},
			},
		}},
	}}}
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	wires, _ := extract(t, buf.Bytes())
	var area int64
	for _, r := range wires[0] {
		area += r.Area()
	}
	if area != 75 {
		t.Fatalf("L-shape decomposed area = %d, want 75", area)
	}
}
