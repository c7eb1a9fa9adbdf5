package oasis

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"testing"

	"dummyfill/internal/gdsii"
	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// sampleShapes is a small single-cell stream exercising modal reuse,
// a layer change and negative coordinates (on-disk 1-based layers).
var sampleShapes = []Shape{
	{Layer: 1, Datatype: 1, Rect: geom.R(0, 0, 10, 10)},
	{Layer: 1, Datatype: 1, Rect: geom.R(20, 0, 30, 10)}, // same size: modal reuse
	{Layer: 1, Datatype: 1, Rect: geom.R(40, 0, 55, 10)}, // new width
	{Layer: 2, Datatype: 1, Rect: geom.R(0, 20, 10, 30)}, // new layer
	{Layer: 2, Datatype: 1, Rect: geom.R(-5, -9, 3, 1)},  // negative coords
}

// writeShapes encodes shapes in order as one OASIS cell.
func writeShapes(w io.Writer, cell string, shapes []Shape) error {
	sw := NewStreamWriter(w)
	if err := sw.Begin(cell, 1000); err != nil {
		return err
	}
	for _, s := range shapes {
		if err := sw.WriteShape(s); err != nil {
			return err
		}
	}
	return sw.Close()
}

// writeSample encodes sampleShapes as cell TOP.
func writeSample(w io.Writer) error { return writeShapes(w, "TOP", sampleShapes) }

// drain reads every shape of an OASIS stream through a ShapeReader.
func drain(src io.Reader, lim layio.Limits) (layio.Header, []layio.Shape, error) {
	sr := NewShapeReader(src, lim)
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

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSample(&buf); err != nil {
		t.Fatal(err)
	}
	// The START record follows the magic: version string, then the unit.
	r := &reader{br: bufio.NewReader(bytes.NewReader(buf.Bytes()[len(Magic):]))}
	if rt, err := r.readUint(); err != nil || rt != recStart {
		t.Fatalf("first record %d (%v), want START", rt, err)
	}
	if _, err := r.readString(); err != nil {
		t.Fatal(err)
	}
	if unit, err := r.readReal(); err != nil || unit != 1000 {
		t.Fatalf("unit %v (%v), want 1000", unit, err)
	}
	hdr, shapes, err := drain(&buf, layio.DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Name != "TOP" {
		t.Fatalf("cell name %q", hdr.Name)
	}
	if len(shapes) != len(sampleShapes) {
		t.Fatalf("shapes: %d vs %d", len(shapes), len(sampleShapes))
	}
	for i, want := range sampleShapes {
		// The reader returns zero-based layers; the file stores 1-based.
		got := Shape{Layer: shapes[i].Layer + 1, Datatype: shapes[i].Datatype, Rect: shapes[i].Rect}
		if got != want {
			t.Fatalf("shape %d: %+v vs %+v", i, got, want)
		}
	}
}

func TestEndRecordIs256Bytes(t *testing.T) {
	var buf bytes.Buffer
	if err := writeShapes(&buf, "C", nil); err != nil {
		t.Fatal(err)
	}
	// Stream = magic + START(...) + CELL + END(256). Verify the END block:
	// the last 256 bytes start with the byte 0x02.
	b := buf.Bytes()
	if len(b) < 256 {
		t.Fatalf("stream too short: %d", len(b))
	}
	if b[len(b)-256] != recEnd {
		t.Fatalf("END record not 256 bytes from the end (found %#x)", b[len(b)-256])
	}
}

func TestVarintRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	vals := []uint64{0, 1, 127, 128, 300, 1 << 20, 1 << 40, 1<<63 - 1}
	for _, v := range vals {
		if err := writeUint(bw, v); err != nil {
			t.Fatal(err)
		}
	}
	svals := []int64{0, 1, -1, 63, -64, 1 << 30, -(1 << 30)}
	for _, v := range svals {
		if err := writeSint(bw, v); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	r := &reader{br: bufio.NewReader(&buf)}
	for _, want := range vals {
		got, err := r.readUint()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("uint %d -> %d", want, got)
		}
	}
	for _, want := range svals {
		got, err := r.readSint()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("sint %d -> %d", want, got)
		}
	}
}

func TestModalCompressionShrinksRepeatedFills(t *testing.T) {
	// 1000 identical-size squares: modal reuse must bring the per-shape
	// cost far below GDSII's 64 bytes.
	rng := rand.New(rand.NewSource(4))
	sol := &layout.Solution{}
	for i := 0; i < 1000; i++ {
		x, y := rng.Int63n(100000), rng.Int63n(100000)
		sol.Fills = append(sol.Fills, layout.Fill{Layer: 0, Rect: geom.R(x, y, x+320, y+320)})
	}
	f, err := layio.Lookup(FormatName)
	if err != nil {
		t.Fatal(err)
	}
	lay := &layout.Layout{Name: "F"}
	oasSize, err := layio.EncodedSize(func(w io.Writer) error {
		return layio.WriteDeck(w, f, layio.SolutionDeck, lay, &layout.Solution{Fills: ModalSorted(sol.Fills)})
	})
	if err != nil {
		t.Fatal(err)
	}
	gdsSize, err := gdsii.DeckSize(layio.SolutionDeck, lay, sol)
	if err != nil {
		t.Fatal(err)
	}
	perShape := float64(oasSize-256-64) / 1000 // minus END + header slack
	if perShape > 12 {
		t.Fatalf("OASIS per-shape cost %.1f bytes, expected < 12 with modal reuse", perShape)
	}
	if oasSize*3 > gdsSize {
		t.Fatalf("OASIS (%d) should be well under a third of GDSII (%d)", oasSize, gdsSize)
	}
}

func TestFromSolutionSortsForReuse(t *testing.T) {
	sol := &layout.Solution{Fills: []layout.Fill{
		{Layer: 1, Rect: geom.R(0, 0, 5, 5)},
		{Layer: 0, Rect: geom.R(30, 0, 35, 5)},
		{Layer: 0, Rect: geom.R(10, 0, 20, 5)},
		{Layer: 0, Rect: geom.R(0, 0, 5, 5)},
	}}
	in := append([]layout.Fill(nil), sol.Fills...)
	got := ModalSorted(sol.Fills)
	want := []layout.Fill{
		{Layer: 0, Rect: geom.R(0, 0, 5, 5)},
		{Layer: 0, Rect: geom.R(30, 0, 35, 5)},
		{Layer: 0, Rect: geom.R(10, 0, 20, 5)},
		{Layer: 1, Rect: geom.R(0, 0, 5, 5)},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ModalSorted = %v, want %v", got, want)
		}
	}
	for i := range in {
		if sol.Fills[i] != in[i] {
			t.Fatal("ModalSorted reordered its input")
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, _, err := drain(bytes.NewReader([]byte("not oasis")), layio.DefaultLimits()); err == nil {
		t.Fatal("bad magic must error")
	}
	// Valid magic, truncated body.
	if _, _, err := drain(bytes.NewReader([]byte(Magic)), layio.DefaultLimits()); err == nil {
		t.Fatal("truncated stream must error")
	}
}

func TestReadNeverPanicsOnMutation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSample(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(12))
	for it := 0; it < 300; it++ {
		mut := append([]byte(nil), valid...)
		for k := 0; k < 1+rng.Intn(3); k++ {
			mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("it %d: reader panicked: %v", it, r)
				}
			}()
			_, _, _ = drain(bytes.NewReader(mut), layio.DefaultLimits())
		}()
	}
}

func TestWriteRejectsEmptyRect(t *testing.T) {
	if err := writeShapes(&bytes.Buffer{}, "X", []Shape{{Layer: 1, Rect: geom.Rect{}}}); err == nil {
		t.Fatal("empty rect must be rejected")
	}
}

func BenchmarkOASISWrite10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sol := &layout.Solution{}
	for i := 0; i < 10000; i++ {
		x, y := rng.Int63n(1000000), rng.Int63n(1000000)
		sol.Fills = append(sol.Fills, layout.Fill{Layer: i % 3, Rect: geom.R(x, y, x+300, y+300)})
	}
	f, err := layio.Lookup(FormatName)
	if err != nil {
		b.Fatal(err)
	}
	lay, sorted := &layout.Layout{Name: "B"}, &layout.Solution{Fills: ModalSorted(sol.Fills)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layio.EncodedSize(func(w io.Writer) error {
			return layio.WriteDeck(w, f, layio.SolutionDeck, lay, sorted)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEmptySolutionRoundTrip(t *testing.T) {
	f, err := layio.Lookup(FormatName)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := layio.WriteDeck(&buf, f, layio.SolutionDeck, &layout.Layout{Name: "E"}, &layout.Solution{}); err != nil {
		t.Fatal(err)
	}
	hdr, shapes, err := drain(&buf, layio.DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 0 || hdr.Name != "E" {
		t.Fatalf("empty solution round trip: %q, %d shapes", hdr.Name, len(shapes))
	}
}
