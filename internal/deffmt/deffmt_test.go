package deffmt

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"

	_ "dummyfill/internal/textfmt" // registered so the priority test has a rival sniffer
)

func TestSniff(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"VERSION 5.8 ;\nDESIGN d ;\n", true},
		{"DIEAREA ( 0 0 ) ( 10 10 ) ;\n", true},
		{"  \n\t ROW r cs 0 0 N ;\n", true},
		{"# generated deck\n# second comment\nCOMPONENTS 3 ;\n", true},
		{"DIEA", true}, // keyword truncated by the sniff window
		{"layout x\n", false},
		{"", false},
		{"# a comment that never ends within the sniff window so the format is undecidable", false},
		{"VERSIONS 5.8 ;\n", false}, // not a keyword, just a shared prefix
		{"\x00\x01binary", false},
	}
	for _, c := range cases {
		if got := sniff([]byte(c.in)); got != c.want {
			t.Errorf("sniff(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestRegistryPriority checks that the registry consults the DEF sniffer
// before the permissive text sniffer: a '#'-leading DEF deck must detect
// as DEF, while genuine text decks keep detecting as text.
func TestRegistryPriority(t *testing.T) {
	f, err := layio.Detect([]byte("# fill deck\nVERSION 5.8 ;\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != FormatName {
		t.Fatalf("comment-leading DEF detected as %q", f.Name)
	}
	f, err = layio.Detect([]byte("# comment\nlayout x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "text" {
		t.Fatalf("comment-leading text deck detected as %q", f.Name)
	}
}

// readAll drains a DEF stream, returning the shapes, the final header,
// and the first error (io.EOF excluded).
func readAll(t *testing.T, in string) ([]layio.Shape, layio.Header, error) {
	t.Helper()
	sr := NewShapeReader(strings.NewReader(in), layio.Limits{})
	var shapes []layio.Shape
	for {
		s, err := sr.Next()
		if err == io.EOF {
			return shapes, sr.Header(), nil
		}
		if err != nil {
			return shapes, sr.Header(), err
		}
		shapes = append(shapes, s)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	sg := &layout.SiteGrid{SiteW: 10, RowH: 50, Rows: 4, Sites: 20}
	hdr := layio.Header{Name: "rt", Die: geom.R(0, 0, 200, 200), Sites: sg}
	var buf bytes.Buffer
	sw, err := NewShapeWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []layio.Shape{
		{Layer: 0, Datatype: layio.DatatypeWire, Rect: geom.R(3, 7, 41, 19)},
		{Layer: 2, Datatype: layio.DatatypeWire, Rect: geom.R(100, 100, 130, 140)},
		{Layer: 0, Datatype: layio.DatatypeFill, Rect: geom.R(20, 50, 60, 100)}, // site-aligned: library filler
		{Layer: 1, Datatype: layio.DatatypeFill, Rect: geom.R(5, 5, 9, 9)},      // off-grid: explicit F master
	}
	for _, s := range shapes {
		if err := sw.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FILL_X4") {
		t.Fatalf("site-aligned fill not emitted as a library filler:\n%s", buf.String())
	}

	got, ghdr, err := readAll(t, buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(shapes) {
		t.Fatalf("re-read %d shapes, want %d", len(got), len(shapes))
	}
	for i, s := range shapes {
		if got[i] != s {
			t.Errorf("shape %d: %+v, want %+v", i, got[i], s)
		}
	}
	if ghdr.Name != "rt" || ghdr.Die != hdr.Die {
		t.Errorf("header name/die %q/%v, want %q/%v", ghdr.Name, ghdr.Die, hdr.Name, hdr.Die)
	}
	if ghdr.Sites == nil || *ghdr.Sites != *sg {
		t.Errorf("derived lattice %+v, want %+v", ghdr.Sites, *sg)
	}
	if ghdr.NumLayers != 3 {
		t.Errorf("NumLayers %d, want 3", ghdr.NumLayers)
	}
	if want := (layout.Rules{MinWidth: 1, MinSpace: 0, MinArea: 1}); ghdr.Rules != want {
		t.Errorf("synthesized rules %+v, want %+v", ghdr.Rules, want)
	}
}

// TestDerivePerRowStatements exercises the one-statement-per-row DEF
// style, where the row height must be recovered from the origins.
func TestDerivePerRowStatements(t *testing.T) {
	deck := `VERSION 5.8 ;
DIEAREA ( 0 0 ) ( 100 150 ) ;
ROW r0 cs 0 0 N DO 10 BY 1 STEP 10 0 ;
ROW r1 cs 0 50 N DO 10 BY 1 STEP 10 0 ;
ROW r2 cs 0 100 N DO 8 BY 1 STEP 10 0 ;
COMPONENTS 1 ;
- fill_0 FILL_X2 + PLACED ( 0 50 ) N ;
END COMPONENTS
END DESIGN
`
	shapes, hdr, err := readAll(t, deck)
	if err != nil {
		t.Fatal(err)
	}
	want := layout.SiteGrid{SiteW: 10, RowH: 50, Rows: 3, Sites: 10}
	if hdr.Sites == nil || *hdr.Sites != want {
		t.Fatalf("derived lattice %+v, want %+v", hdr.Sites, want)
	}
	if len(shapes) != 1 || shapes[0].Rect != geom.R(0, 50, 20, 100) {
		t.Fatalf("filler shape %+v, want one 2-site filler at (0,50)", shapes)
	}
}

func TestReaderErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"unsupported section", "NETS 1 ;\n"},
		{"malformed diearea", "DIEAREA ( 0 0 ) ( x y ) ;\n"},
		{"component outside COMPONENTS", "- c W0_4x4 + PLACED ( 0 0 ) N ;\n"},
		{"filler without rows", "COMPONENTS 1 ;\n- f FILL_X2 + PLACED ( 0 0 ) N ;\n"},
		{"unplaced component", "COMPONENTS 1 ;\n- c W0_4x4 ;\n"},
		{"opaque master", "COMPONENTS 1 ;\n- c NAND2 + PLACED ( 0 0 ) N ;\n"},
		{"unterminated statement", "VERSION 5.8"},
		{"inconsistent site widths", "ROW a cs 0 0 N DO 4 BY 1 STEP 10 0 ;\nROW b cs 0 50 N DO 4 BY 1 STEP 20 0 ;\nCOMPONENTS 0 ;\n"},
		{"row repetition without step", "ROW a cs 0 0 N DO 4 BY 1 ;\n"},
		{"unexpected END", "END NETS\n"},
		{"hostile row repetition", "ROW a cs 0 0 N DO 9999999999 BY 9999999999 STEP 1 1 ;\nCOMPONENTS 0 ;\n"},
		{"hostile row pitch", "ROW a cs 0 0 N DO 2 BY 2 STEP 99999999999999 99999999999999 ;\nCOMPONENTS 0 ;\n"},
		// Rows-only decks derive their lattice at END DESIGN / EOF instead
		// of at COMPONENTS; an inconsistent ROW set must fail there too,
		// not silently parse without a lattice.
		{"inconsistent rows-only deck", "ROW a cs 0 0 N DO 4 BY 1 STEP 10 0 ;\nROW b cs 0 50 N DO 4 BY 1 STEP 20 0 ;\nEND DESIGN\n"},
		{"inconsistent rows-only deck at EOF", "ROW a cs 0 0 N DO 4 BY 1 STEP 10 0 ;\nROW b cs 0 50 N DO 4 BY 1 STEP 20 0 ;\n"},
		// A COMPONENTS section must list what it declares and be closed,
		// or the deck lost geometry: cut after its first component, or
		// mis-counted.
		{"truncated COMPONENTS section", "COMPONENTS 3 ;\n- a W0_4x4 + PLACED ( 0 0 ) N ;\n"},
		{"mis-counted COMPONENTS section", "COMPONENTS 3 ;\n- a W0_4x4 + PLACED ( 0 0 ) N ;\nEND COMPONENTS\nEND DESIGN\n"},
		{"COMPONENTS section open at END DESIGN", "COMPONENTS 1 ;\n- a W0_4x4 + PLACED ( 0 0 ) N ;\nEND DESIGN\n"},
		{"COMPONENTS section reopened", "COMPONENTS 2 ;\n- a W0_4x4 + PLACED ( 0 0 ) N ;\nCOMPONENTS 1 ;\n- b W0_4x4 + PLACED ( 9 0 ) N ;\nEND COMPONENTS\n"},
		{"malformed COMPONENTS count", "COMPONENTS many ;\nEND COMPONENTS\n"},
		{"negative COMPONENTS count", "COMPONENTS -1 ;\nEND COMPONENTS\n"},
	}
	for _, c := range cases {
		if _, _, err := readAll(t, c.in); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.in)
		}
	}
}

// TestRowsOnlyDeck checks that a deck with rows but no components still
// yields the derived lattice and one implied layer at EOF.
func TestRowsOnlyDeck(t *testing.T) {
	shapes, hdr, err := readAll(t, "ROW r cs 0 0 N DO 4 BY 2 STEP 10 50 ;\nEND DESIGN\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 0 {
		t.Fatalf("rows-only deck produced shapes %v", shapes)
	}
	want := layout.SiteGrid{SiteW: 10, RowH: 50, Rows: 2, Sites: 4}
	if hdr.Sites == nil || *hdr.Sites != want {
		t.Fatalf("derived lattice %+v, want %+v", hdr.Sites, want)
	}
	if hdr.NumLayers != 1 {
		t.Fatalf("NumLayers %d, want 1", hdr.NumLayers)
	}
}

func TestShapeLimit(t *testing.T) {
	deck := "COMPONENTS 3 ;\n" +
		"- a W0_4x4 + PLACED ( 0 0 ) N ;\n" +
		"- b W0_4x4 + PLACED ( 10 0 ) N ;\n" +
		"- c W0_4x4 + PLACED ( 20 0 ) N ;\n"
	sr := NewShapeReader(strings.NewReader(deck), layio.Limits{MaxShapes: 2})
	var err error
	for err == nil {
		_, err = sr.Next()
	}
	if err == io.EOF {
		t.Fatal("MaxShapes limit not enforced")
	}
}

func TestWriterRejects(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewShapeWriter(&buf, layio.Header{Name: "w", Die: geom.R(0, 0, 10, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Write(layio.Shape{Layer: 0, Datatype: 7, Rect: geom.R(0, 0, 1, 1)}); err == nil {
		t.Error("writer accepted a non-component datatype")
	}
	sw2, err := NewShapeWriter(&buf, layio.Header{Name: "w", Die: geom.R(0, 0, 10, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw2.Write(layio.Shape{Layer: 0, Datatype: layio.DatatypeWire, Rect: geom.R(5, 5, 5, 9)}); err == nil {
		t.Error("writer accepted an empty rect")
	}
}

// TestReadStatementsAcrossLines reads a deck whose every component spans
// three lines and which is many times the scanner's 64 KiB buffer, so
// statements straddle buffer refills: the tokens of a statement's
// earlier lines must survive the refill overwriting them.
func TestReadStatementsAcrossLines(t *testing.T) {
	h, shapes := rowDeckShapes()
	var deck bytes.Buffer
	writeDeck(t, &deck, h, shapes)
	split := bytes.ReplaceAll(deck.Bytes(), []byte(" + PLACED ( "), []byte("\n+ PLACED\n( "))
	got, _, err := readAll(t, string(split))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, shapes) {
		t.Fatalf("read %d shapes, want the %d written", len(got), len(shapes))
	}
}
