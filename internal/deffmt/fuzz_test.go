package deffmt

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// drain reads r to the end under lim, returning the first error (io.EOF
// excluded).
func drain(r io.Reader, lim layio.Limits) error {
	sr := NewShapeReader(r, lim)
	for {
		if _, err := sr.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// FuzzRead exercises the DEF ShapeReader with arbitrary byte streams; any
// input must produce a clean error or a drained shape stream, never a
// panic.
// Run with `go test -fuzz FuzzRead ./internal/deffmt` for deep
// exploration; plain `go test` replays the seed corpus.
func FuzzRead(f *testing.F) {
	var valid bytes.Buffer
	sw, err := NewShapeWriter(&valid, layio.Header{
		Name: "fuzz", Die: geom.R(0, 0, 200, 200),
		Sites: &layout.SiteGrid{SiteW: 10, RowH: 50, Rows: 4, Sites: 20},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []layio.Shape{
		{Layer: 0, Datatype: layio.DatatypeWire, Rect: geom.R(3, 7, 41, 19)},
		{Layer: 2, Datatype: layio.DatatypeWire, Rect: geom.R(100, 100, 130, 140)},
		{Layer: 0, Datatype: layio.DatatypeFill, Rect: geom.R(20, 50, 60, 100)},
		{Layer: 1, Datatype: layio.DatatypeFill, Rect: geom.R(5, 5, 9, 9)},
	} {
		if err := sw.Write(s); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte{})
	// A tiny well-formed deck, truncations, hostile counts, and a filler
	// component with no ROW to size it against.
	f.Add([]byte("VERSION 5.8 ;\nDESIGN d ;\nDIEAREA ( 0 0 ) ( 100 100 ) ;\n" +
		"ROW r cs 0 0 N DO 10 BY 2 STEP 10 50 ;\nCOMPONENTS 1 ;\n" +
		"- fill_0 FILL_X1 + PLACED ( 0 0 ) N ;\nEND COMPONENTS\nEND DESIGN\n"))
	f.Add([]byte("DIEAREA ( 0 0 ) ( 10"))
	f.Add([]byte("# def deck\nVERSION 5.8 ;\nEND DESIGN\n"))
	f.Add([]byte("COMPONENTS 999999999 ;\n- f FILL_X99 + PLACED ( 0 0 ) N ;\n"))
	f.Add([]byte("ROW r cs 0 0 N DO 9999999999 BY 9999999999 STEP 1 1 ;\nCOMPONENTS 0 ;\n"))
	// Shape bomb: more components than the tight limits below allow.
	f.Add(bytes.Repeat([]byte("- a W0_4x4 + PLACED ( 0 0 ) N ;\n"), 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Default and tight limits must both end in a clean error
		// (wrapping ErrLimit when it is the limit that trips) or a drained
		// stream, never a panic.
		_ = drain(bytes.NewReader(data), DefaultLimits())
		if err := drain(bytes.NewReader(data), layio.Limits{MaxRecords: 16, MaxShapes: 2}); err != nil {
			_ = errors.Is(err, layio.ErrLimit)
		}
		// Errors are sticky: a failed Next keeps failing.
		sr := NewShapeReader(bytes.NewReader(data), layio.Limits{MaxRecords: 4096, MaxShapes: 256})
		for {
			_, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if _, err2 := sr.Next(); err2 != err {
					t.Fatalf("non-sticky ShapeReader error: %v then %v", err, err2)
				}
				break
			}
		}
	})
}
