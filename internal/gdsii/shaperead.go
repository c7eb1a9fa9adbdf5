package gdsii

import (
	"bufio"
	"fmt"
	"io"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
)

// ShapeReader streams (layer, datatype, rectangle) shapes out of a
// GDSII stream without ever materializing its shapes: each BOUNDARY is
// decomposed into rectangles as it is parsed and handed out one at a
// time, so ingesting an arbitrarily large design holds at most one
// polygon's worth of state. Layer numbers are translated from the
// on-disk 1-based convention to zero-based layout indices. Unsupported
// elements (paths, references, texts) are skipped.
type ShapeReader struct {
	br  *bufio.Reader
	lim layio.Limits
	hdr layio.Header

	// Rectangles of the boundary being drained.
	pend    []geom.Rect
	pendIdx int
	pendLay int
	pendDT  int

	// Element being accumulated.
	inElem bool
	layer  int
	dt     int
	pts    []geom.Point

	inStruct   bool
	structName string
	sawHeader  bool
	done       bool
	err        error

	records, shapes int64
}

// NewShapeReader opens a streaming reader over r under lim. The format
// bounds each record's payload at 65531 bytes, so lim.MaxRecords also
// caps total parse work; lim.MaxShapes caps the BOUNDARY elements.
func NewShapeReader(r io.Reader, lim layio.Limits) *ShapeReader {
	return &ShapeReader{br: bufio.NewReader(r), lim: lim}
}

// Header returns the stream metadata gathered so far (the library name,
// once the LIBNAME record has been parsed).
func (sr *ShapeReader) Header() layio.Header { return sr.hdr }

// Next returns the next shape, io.EOF after ENDLIB, or a terminal parse
// error. Errors are sticky.
func (sr *ShapeReader) Next() (layio.Shape, error) {
	if sr.err != nil {
		return layio.Shape{}, sr.err
	}
	for {
		if sr.pendIdx < len(sr.pend) {
			r := sr.pend[sr.pendIdx]
			sr.pendIdx++
			return layio.Shape{Layer: sr.pendLay - 1, Datatype: sr.pendDT, Rect: r}, nil
		}
		if sr.done {
			return layio.Shape{}, io.EOF
		}
		if err := sr.advance(); err != nil {
			if err != io.EOF {
				sr.err = err
			}
			return layio.Shape{}, err
		}
	}
}

// advance consumes records until a boundary completes (filling pend) or
// the stream ends (setting done).
func (sr *ShapeReader) advance() error {
	for {
		rec, err := readRecord(sr.br)
		if err == io.EOF {
			if sr.sawHeader {
				return fmt.Errorf("gdsii: missing ENDLIB")
			}
			return fmt.Errorf("gdsii: empty stream")
		}
		if err != nil {
			return err
		}
		sr.records++
		if sr.lim.MaxRecords > 0 && sr.records > sr.lim.MaxRecords {
			return fmt.Errorf("gdsii: %w: more than %d records", layio.ErrLimit, sr.lim.MaxRecords)
		}
		switch rec.typ {
		case RecHeader:
			sr.sawHeader = true
		case RecLibName:
			sr.hdr.Name = rec.str()
		case RecBgnStr:
			sr.inStruct = true
			sr.structName = ""
		case RecStrName:
			if sr.inStruct {
				sr.structName = rec.str()
			}
		case RecEndStr:
			sr.inStruct = false
		case RecBoundary:
			sr.shapes++
			if sr.lim.MaxShapes > 0 && sr.shapes > sr.lim.MaxShapes {
				return fmt.Errorf("gdsii: %w: more than %d shapes", layio.ErrLimit, sr.lim.MaxShapes)
			}
			sr.inElem = true
			sr.layer, sr.dt = 0, 0
			sr.pts = sr.pts[:0]
		case RecLayer:
			if sr.inElem {
				v, err := rec.int16s()
				if err != nil || len(v) == 0 {
					return fmt.Errorf("gdsii: bad LAYER record: %v", err)
				}
				sr.layer = int(v[0])
			}
		case RecDatatype:
			if sr.inElem {
				v, err := rec.int16s()
				if err != nil || len(v) == 0 {
					return fmt.Errorf("gdsii: bad DATATYPE record: %v", err)
				}
				sr.dt = int(v[0])
			}
		case RecXY:
			if sr.inElem {
				v, err := rec.int32s()
				if err != nil {
					return err
				}
				if len(v)%2 != 0 {
					return fmt.Errorf("gdsii: odd XY coordinate count")
				}
				for i := 0; i+1 < len(v); i += 2 {
					sr.pts = append(sr.pts, geom.Point{X: int64(v[i]), Y: int64(v[i+1])})
				}
				if n := len(sr.pts); n >= 2 && sr.pts[0] == sr.pts[n-1] {
					sr.pts = sr.pts[:n-1]
				}
			}
		case RecEndEl:
			if sr.inElem && sr.inStruct {
				rects, err := (geom.Polygon{Pts: sr.pts}).ToRects()
				if err != nil {
					return fmt.Errorf("gdsii: structure %q: %v", sr.structName, err)
				}
				sr.inElem = false
				if len(rects) > 0 {
					sr.pend, sr.pendIdx = rects, 0
					sr.pendLay, sr.pendDT = sr.layer, sr.dt
					return nil
				}
			}
			sr.inElem = false
		case RecEndLib:
			sr.done = true
			return nil
		default:
			// Skip records we do not model.
		}
	}
}
