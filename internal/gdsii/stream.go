package gdsii

import (
	"bufio"
	"fmt"
	"io"

	"dummyfill/internal/geom"
)

// StreamWriter emits a GDSII stream incrementally: library header, then
// any number of structures, each receiving boundaries one at a time, then
// the library trailer, so the whole shape set never has to exist in
// memory. It is the one GDSII encoder: the registered ShapeWriter (and so
// every deck) writes through it.
//
// Call order: BeginLibrary, then for each structure BeginStructure /
// WriteBoundary·WriteRect… / EndStructure, then Close. A StreamWriter is
// not safe for concurrent use.
type StreamWriter struct {
	bw       *bufio.Writer
	zero12   [12]int16 // deterministic zero timestamps
	began    bool
	inStruct bool
	closed   bool
	xy       []int32 // scratch for boundary coordinate records
}

// NewStreamWriter wraps w; output is buffered and flushed by Close.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{bw: bufio.NewWriter(w)}
}

// BeginLibrary writes the library header with 1e-3 user units and 1e-9
// meters per database unit.
func (sw *StreamWriter) BeginLibrary(name string) error {
	if sw.began {
		return fmt.Errorf("gdsii: BeginLibrary called twice")
	}
	sw.began = true
	if err := writeInt16s(sw.bw, RecHeader, 600); err != nil {
		return err
	}
	if err := writeInt16s(sw.bw, RecBgnLib, sw.zero12[:]...); err != nil {
		return err
	}
	if err := writeString(sw.bw, RecLibName, name); err != nil {
		return err
	}
	return writeReal8s(sw.bw, RecUnits, 1e-3, 1e-9)
}

// BeginStructure opens a structure (cell).
func (sw *StreamWriter) BeginStructure(name string) error {
	if !sw.began || sw.closed {
		return fmt.Errorf("gdsii: BeginStructure outside an open library")
	}
	if sw.inStruct {
		return fmt.Errorf("gdsii: nested BeginStructure")
	}
	sw.inStruct = true
	if err := writeInt16s(sw.bw, RecBgnStr, sw.zero12[:]...); err != nil {
		return err
	}
	return writeString(sw.bw, RecStrName, name)
}

// layerRecords validates layer/datatype against the 2-byte GDSII fields
// and writes their records.
func (sw *StreamWriter) layerRecords(layer, datatype int) error {
	l16, ok := geom.I16(layer)
	if !ok {
		return fmt.Errorf("gdsii: layer %d overflows the 2-byte LAYER field", layer)
	}
	d16, ok := geom.I16(datatype)
	if !ok {
		return fmt.Errorf("gdsii: datatype %d overflows the 2-byte DATATYPE field", datatype)
	}
	if err := writeInt16s(sw.bw, RecLayer, l16); err != nil {
		return err
	}
	return writeInt16s(sw.bw, RecDatatype, d16)
}

// WriteBoundary emits one polygon element into the open structure.
func (sw *StreamWriter) WriteBoundary(b Boundary) error {
	if !sw.inStruct {
		return fmt.Errorf("gdsii: WriteBoundary outside a structure")
	}
	if len(b.Pts) < 3 {
		return fmt.Errorf("gdsii: boundary needs >= 3 points, got %d", len(b.Pts))
	}
	if err := writeRecord(sw.bw, RecBoundary, DTNone, nil); err != nil {
		return err
	}
	if err := sw.layerRecords(b.Layer, b.Datatype); err != nil {
		return err
	}
	xy := sw.xy[:0]
	for _, p := range b.Pts {
		x, okx := geom.I32(p.X)
		y, oky := geom.I32(p.Y)
		if !okx || !oky {
			return fmt.Errorf("gdsii: point %v overflows the 4-byte XY field", p)
		}
		xy = append(xy, x, y)
	}
	// Close the ring.
	xy = append(xy, xy[0], xy[1])
	sw.xy = xy
	if err := writeInt32s(sw.bw, RecXY, xy...); err != nil {
		return err
	}
	return writeRecord(sw.bw, RecEndEl, DTNone, nil)
}

// WriteRect emits one rectangle as a 4-point boundary — identical bytes
// to WriteBoundary over the rectangle's corners, without building the
// Boundary.
func (sw *StreamWriter) WriteRect(layer, datatype int, r geom.Rect) error {
	if !sw.inStruct {
		return fmt.Errorf("gdsii: WriteRect outside a structure")
	}
	if err := writeRecord(sw.bw, RecBoundary, DTNone, nil); err != nil {
		return err
	}
	if err := sw.layerRecords(layer, datatype); err != nil {
		return err
	}
	xl, okXL := geom.I32(r.XL)
	yl, okYL := geom.I32(r.YL)
	xh, okXH := geom.I32(r.XH)
	yh, okYH := geom.I32(r.YH)
	if !okXL || !okYL || !okXH || !okYH {
		return fmt.Errorf("gdsii: rect %v overflows the 4-byte XY field", r)
	}
	xy := append(sw.xy[:0],
		xl, yl, xh, yl,
		xh, yh, xl, yh,
		xl, yl)
	sw.xy = xy
	if err := writeInt32s(sw.bw, RecXY, xy...); err != nil {
		return err
	}
	return writeRecord(sw.bw, RecEndEl, DTNone, nil)
}

// EndStructure closes the open structure.
func (sw *StreamWriter) EndStructure() error {
	if !sw.inStruct {
		return fmt.Errorf("gdsii: EndStructure without BeginStructure")
	}
	sw.inStruct = false
	return writeRecord(sw.bw, RecEndStr, DTNone, nil)
}

// Close writes the library trailer and flushes. The StreamWriter is
// unusable afterwards.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	if sw.inStruct {
		return fmt.Errorf("gdsii: Close with an open structure")
	}
	sw.closed = true
	if err := writeRecord(sw.bw, RecEndLib, DTNone, nil); err != nil {
		return err
	}
	return sw.bw.Flush()
}
