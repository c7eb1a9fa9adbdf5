package oasis

import (
	"bufio"
	"fmt"
	"io"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
)

// ShapeReader streams rectangles out of an OASIS stream (the subset
// this package models) without materializing its shapes: modal-variable
// state is the only thing held between records. Layer numbers are
// translated from the on-disk 1-based convention to zero-based layout
// indices.
type ShapeReader struct {
	r   *reader
	lim layio.Limits
	hdr layio.Header

	m struct {
		layer, datatype int
		w, h            int64
	}
	started bool
	done    bool
	err     error

	records, shapes int64
}

// NewShapeReader opens a streaming reader over src under lim.
func NewShapeReader(src io.Reader, lim layio.Limits) *ShapeReader {
	return &ShapeReader{r: &reader{br: bufio.NewReader(src)}, lim: lim}
}

// Header returns the stream metadata gathered so far (the cell name,
// once the CELL record has been parsed).
func (sr *ShapeReader) Header() layio.Header { return sr.hdr }

// Next returns the next shape, io.EOF after the END record, or a
// terminal parse error. Errors are sticky.
func (sr *ShapeReader) Next() (layio.Shape, error) {
	if sr.err != nil {
		return layio.Shape{}, sr.err
	}
	if sr.done {
		return layio.Shape{}, io.EOF
	}
	s, err := sr.advance()
	if err != nil && err != io.EOF {
		sr.err = err
	}
	return s, err
}

func (sr *ShapeReader) advance() (layio.Shape, error) {
	if !sr.started {
		sr.started = true
		magic := make([]byte, len(Magic))
		if _, err := io.ReadFull(sr.r.br, magic); err != nil {
			return layio.Shape{}, fmt.Errorf("oasis: missing magic: %v", err)
		}
		if string(magic) != Magic {
			return layio.Shape{}, fmt.Errorf("oasis: bad magic %q", magic)
		}
	}
	for {
		rt, err := sr.r.readUint()
		if err != nil {
			return layio.Shape{}, err
		}
		sr.records++
		if sr.lim.MaxRecords > 0 && sr.records > sr.lim.MaxRecords {
			return layio.Shape{}, fmt.Errorf("oasis: %w: more than %d records", layio.ErrLimit, sr.lim.MaxRecords)
		}
		switch rt {
		case recPad:
			// padding byte, skip
		case recStart:
			if _, err := sr.r.readString(); err != nil { // version
				return layio.Shape{}, err
			}
			unit, err := sr.r.readReal()
			if err != nil {
				return layio.Shape{}, err
			}
			if unit < 0 {
				return layio.Shape{}, fmt.Errorf("oasis: negative unit")
			}
			flag, err := sr.r.readUint()
			if err != nil {
				return layio.Shape{}, err
			}
			if flag == 0 {
				for i := 0; i < 12; i++ {
					if _, err := sr.r.readUint(); err != nil {
						return layio.Shape{}, err
					}
				}
			}
		case recCellStr:
			name, err := sr.r.readString()
			if err != nil {
				return layio.Shape{}, err
			}
			sr.hdr.Name = name
		case recRectangle:
			sr.shapes++
			if sr.lim.MaxShapes > 0 && sr.shapes > sr.lim.MaxShapes {
				return layio.Shape{}, fmt.Errorf("oasis: %w: more than %d shapes", layio.ErrLimit, sr.lim.MaxShapes)
			}
			info, err := sr.r.br.ReadByte()
			if err != nil {
				return layio.Shape{}, fmt.Errorf("oasis: truncated rectangle: %v", err)
			}
			if info&(1<<0) != 0 {
				v, err := sr.r.readUint()
				if err != nil {
					return layio.Shape{}, err
				}
				sr.m.layer = int(v)
			}
			if info&(1<<1) != 0 {
				v, err := sr.r.readUint()
				if err != nil {
					return layio.Shape{}, err
				}
				sr.m.datatype = int(v)
			}
			if info&(1<<6) != 0 {
				v, err := sr.r.readUint()
				if err != nil {
					return layio.Shape{}, err
				}
				sr.m.w = int64(v)
			}
			if info&(1<<7) != 0 { // square: height follows width
				sr.m.h = sr.m.w
			} else if info&(1<<5) != 0 {
				v, err := sr.r.readUint()
				if err != nil {
					return layio.Shape{}, err
				}
				sr.m.h = int64(v)
			}
			var x, y int64
			if info&(1<<4) != 0 {
				if x, err = sr.r.readSint(); err != nil {
					return layio.Shape{}, err
				}
			}
			if info&(1<<3) != 0 {
				if y, err = sr.r.readSint(); err != nil {
					return layio.Shape{}, err
				}
			}
			if info&(1<<2) != 0 {
				return layio.Shape{}, fmt.Errorf("oasis: repetitions not supported by this subset")
			}
			return layio.Shape{
				Layer:    sr.m.layer - 1,
				Datatype: sr.m.datatype,
				Rect:     geom.Rect{XL: x, YL: y, XH: x + sr.m.w, YH: y + sr.m.h},
			}, nil
		case recEnd:
			sr.done = true
			return layio.Shape{}, io.EOF
		default:
			return layio.Shape{}, fmt.Errorf("oasis: unsupported record type %d", rt)
		}
	}
}
