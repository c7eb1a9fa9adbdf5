package deffmt

import (
	"fmt"
	"io"
	"strconv"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// chunkSize is the size of one buffered block of component lines. Fixed
// blocks keep the buffered deck at about its own size: a single growing
// buffer would briefly hold two copies of it at every regrowth.
const chunkSize = 64 << 10

// shapeWriter emits a DEF deck. COMPONENTS declares its count up front,
// so Write formats each component line at once into fixed-size chunks,
// and Close writes the whole deck: preamble (VERSION, DESIGN, UNITS,
// DIEAREA, ROW), the buffered components, then the trailer. The die
// defaults to the bounding box of the shapes and the lattice when the
// header carries none.
type shapeWriter struct {
	w      io.Writer
	hdr    layio.Header
	lib    *layout.FillLib
	line   []byte   // the component line being formatted
	chunks [][]byte // formatted component lines, chunkSize bytes each but the last
	nw, nf int64    // wires and fills written: the next cell_/fill_ suffixes
	bbox   geom.Rect
	err    error
}

// NewShapeWriter opens a streaming DEF writer. Header.Sites, when set,
// is emitted as a ROW statement and enables the library filler naming
// for site-aligned fills (layout.DefaultFillLib); all other shapes use
// the explicit geometry-encoding masters.
func NewShapeWriter(w io.Writer, h layio.Header) (layio.ShapeWriter, error) {
	if h.Sites != nil {
		if err := h.Sites.Validate(); err != nil {
			return nil, err
		}
	}
	return &shapeWriter{w: w, hdr: h, lib: layout.DefaultFillLib()}, nil
}

// Write formats s as "- fill_N|cell_N <master> + PLACED ( x y ) N ;".
func (sw *shapeWriter) Write(s layio.Shape) error {
	if sw.err != nil {
		return sw.err
	}
	if s.Datatype != layio.DatatypeWire && s.Datatype != layio.DatatypeFill {
		sw.err = fmt.Errorf("deffmt: DEF carries components only, got datatype %d", s.Datatype)
		return sw.err
	}
	if s.Layer < 0 || s.Rect.Empty() {
		sw.err = fmt.Errorf("deffmt: invalid shape layer=%d rect=%v", s.Layer, s.Rect)
		return sw.err
	}
	sw.bbox = sw.bbox.Union(s.Rect)
	b := sw.line[:0]
	if s.Datatype == layio.DatatypeFill {
		b = strconv.AppendInt(append(b, "- fill_"...), sw.nf, 10)
		sw.nf++
	} else {
		b = strconv.AppendInt(append(b, "- cell_"...), sw.nw, 10)
		sw.nw++
	}
	b = sw.appendMaster(append(b, ' '), s)
	b = strconv.AppendInt(append(b, " + PLACED ( "...), s.Rect.XL, 10)
	b = strconv.AppendInt(append(b, ' '), s.Rect.YL, 10)
	sw.line = append(b, " ) N ;\n"...)
	sw.buffer(sw.line)
	return nil
}

// buffer copies p onto the tail of the chunk list, opening a new chunk
// whenever the last one is full; a line may straddle two chunks.
func (sw *shapeWriter) buffer(p []byte) {
	for len(p) > 0 {
		if n := len(sw.chunks); n == 0 || len(sw.chunks[n-1]) == chunkSize {
			sw.chunks = append(sw.chunks, make([]byte, 0, chunkSize))
		}
		c := &sw.chunks[len(sw.chunks)-1]
		k := min(len(p), chunkSize-len(*c))
		*c = append(*c, p[:k]...)
		p = p[k:]
	}
}

// appendMaster appends a shape's DEF master: a library filler for a
// site-aligned fill, the explicit geometry encoding otherwise.
func (sw *shapeWriter) appendMaster(b []byte, s layio.Shape) []byte {
	if s.Datatype == layio.DatatypeFill && s.Layer == 0 && sw.hdr.Sites != nil && sw.hdr.Sites.Aligned(s.Rect) {
		if sites := s.Rect.W() / sw.hdr.Sites.SiteW; sw.lib.WidthFor(sites) == sites {
			return sw.lib.AppendMaster(b, sites)
		}
	}
	kind := byte('W')
	if s.Datatype == layio.DatatypeFill {
		kind = 'F'
	}
	b = strconv.AppendInt(append(b, kind), int64(s.Layer), 10)
	b = strconv.AppendInt(append(b, '_'), s.Rect.W(), 10)
	return strconv.AppendInt(append(b, 'x'), s.Rect.H(), 10)
}

func (sw *shapeWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	name := sw.hdr.Name
	if name == "" {
		name = "TOP"
	}
	die := sw.hdr.Die
	if die.Empty() {
		die = sw.bbox
		if sw.hdr.Sites != nil {
			die = die.Union(sw.hdr.Sites.Bounds())
		}
	}
	b := append(sw.line[:0], "VERSION 5.8 ;\nDESIGN "...)
	b = append(b, name...)
	b = append(b, " ;\nUNITS DISTANCE MICRONS 1000 ;\nDIEAREA ( "...)
	b = appendInts(b, " ", die.XL, die.YL)
	b = append(b, " ) ( "...)
	b = appendInts(b, " ", die.XH, die.YH)
	b = append(b, " ) ;\n"...)
	if sg := sw.hdr.Sites; sg != nil {
		b = append(b, "ROW core_0 coresite "...)
		b = appendInts(b, " ", sg.Origin.X, sg.Origin.Y)
		b = append(b, " N DO "...)
		b = appendInts(b, " BY ", int64(sg.Sites), int64(sg.Rows))
		b = append(b, " STEP "...)
		b = appendInts(b, " ", sg.SiteW, sg.RowH)
		b = append(b, " ;\n"...)
	}
	b = strconv.AppendInt(append(b, "COMPONENTS "...), sw.nw+sw.nf, 10)
	b = append(b, " ;\n"...)
	if _, err := sw.w.Write(b); err != nil {
		return err
	}
	for _, c := range sw.chunks {
		if _, err := sw.w.Write(c); err != nil {
			return err
		}
	}
	_, err := io.WriteString(sw.w, "END COMPONENTS\nEND DESIGN\n")
	return err
}

// appendInts appends x and y in decimal, separated by sep.
func appendInts(b []byte, sep string, x, y int64) []byte {
	b = strconv.AppendInt(b, x, 10)
	return strconv.AppendInt(append(b, sep...), y, 10)
}
