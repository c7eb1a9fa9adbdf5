package deffmt

import (
	"bufio"
	"fmt"
	"io"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// shapeWriter emits a DEF deck. COMPONENTS declares its count up front,
// so shapes buffer until Close, which writes the whole deck: preamble
// (VERSION, DESIGN, UNITS, DIEAREA, ROW), then every component, then the
// trailer. The die defaults to the bounding box of the shapes and the
// lattice when the header carries none.
type shapeWriter struct {
	w     io.Writer
	hdr   layio.Header
	lib   *layout.FillLib
	comps []component
	bbox  geom.Rect
	err   error
}

// component is one buffered COMPONENTS entry.
type component struct {
	shape layio.Shape
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
	sw.comps = append(sw.comps, component{shape: s})
	return nil
}

// master names a buffered shape's DEF master: library fillers for
// site-aligned fills, explicit geometry encoding otherwise.
func (sw *shapeWriter) master(s layio.Shape) string {
	if s.Datatype == layio.DatatypeFill && s.Layer == 0 && sw.hdr.Sites != nil && sw.hdr.Sites.Aligned(s.Rect) {
		if sites := s.Rect.W() / sw.hdr.Sites.SiteW; sw.lib.WidthFor(sites) == sites {
			return sw.lib.Master(sites)
		}
	}
	kind := byte('W')
	if s.Datatype == layio.DatatypeFill {
		kind = 'F'
	}
	return fmt.Sprintf("%c%d_%dx%d", kind, s.Layer, s.Rect.W(), s.Rect.H())
}

func (sw *shapeWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	bw := bufio.NewWriter(sw.w)
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
	fmt.Fprintf(bw, "VERSION 5.8 ;\nDESIGN %s ;\nUNITS DISTANCE MICRONS 1000 ;\n", name)
	fmt.Fprintf(bw, "DIEAREA ( %d %d ) ( %d %d ) ;\n", die.XL, die.YL, die.XH, die.YH)
	if sg := sw.hdr.Sites; sg != nil {
		fmt.Fprintf(bw, "ROW core_0 coresite %d %d N DO %d BY %d STEP %d %d ;\n",
			sg.Origin.X, sg.Origin.Y, sg.Sites, sg.Rows, sg.SiteW, sg.RowH)
	}
	fmt.Fprintf(bw, "COMPONENTS %d ;\n", len(sw.comps))
	nw, nf := 0, 0
	for _, c := range sw.comps {
		var inst string
		if c.shape.Datatype == layio.DatatypeFill {
			inst = fmt.Sprintf("fill_%d", nf)
			nf++
		} else {
			inst = fmt.Sprintf("cell_%d", nw)
			nw++
		}
		fmt.Fprintf(bw, "- %s %s + PLACED ( %d %d ) N ;\n",
			inst, sw.master(c.shape), c.shape.Rect.XL, c.shape.Rect.YL)
	}
	fmt.Fprintf(bw, "END COMPONENTS\nEND DESIGN\n")
	return bw.Flush()
}
