package deffmt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"testing"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// oracleWriter is the reference DEF writer the chunked append writer
// must match byte for byte: it buffers every shape until Close and
// formats each line with fmt.
type oracleWriter struct {
	w     io.Writer
	hdr   layio.Header
	lib   *layout.FillLib
	comps []layio.Shape
	bbox  geom.Rect
	err   error
}

// newOracleWriter opens the reference writer on a header the caller has
// already validated.
func newOracleWriter(w io.Writer, h layio.Header) *oracleWriter {
	return &oracleWriter{w: w, hdr: h, lib: layout.DefaultFillLib()}
}

func (sw *oracleWriter) Write(s layio.Shape) error {
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
	sw.comps = append(sw.comps, s)
	return nil
}

// master names a buffered shape's DEF master: library fillers for
// site-aligned fills, explicit geometry encoding otherwise.
func (sw *oracleWriter) master(s layio.Shape) string {
	if s.Datatype == layio.DatatypeFill && s.Layer == 0 && sw.hdr.Sites != nil && sw.hdr.Sites.Aligned(s.Rect) {
		if sites := s.Rect.W() / sw.hdr.Sites.SiteW; sw.lib.WidthFor(sites) == sites {
			return sw.lib.Prefix + strconv.FormatInt(sites, 10)
		}
	}
	kind := byte('W')
	if s.Datatype == layio.DatatypeFill {
		kind = 'F'
	}
	return fmt.Sprintf("%c%d_%dx%d", kind, s.Layer, s.Rect.W(), s.Rect.H())
}

func (sw *oracleWriter) Close() error {
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
		if c.Datatype == layio.DatatypeFill {
			inst = fmt.Sprintf("fill_%d", nf)
			nf++
		} else {
			inst = fmt.Sprintf("cell_%d", nw)
			nw++
		}
		fmt.Fprintf(bw, "- %s %s + PLACED ( %d %d ) N ;\n",
			inst, sw.master(c), c.Rect.XL, c.Rect.YL)
	}
	fmt.Fprintf(bw, "END COMPONENTS\nEND DESIGN\n")
	return bw.Flush()
}

// TestWriterMatchesOracle writes random decks through the chunked writer
// and the fmt reference and requires identical bytes: wires and fills on
// several layers, on and off the site lattice (library and non-library
// filler widths), with and without Sites, with and without a header die
// and name, and long enough to span many chunks.
func TestWriterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 40; c++ {
		var h layio.Header
		if c%2 == 0 {
			h.Name = fmt.Sprintf("deck%d", c)
		}
		if c%3 != 0 {
			h.Die = geom.R(-rng.Int63n(1000), -rng.Int63n(1000), 1+rng.Int63n(1<<40), 1+rng.Int63n(1000))
		}
		if c%4 < 2 {
			h.Sites = &layout.SiteGrid{
				Origin: geom.Point{X: rng.Int63n(200) - 100, Y: rng.Int63n(200) - 100},
				SiteW:  1 + rng.Int63n(20), RowH: 1 + rng.Int63n(100),
				Rows: 1 + rng.Intn(50), Sites: 1 + rng.Intn(200),
			}
		}
		n := rng.Intn(50)
		if c%5 == 0 {
			n = 1 + rng.Intn(20000) // many 64 KiB chunks
		}
		shapes := make([]layio.Shape, n)
		for i := range shapes {
			s := layio.Shape{Layer: rng.Intn(4), Datatype: layio.DatatypeWire}
			if rng.Intn(2) == 0 {
				s.Datatype = layio.DatatypeFill
			}
			if sg := h.Sites; sg != nil && rng.Intn(2) == 0 {
				// On the lattice: 1..40 sites wide, so some widths are
				// library masters and some are not.
				row, site := rng.Intn(sg.Rows), rng.Intn(sg.Sites)
				w := min(int64(1+rng.Intn(40)), int64(sg.Sites-site))
				x, y := sg.Origin.X+int64(site)*sg.SiteW, sg.Origin.Y+int64(row)*sg.RowH
				s.Rect = geom.R(x, y, x+w*sg.SiteW, y+sg.RowH)
			} else {
				x, y := rng.Int63n(1<<42)-(1<<41), rng.Int63n(2000)-1000
				s.Rect = geom.R(x, y, x+1+rng.Int63n(1<<20), y+1+rng.Int63n(500))
			}
			shapes[i] = s
		}
		var got, want bytes.Buffer
		sw, err := NewShapeWriter(&got, h)
		if err != nil {
			t.Fatal(err)
		}
		ow := newOracleWriter(&want, h)
		for _, s := range shapes {
			if err := sw.Write(s); err != nil {
				t.Fatal(err)
			}
			if err := ow.Write(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ow.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.Bytes(), want.Bytes()
			i := 0
			for i < min(len(g), len(w)) && g[i] == w[i] {
				i++
			}
			t.Fatalf("case %d (%d shapes): decks differ at byte %d of %d/%d: %q vs %q",
				c, n, i, len(g), len(w), g[i:min(len(g), i+80)], w[i:min(len(w), i+80)])
		}
	}
}
