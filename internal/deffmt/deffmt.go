// Package deffmt reads and writes the DEF (Design Exchange Format)
// subset the fill flow needs: DESIGN, DIEAREA, ROW and COMPONENTS. It is
// the interchange format of the site fill mode — placement rows carry
// the site lattice, placed components block fill, and inserted fillers
// come back as COMPONENTS named with the OpenROAD filler convention
// (FILL_X<sites>).
//
// DEF carries no LEF, so the subset recovers component geometry from the
// master name alone, by convention:
//
//	FILL_X<k>     a filler k sites wide and one row tall (any library
//	              prefix ending in X works); requires ROW statements
//	W<l>_<w>x<h>  a wire on layer l, w×h database units
//	F<l>_<w>x<h>  a fill on layer l, w×h database units
//
// The writer emits site-aligned fills as library fillers and everything
// else in the explicit W/F form, so any layout round-trips even though
// standard DEF is single-layer placement data.
package deffmt

import (
	"bytes"
	"io"

	"dummyfill/internal/layio"
)

// FormatName is this package's layio registry key.
const FormatName = "def"

func init() {
	layio.Register(layio.Format{
		Name:   FormatName,
		Detect: sniff,
		NewShapeReader: func(r io.Reader, lim layio.Limits) layio.ShapeReader {
			return NewShapeReader(r, lim)
		},
		NewShapeWriter: NewShapeWriter,
		Limits:         layio.DefaultLimits(),
		// Full-layout DEF emission carries the placed components (wires)
		// too — a fills-only DEF would not re-place the design.
		EmitsWires: true,
		// DEF states its own die and rows; the reader synthesizes
		// permissive fill rules (site layouts allow abutting fillers), so
		// ingest must not override them with the binary-format defaults.
		CarriesMeta: true,
		// DEF is keyword text with no magic bytes, and DEF files may open
		// with '#' comments that the generic text sniffer would claim;
		// sniff above the default priority so the keyword probe runs
		// first.
		Priority: 1,
	})
}

// sniff recognizes a DEF stream: after leading whitespace and '#'
// comment lines, it opens with a DEF section keyword.
func sniff(prefix []byte) bool {
	s := prefix
	for {
		s = bytes.TrimLeft(s, " \t\r\n")
		if len(s) == 0 {
			return false
		}
		if s[0] != '#' {
			break
		}
		nl := bytes.IndexByte(s, '\n')
		if nl < 0 {
			return false // comment runs past the sniff window: undecidable
		}
		s = s[nl+1:]
	}
	for _, kw := range [...]string{"VERSION", "DESIGN", "UNITS", "DIEAREA", "ROW", "COMPONENTS"} {
		if len(s) >= len(kw) {
			// A real keyword ends at whitespace ("VERSIONS" is not one).
			if string(s[:len(kw)]) == kw && (len(s) == len(kw) || isSpace(s[len(kw)])) {
				return true
			}
		} else if string(s) == kw[:len(s)] {
			// The sniff window cut the keyword short: plausible DEF.
			return true
		}
	}
	return false
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }
