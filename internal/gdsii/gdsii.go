package gdsii

import (
	"io"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// Boundary is one polygon element.
type Boundary struct {
	Layer    int
	Datatype int
	// Pts is the vertex ring without the closing point (GDSII repeats the
	// first vertex on disk; the writer adds it).
	Pts []geom.Point
}

// DeckSize returns the byte size of the GDSII deck of the given kind
// without materializing it. The solution deck's size is the paper's
// file-size objective; the wire-only layout deck's size calibrates its
// coefficient.
func DeckSize(kind layio.DeckKind, lay *layout.Layout, sol *layout.Solution) (int64, error) {
	return layio.EncodedSize(func(w io.Writer) error {
		return layio.WriteDeck(w, format, kind, lay, sol)
	})
}
