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
	// first vertex on disk; the library strips/adds it).
	Pts []geom.Point
}

// Structure is a GDSII structure (cell).
type Structure struct {
	Name       string
	Boundaries []Boundary
}

// Library is a GDSII library.
type Library struct {
	Name    string
	Structs []Structure
}

// Datatype conventions used by this repository when emitting layouts:
// wires carry datatype 0, dummy fills datatype 1 (so fills can be
// separated on read-back).
const (
	DatatypeWire = 0
	DatatypeFill = 1
)

// Write emits the library as a GDSII stream. It is a convenience over
// StreamWriter (and produces byte-identical output): the streaming
// interface avoids materializing Structs for large shape sets.
func (lib *Library) Write(w io.Writer) error {
	sw := NewStreamWriter(w)
	if err := sw.BeginLibrary(lib.Name); err != nil {
		return err
	}
	for _, st := range lib.Structs {
		if err := sw.BeginStructure(st.Name); err != nil {
			return err
		}
		for _, b := range st.Boundaries {
			if err := sw.WriteBoundary(b); err != nil {
				return err
			}
		}
		if err := sw.EndStructure(); err != nil {
			return err
		}
	}
	return sw.Close()
}

// FromLayout converts a layout plus an optional fill solution into a
// single-structure library. Wires get DatatypeWire, fills DatatypeFill.
// GDSII layer numbers are 1-based.
func FromLayout(lay *layout.Layout, sol *layout.Solution) *Library {
	st := Structure{Name: "TOP"}
	for li, layer := range lay.Layers {
		for _, wRect := range layer.Wires {
			st.Boundaries = append(st.Boundaries, rectBoundary(li+1, DatatypeWire, wRect))
		}
	}
	if sol != nil {
		for _, f := range sol.Fills {
			st.Boundaries = append(st.Boundaries, rectBoundary(f.Layer+1, DatatypeFill, f.Rect))
		}
	}
	return &Library{Name: lay.Name, Structs: []Structure{st}}
}

// FromSolution converts just the fill solution into a library — the
// contest's output format, whose byte size the file-size score measures.
func FromSolution(name string, sol *layout.Solution) *Library {
	st := Structure{Name: "FILL"}
	for _, f := range sol.Fills {
		st.Boundaries = append(st.Boundaries, rectBoundary(f.Layer+1, DatatypeFill, f.Rect))
	}
	return &Library{Name: name, Structs: []Structure{st}}
}

func rectBoundary(layer, dt int, r geom.Rect) Boundary {
	return Boundary{
		Layer:    layer,
		Datatype: dt,
		Pts: []geom.Point{
			{X: r.XL, Y: r.YL}, {X: r.XH, Y: r.YL},
			{X: r.XH, Y: r.YH}, {X: r.XL, Y: r.YH},
		},
	}
}

// EncodedSize returns the byte size the library would occupy on disk.
func (lib *Library) EncodedSize() (int64, error) {
	return layio.EncodedSize(lib.Write)
}
