package oasis

import (
	"io"
	"sort"

	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// Shape is one rectangle with layer/datatype, the unit this subset
// models.
type Shape struct {
	Layer    int
	Datatype int
	Rect     geom.Rect
}

// Library is a single-cell OASIS layout.
type Library struct {
	Cell   string
	Unit   uint64 // grid points per micron (real type 0)
	Shapes []Shape
}

// Write emits the library as an OASIS stream. Shapes are written with
// modal-variable compression: layer, datatype, width and height are only
// re-emitted when they change, and x/y are written in relative
// (delta-to-previous) mode implicitly via signed absolute coordinates.
//
// Write sorts nothing: callers control the shape order, and grouping
// same-size shapes (as fill solutions naturally do) maximizes modal
// reuse. It is a convenience over StreamWriter and produces byte-identical
// output for the same shape sequence.
func (l *Library) Write(w io.Writer) error {
	sw := NewStreamWriter(w)
	if err := sw.Begin(l.Cell, l.Unit); err != nil {
		return err
	}
	for _, s := range l.Shapes {
		if err := sw.WriteShape(s); err != nil {
			return err
		}
	}
	return sw.Close()
}

// ErrLimit is wrapped by ShapeReader errors when an input stream exceeds
// a configured resource limit; detect it with errors.Is. It is the
// shared layio sentinel, so errors.Is works across formats.
var ErrLimit = layio.ErrLimit

// Limits bounds the resources a single parse may consume — the shared
// layio ingest-cap type. A zero field disables that limit, so the zero
// value Limits{} is fully unlimited.
type Limits = layio.Limits

// DefaultLimits returns the caps the registered OASIS reader enforces:
// far beyond any realistic fill deck, but finite, so a hostile stream
// fails cleanly instead of exhausting memory.
func DefaultLimits() Limits { return layio.DefaultLimits() }

// FromSolution converts a fill solution into an OASIS library, grouping
// fills by layer then by size so the modal variables compress maximally.
func FromSolution(name string, sol *layout.Solution) *Library {
	lib := &Library{Cell: name}
	shapes := make([]Shape, 0, len(sol.Fills))
	for _, f := range sol.Fills {
		shapes = append(shapes, Shape{Layer: f.Layer + 1, Datatype: 1, Rect: f.Rect})
	}
	sortShapesForModalReuse(shapes)
	lib.Shapes = shapes
	return lib
}

// sortShapesForModalReuse orders shapes layer-major, then by dimensions,
// then by position, so consecutive records share modal state.
func sortShapesForModalReuse(shapes []Shape) {
	lessRect := func(a, b geom.Rect) bool {
		if a.W() != b.W() {
			return a.W() < b.W()
		}
		if a.H() != b.H() {
			return a.H() < b.H()
		}
		if a.YL != b.YL {
			return a.YL < b.YL
		}
		return a.XL < b.XL
	}
	sortSlice(shapes, func(a, b Shape) bool {
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.Datatype != b.Datatype {
			return a.Datatype < b.Datatype
		}
		return lessRect(a.Rect, b.Rect)
	})
}

// EncodedSize returns the byte size the library would occupy on disk.
func (l *Library) EncodedSize() (int64, error) {
	return layio.EncodedSize(l.Write)
}

func sortSlice(shapes []Shape, less func(a, b Shape) bool) {
	sort.Slice(shapes, func(i, j int) bool { return less(shapes[i], shapes[j]) })
}
