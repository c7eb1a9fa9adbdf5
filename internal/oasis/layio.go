package oasis

import (
	"io"

	"dummyfill/internal/layio"
)

// FormatName is this package's layio registry key.
const FormatName = "oasis"

func init() {
	layio.Register(layio.Format{
		Name:   FormatName,
		Detect: sniff,
		NewShapeReader: func(r io.Reader, lim layio.Limits) layio.ShapeReader {
			return NewShapeReader(r, lim)
		},
		NewShapeWriter: newShapeWriter,
		Limits:         layio.DefaultLimits(),
		EmitsWires:     false,
	})
}

// sniff recognizes an OASIS stream by its magic header (or an
// unambiguous prefix of it when fewer bytes are available).
func sniff(prefix []byte) bool {
	if len(prefix) >= len(Magic) {
		return string(prefix[:len(Magic)]) == Magic
	}
	return len(prefix) > 0 && string(prefix) == Magic[:len(prefix)]
}

// shapeWriter adapts StreamWriter to the layio.ShapeWriter interface.
// Layer numbers are translated from zero-based layout indices to the
// 1-based on-disk convention.
type shapeWriter struct{ sw *StreamWriter }

func newShapeWriter(w io.Writer, h layio.Header) (layio.ShapeWriter, error) {
	sw := NewStreamWriter(w)
	if err := sw.Begin(h.Name, 0); err != nil {
		return nil, err
	}
	return &shapeWriter{sw: sw}, nil
}

func (w *shapeWriter) Write(s layio.Shape) error {
	return w.sw.WriteShape(Shape{Layer: s.Layer + 1, Datatype: s.Datatype, Rect: s.Rect})
}

func (w *shapeWriter) Close() error { return w.sw.Close() }
