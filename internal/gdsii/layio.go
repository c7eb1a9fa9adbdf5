package gdsii

import (
	"encoding/binary"
	"io"

	"dummyfill/internal/layio"
)

// FormatName is this package's layio registry key.
const FormatName = "gds"

// format is this package's registry entry.
var format = layio.Format{
	Name:   FormatName,
	Detect: sniff,
	NewShapeReader: func(r io.Reader, lim layio.Limits) layio.ShapeReader {
		return NewShapeReader(r, lim)
	},
	NewShapeWriter: newShapeWriter,
	Limits:         layio.DefaultLimits(),
	EmitsWires:     true,
}

func init() { layio.Register(format) }

// sniff recognizes a GDSII stream by its first record: a HEADER
// (type 0x00) carrying an int16 payload, with a sane record length.
func sniff(prefix []byte) bool {
	if len(prefix) < 4 {
		return false
	}
	n := binary.BigEndian.Uint16(prefix[0:2])
	return prefix[2] == RecHeader && prefix[3] == DTInt16 && n >= 4 && n%2 == 0
}

// shapeWriter adapts StreamWriter to the layio.ShapeWriter interface:
// one library, one structure, rectangles streamed in. Layer numbers are
// translated from zero-based layout indices to the 1-based on-disk
// convention.
type shapeWriter struct{ sw *StreamWriter }

func newShapeWriter(w io.Writer, h layio.Header) (layio.ShapeWriter, error) {
	sw := NewStreamWriter(w)
	if err := sw.BeginLibrary(h.Name); err != nil {
		return nil, err
	}
	st := h.Struct
	if st == "" {
		st = "TOP"
	}
	if err := sw.BeginStructure(st); err != nil {
		return nil, err
	}
	return &shapeWriter{sw: sw}, nil
}

func (w *shapeWriter) Write(s layio.Shape) error {
	return w.sw.WriteRect(s.Layer+1, s.Datatype, s.Rect)
}

func (w *shapeWriter) Close() error {
	if err := w.sw.EndStructure(); err != nil {
		return err
	}
	return w.sw.Close()
}
