package textfmt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"dummyfill/internal/layio"
)

// FormatName is this package's layio registry key.
const FormatName = "text"

func init() {
	layio.Register(layio.Format{
		Name:   FormatName,
		Detect: sniff,
		NewShapeReader: func(r io.Reader, lim layio.Limits) layio.ShapeReader {
			return NewShapeReader(r, lim)
		},
		NewShapeWriter: newShapeWriter,
		Limits:         layio.DefaultLimits(),
		// The writer side emits the solution grammar (fills only); wires
		// come in through the reader's layout grammar.
		EmitsWires:  false,
		CarriesMeta: true,
	})
}

// sniff recognizes a text layout or solution file: after leading
// whitespace the stream opens with a grammar keyword or a comment.
func sniff(prefix []byte) bool {
	s := bytes.TrimLeft(prefix, " \t\r\n")
	if len(s) == 0 {
		return false
	}
	if s[0] == '#' {
		return true
	}
	for _, kw := range [...]string{"layout", "solution"} {
		if len(s) >= len(kw) {
			if string(s[:len(kw)]) == kw {
				return true
			}
		} else if string(s) == kw[:len(s)] {
			return true
		}
	}
	return false
}

// shapeWriter emits the solution grammar: a header line then one fill
// directive per shape. Layer indices are written as-is (the text format
// is zero-based throughout).
type shapeWriter struct {
	bw  *bufio.Writer
	err error
}

func newShapeWriter(w io.Writer, h layio.Header) (layio.ShapeWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "solution %s\n", sanitizeName(h.Name)); err != nil {
		return nil, err
	}
	return &shapeWriter{bw: bw}, nil
}

func (sw *shapeWriter) Write(s layio.Shape) error {
	if sw.err != nil {
		return sw.err
	}
	if s.Datatype != layio.DatatypeFill {
		sw.err = fmt.Errorf("textfmt: stream writer emits fills only, got datatype %d", s.Datatype)
		return sw.err
	}
	_, err := fmt.Fprintf(sw.bw, "fill %d %d %d %d %d\n",
		s.Layer, s.Rect.XL, s.Rect.YL, s.Rect.XH, s.Rect.YH)
	if err != nil {
		sw.err = err
	}
	return err
}

func (sw *shapeWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	return sw.bw.Flush()
}
