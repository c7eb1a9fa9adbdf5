// Package layio is the format-neutral streaming layout I/O layer. It
// defines the unit every registered format reads and writes — a
// (layer, datatype, rectangle) Shape — plus the shared ingest resource
// caps, the error taxonomy, and a format registry with magic-byte
// detection, so adding a new interchange format (or a network ingest
// source) is a single Register call instead of another hand-wired
// Read/Write surface.
//
// The design goal is bounded-memory ingest: a ShapeReader yields shapes
// one at a time straight off the wire, so reading a multi-gigabyte
// design never materializes a per-format in-memory library. The
// symmetric ShapeWriter is the unit the streaming fill pipeline emits
// into, window by window.
package layio

import (
	"errors"
	"io"

	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
	"dummyfill/internal/layout"
)

// Datatype conventions shared by every registered format: wires carry
// datatype 0, dummy fills datatype 1 (so fills separate on read-back),
// and feasible fill regions — carried only by formats whose layout
// grammar models them, like textfmt — datatype 2.
const (
	DatatypeWire   = 0
	DatatypeFill   = 1
	DatatypeRegion = 2
)

// Shape is one rectangle with its layer and datatype — the
// format-neutral unit of streaming layout I/O. Layer is the zero-based
// layout layer index; binary formats that number layers from 1 on disk
// (GDSII, OASIS per this repository's convention) translate on the way
// in and out.
type Shape struct {
	Layer    int
	Datatype int
	Rect     geom.Rect
}

// Header carries the stream-level metadata a format surfaces alongside
// its shapes. Only Name is universal; the layout-grammar fields are set
// (with HasLayoutMeta true) by formats that model them, like textfmt.
// A reader's Header is fully populated once Next has returned io.EOF;
// writers consume it to emit their preamble.
type Header struct {
	// Name is the library / cell / layout name.
	Name string
	// Struct selects the GDSII structure name on output (default "TOP");
	// other formats ignore it.
	Struct string
	// Layout-grammar metadata (HasLayoutMeta guards the group).
	Die           geom.Rect
	Window        int64
	Rules         layout.Rules
	NumLayers     int
	HasLayoutMeta bool
	// Sites is the standard-cell placement lattice for formats that carry
	// one (DEF ROW statements). Readers populate it alongside the shape
	// stream; the DEF writer needs it to emit ROWs and to name
	// site-aligned filler masters. Nil for formats without row/site
	// geometry.
	Sites *layout.SiteGrid
}

// ErrLimit is wrapped by reader errors when an input stream exceeds a
// configured resource limit; detect it with errors.Is. It guards the
// ingest path against hostile or corrupted streams whose record counts
// would otherwise drive unbounded allocation or parse time. It is
// grid.ErrLimit, so a deck whose die and window break one of the grid's
// caps reports the same sentinel.
var ErrLimit = grid.ErrLimit

// ErrUnknownFormat is returned by Detect (and wrapped by callers) when
// no registered format claims a stream's opening bytes.
var ErrUnknownFormat = errors.New("unknown layout format")

// Limits bounds the resources a single parse may consume, shared by
// every registered format. A zero field disables that limit, so the
// zero value Limits{} is fully unlimited.
type Limits struct {
	// MaxRecords caps the total number of records (lines, for text
	// formats) in the stream.
	MaxRecords int64
	// MaxShapes caps the total number of shape-bearing elements.
	MaxShapes int64
}

// DefaultLimits returns the caps the default readers enforce: far
// beyond any realistic fill deck, but finite, so a length-bomb stream
// fails cleanly instead of exhausting memory.
func DefaultLimits() Limits {
	return Limits{MaxRecords: 256 << 20, MaxShapes: 64 << 20}
}

// ShapeReader streams shapes out of a layout stream without
// materializing it. Next returns io.EOF after the last shape of a
// well-formed stream; any other error is terminal.
type ShapeReader interface {
	Next() (Shape, error)
	// Header returns the stream metadata gathered so far; it is fully
	// populated once Next has returned io.EOF (name records may appear
	// anywhere in a stream).
	Header() Header
}

// ShapeWriter consumes shapes one at a time. Close finalizes the stream
// (trailer records, buffered-writer flush); a ShapeWriter is not safe
// for concurrent use.
type ShapeWriter interface {
	Write(Shape) error
	Close() error
}

// CountWriter is an io.Writer that only counts: the shared
// EncodedSize building block (file size is a scored objective, so
// every format measures its output without materializing it).
type CountWriter struct{ N int64 }

// Write discards p, accumulating its length.
func (c *CountWriter) Write(p []byte) (int, error) {
	c.N += int64(len(p))
	return len(p), nil
}

// EncodedSize measures the bytes emit would produce.
func EncodedSize(emit func(io.Writer) error) (int64, error) {
	var cw CountWriter
	if err := emit(&cw); err != nil {
		return 0, err
	}
	return cw.N, nil
}
