package gdsii

import "dummyfill/internal/layio"

// ErrLimit is wrapped by ShapeReader errors when an input stream exceeds
// a configured resource limit; detect it with errors.Is. It is the
// shared layio sentinel, so errors.Is works across formats.
var ErrLimit = layio.ErrLimit

// Limits bounds the resources a single parse may consume — the shared
// layio ingest-cap type. A zero field disables that limit, so the zero
// value Limits{} is fully unlimited. The format already bounds each
// record's payload at 65531 bytes, so MaxRecords also caps total parse
// work; MaxShapes caps the number of BOUNDARY elements.
type Limits = layio.Limits

// DefaultLimits returns the caps the registered GDSII reader enforces:
// far beyond any realistic fill deck, but finite, so a length-bomb
// stream fails cleanly instead of exhausting memory.
func DefaultLimits() Limits { return layio.DefaultLimits() }
