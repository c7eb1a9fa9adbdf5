package layio

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Format describes one registered layout interchange format. Format
// packages register themselves in init (importing the package is enough
// to make it detectable), mirroring image.RegisterFormat.
type Format struct {
	// Name is the registry key ("gds", "oasis", "text").
	Name string
	// Detect reports whether prefix — the first SniffLen bytes of a
	// stream, possibly fewer near EOF — looks like this format.
	Detect func(prefix []byte) bool
	// NewShapeReader opens a streaming reader over r under lim.
	NewShapeReader func(r io.Reader, lim Limits) ShapeReader
	// NewShapeWriter opens a streaming writer on w, emitting the
	// stream preamble from h.
	NewShapeWriter func(w io.Writer, h Header) (ShapeWriter, error)
	// Limits is DefaultLimits() in every registered format. The
	// package's own readers take DefaultLimits() directly; the field
	// remains for the benchmark harness, which reads it.
	Limits Limits
	// EmitsWires reports whether full-layout emission in this format
	// carries the wire shapes too (GDSII) or only the fill solution
	// (OASIS and text, whose outputs are contest-style fill decks).
	EmitsWires bool
	// CarriesMeta reports whether streams in this format state their own
	// layout metadata (die, window, fill rules) so ingest need not be
	// given any. True for the text format, false for the binary ones.
	CarriesMeta bool
	// Priority orders Detect: higher-priority formats sniff first.
	// Keyword-text formats with specific magic (DEF) register above the
	// permissive default 0 so a generic text sniffer — which claims any
	// comment-leading stream — cannot shadow them. Ties keep registration
	// order.
	Priority int
}

// SniffLen is how many leading bytes Detect implementations may
// inspect.
const SniffLen = 64

var (
	regMu   sync.RWMutex
	formats []Format
)

// Register adds a format to the registry. It panics on a missing name
// or constructor, or a duplicate name — registration bugs are
// programmer errors caught at init time.
func Register(f Format) {
	if f.Name == "" || f.Detect == nil || f.NewShapeReader == nil || f.NewShapeWriter == nil {
		panic("layio: Register with incomplete Format")
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, g := range formats {
		if g.Name == f.Name {
			panic("layio: duplicate format " + f.Name)
		}
	}
	formats = append(formats, f)
	sort.SliceStable(formats, func(i, j int) bool {
		return formats[i].Priority > formats[j].Priority
	})
}

// Formats returns the registered format names, sorted.
func Formats() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(formats))
	for i, f := range formats {
		out[i] = f.Name
	}
	sort.Strings(out)
	return out
}

// Lookup returns the format registered under name, or an error wrapping
// ErrUnknownFormat naming the registered alternatives.
func Lookup(name string) (Format, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	for _, f := range formats {
		if f.Name == name {
			return f, nil
		}
	}
	known := make([]string, len(formats))
	for i, f := range formats {
		known[i] = f.Name
	}
	sort.Strings(known)
	return Format{}, fmt.Errorf("layio: %w: %q (have %v)", ErrUnknownFormat, name, known)
}

// Detect sniffs the format of a stream from its opening bytes (pass up
// to SniffLen of them). It returns an error wrapping ErrUnknownFormat
// when no registered format matches.
func Detect(prefix []byte) (Format, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	for _, f := range formats {
		if f.Detect(prefix) {
			return f, nil
		}
	}
	return Format{}, fmt.Errorf("layio: %w (%d registered)", ErrUnknownFormat, len(formats))
}

// DetectReader sniffs r's format without consuming it: it wraps r in a
// bufio.Reader, peeks at most SniffLen bytes, and returns the matched
// format together with the wrapped reader positioned at the start of
// the stream.
func DetectReader(r io.Reader) (Format, *bufio.Reader, error) {
	br := bufio.NewReader(r)
	prefix, err := br.Peek(SniffLen)
	if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
		return Format{}, nil, err
	}
	f, err := Detect(prefix)
	if err != nil {
		return Format{}, nil, err
	}
	return f, br, nil
}

// Resolve maps a format name to a registered format: "auto" or "" sniff
// r (DetectReader), any other value is looked up by name. The returned
// reader replaces r, since sniffing holds the peeked prefix.
func Resolve(r io.Reader, format string) (Format, io.Reader, error) {
	if format == "" || format == "auto" {
		f, br, err := DetectReader(r)
		if err != nil {
			return Format{}, nil, err
		}
		return f, br, nil
	}
	f, err := Lookup(format)
	if err != nil {
		return Format{}, nil, err
	}
	return f, r, nil
}
