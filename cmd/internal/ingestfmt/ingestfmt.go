// Package ingestfmt implements the CLIs' shared -format handling: the
// value "auto" sniffs the stream's format from its first bytes, any
// other value fixes it by registry name, and formats that cannot state
// their own fill rules (the binary ones) get the default contest rule
// deck.
package ingestfmt

import (
	"io"

	dummyfill "dummyfill"
	"dummyfill/internal/ingest"
	"dummyfill/internal/layio"
)

// DefaultRules is the rule deck applied when ingesting a format that
// carries no rule metadata (GDSII, OASIS) and the caller set none.
var DefaultRules = dummyfill.Rules{MinWidth: 8, MinSpace: 8, MinArea: 64, MaxFillDim: 400}

// Read ingests a layout from r. format is "auto" (or empty) to sniff,
// else a name from dummyfill.Formats(). A zero opts.Rules is defaulted
// to DefaultRules unless the stream format states its own rules.
func Read(r io.Reader, format string, opts dummyfill.IngestOptions) (*dummyfill.Layout, error) {
	f, src, err := layio.Resolve(r, format)
	if err != nil {
		return nil, err
	}
	if opts.Rules == (dummyfill.Rules{}) && !f.CarriesMeta {
		opts.Rules = DefaultRules
	}
	return ingest.FromShapes(f.NewShapeReader(src, f.Limits), opts)
}
