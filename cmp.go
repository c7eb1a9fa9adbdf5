package dummyfill

import (
	"io"

	"dummyfill/internal/cmppad"
	"dummyfill/internal/deffmt"
	"dummyfill/internal/grid"
	"dummyfill/internal/ingest"
	"dummyfill/internal/layio"
	"dummyfill/internal/score"
	"dummyfill/internal/textfmt"
)

// CMP simulation and layout-ingestion surface of the public API.

type (
	// CMPParams configure the density-driven CMP model.
	CMPParams = cmppad.Params
	// Planarity is a post-CMP surface summary (height range and σ).
	Planarity = cmppad.Planarity
	// DensityGrid is a per-window scalar field (densities, heights).
	DensityGrid = grid.Map
	// IngestOptions control building a Layout from a layout stream.
	IngestOptions = ingest.Options
)

// DefaultCMPParams returns the default CMP model configuration.
func DefaultCMPParams() CMPParams { return cmppad.DefaultParams() }

// SimulateCMP evaluates the post-CMP planarity of every layer of a
// (possibly filled) layout under the density-based polish model. It
// returns one Planarity per layer.
func SimulateCMP(lay *Layout, sol *Solution, p CMPParams) ([]Planarity, error) {
	if sol == nil {
		sol = &Solution{}
	}
	_, _, _, maps, err := score.MeasureDensity(lay, sol)
	if err != nil {
		return nil, err
	}
	out := make([]Planarity, len(maps))
	for li, m := range maps {
		pl, err := cmppad.Evaluate(m, p)
		if err != nil {
			return nil, err
		}
		out[li] = pl
	}
	return out, nil
}

// Formats returns the registered layout format names, sorted — the
// accepted values of ReadLayoutFormat and InsertStreamTo, and of the
// CLIs' -format flags.
func Formats() []string { return layio.Formats() }

// ReadLayout sniffs the stream's format from its first bytes (GDSII
// header record, OASIS magic, or text grammar keyword) and builds a
// Layout from it, streaming shapes straight into construction — no
// per-format intermediate library is materialized. Zero IngestOptions
// fields defer to metadata the stream itself carries (text layouts name
// their die, window and rules; binary formats need Rules set).
func ReadLayout(r io.Reader, opts IngestOptions) (*Layout, error) {
	return ReadLayoutFormat(r, "auto", opts)
}

// ReadLayoutFormat is ReadLayout with the format fixed by name instead
// of sniffed (see Formats); "auto" or "" sniff as ReadLayout does.
func ReadLayoutFormat(r io.Reader, format string, opts IngestOptions) (*Layout, error) {
	f, src, err := layio.Resolve(r, format)
	if err != nil {
		return nil, err
	}
	return ingest.FromShapes(f.NewShapeReader(src, f.Limits), opts)
}

// WriteTextLayout emits the layout in the line-oriented text format (see
// internal/textfmt for the grammar) — the human-authorable counterpart to
// GDSII.
func WriteTextLayout(w io.Writer, lay *Layout) error { return textfmt.WriteLayout(w, lay) }

// WriteTextSolution emits a fill solution in the text format.
func WriteTextSolution(w io.Writer, name string, sol *Solution) error {
	return writeDeck(w, textfmt.FormatName, layio.SolutionDeck, &Layout{Name: name}, sol)
}

// WriteDEFLayout emits the layout (wires, plus sol's fills when
// non-nil) as a DEF deck: DIEAREA, the site lattice as a ROW statement,
// and every shape as a placed COMPONENT. Site-aligned fills use the
// OpenROAD filler master convention (FILL_X<sites>); all other shapes
// use the subset's geometry-encoding masters, so any layout round-trips
// (see internal/deffmt).
func WriteDEFLayout(w io.Writer, lay *Layout, sol *Solution) error {
	return writeDeck(w, deffmt.FormatName, layio.LayoutDeck, lay, sol)
}
