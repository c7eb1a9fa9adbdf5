package layio

import (
	"context"
	"io"

	"dummyfill/internal/layout"
)

// DeckKind selects which shapes an output deck carries.
type DeckKind int

const (
	// LayoutDeck is the full design deck, structure TOP: the layout's
	// wires first (datatype 0, only in formats whose EmitsWires is set),
	// then the fills (datatype 1).
	LayoutDeck DeckKind = iota
	// SolutionDeck is the fills-only deck, structure FILL: the contest's
	// output file, whose byte size the file-size score measures.
	SolutionDeck
)

// Deck is an open output deck in one registered format. Its header
// (name, die, site lattice) always comes from the layout, so every
// writer emits the same preamble for the same design. EmitWindow makes a
// Deck a fill sink: pass it to the engine's RunStream to write each
// window's fills as soon as the window completes.
type Deck struct {
	sw    ShapeWriter
	fills int
}

// OpenDeck opens a deck of the given kind on w. A LayoutDeck in a
// wire-carrying format gets every wire written here; ctx is re-checked
// every 1024 wires, because on a large design this preamble is written
// before the fill engine (which polls ctx itself) runs.
func OpenDeck(ctx context.Context, w io.Writer, f Format, kind DeckKind, lay *layout.Layout) (*Deck, error) {
	h := Header{Name: lay.Name, Struct: "FILL", Die: lay.Die, Sites: lay.Sites}
	if kind == LayoutDeck {
		h.Struct = "TOP"
	}
	sw, err := f.NewShapeWriter(w, h)
	if err != nil {
		return nil, err
	}
	if kind == LayoutDeck && f.EmitsWires {
		n := 0
		for li, layer := range lay.Layers {
			for _, r := range layer.Wires {
				if n%1024 == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				n++
				if err := sw.Write(Shape{Layer: li, Datatype: DatatypeWire, Rect: r}); err != nil {
					return nil, err
				}
			}
		}
	}
	return &Deck{sw: sw}, nil
}

// EmitWindow writes one window's fills (datatype 1).
func (d *Deck) EmitWindow(_ int, fills []layout.Fill) error {
	for _, f := range fills {
		if err := d.sw.Write(Shape{Layer: f.Layer, Datatype: DatatypeFill, Rect: f.Rect}); err != nil {
			return err
		}
	}
	d.fills += len(fills)
	return nil
}

// Fills returns the number of fills written so far.
func (d *Deck) Fills() int { return d.fills }

// Close finalizes the deck (trailer records, buffer flush).
func (d *Deck) Close() error { return d.sw.Close() }

// WriteDeck writes a whole deck of the given kind: OpenDeck, then sol's
// fills in their stored order (sol may be nil), then Close.
func WriteDeck(w io.Writer, f Format, kind DeckKind, lay *layout.Layout, sol *layout.Solution) error {
	d, err := OpenDeck(context.Background(), w, f, kind, lay)
	if err != nil {
		return err
	}
	if sol != nil {
		if err := d.EmitWindow(0, sol.Fills); err != nil {
			return err
		}
	}
	return d.Close()
}
