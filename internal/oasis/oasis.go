package oasis

import (
	"sort"

	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

// Shape is one rectangle with layer/datatype, the unit this subset
// models.
type Shape struct {
	Layer    int
	Datatype int
	Rect     geom.Rect
}

// ModalSorted returns a copy of fills ordered layer-major, then by
// dimensions, then by position, so consecutive RECTANGLE records share
// modal state and the deck compresses maximally. The writers sort
// nothing themselves: a batch OASIS deck is this order, a streamed one
// keeps the engine's per-window order.
func ModalSorted(fills []layout.Fill) []layout.Fill {
	fills = append([]layout.Fill(nil), fills...)
	sort.Slice(fills, func(i, j int) bool {
		a, b := fills[i], fills[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.Rect.W() != b.Rect.W() {
			return a.Rect.W() < b.Rect.W()
		}
		if a.Rect.H() != b.Rect.H() {
			return a.Rect.H() < b.Rect.H()
		}
		if a.Rect.YL != b.Rect.YL {
			return a.Rect.YL < b.Rect.YL
		}
		return a.Rect.XL < b.Rect.XL
	})
	return fills
}
