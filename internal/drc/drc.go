// Package drc checks dummy-fill solutions against the fill rule set
// (minimum width, minimum area, minimum spacing, maximum dimension, and
// containment in the feasible fill regions). It is used by tests and by
// the harness to certify that the engine's output is legal before scoring.
package drc

import (
	"fmt"

	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

// Kind labels a violation class.
type Kind int

// Violation kinds.
const (
	KindWidth Kind = iota
	KindArea
	KindMaxDim
	KindSpacing
	KindOutsideRegion
	KindWireSpacing
	KindSiteAlign
	KindMasterWidth
	KindPadding
)

func (k Kind) String() string {
	switch k {
	case KindWidth:
		return "min-width"
	case KindArea:
		return "min-area"
	case KindMaxDim:
		return "max-dimension"
	case KindSpacing:
		return "fill-spacing"
	case KindOutsideRegion:
		return "outside-fill-region"
	case KindWireSpacing:
		return "wire-spacing"
	case KindSiteAlign:
		return "site-alignment"
	case KindMasterWidth:
		return "master-width"
	case KindPadding:
		return "site-padding"
	default:
		return "unknown"
	}
}

// Violation is one DRC error.
type Violation struct {
	Kind  Kind
	Layer int
	A     geom.Rect // offending fill
	B     geom.Rect // second shape for pairwise violations (zero otherwise)
}

func (v Violation) String() string {
	return fmt.Sprintf("%s on layer %d: %v vs %v", v.Kind, v.Layer, v.A, v.B)
}

// Check runs all fill DRC checks and returns the violations found.
// checkRegions controls whether containment in the layout's declared fill
// regions is enforced (tile-based baselines synthesize their own regions).
func Check(lay *layout.Layout, sol *layout.Solution, checkRegions bool) []Violation {
	var out []Violation
	r := lay.Rules
	perLayer := sol.PerLayer(len(lay.Layers))
	for li, fills := range perLayer {
		// Geometric per-fill rules.
		for _, f := range fills {
			if f.W() < r.MinWidth || f.H() < r.MinWidth {
				out = append(out, Violation{KindWidth, li, f, geom.Rect{}})
			}
			if f.Area() < r.MinArea {
				out = append(out, Violation{KindArea, li, f, geom.Rect{}})
			}
			if r.MaxFillDim > 0 && (f.W() > r.MaxFillDim || f.H() > r.MaxFillDim) {
				out = append(out, Violation{KindMaxDim, li, f, geom.Rect{}})
			}
		}
		// Fill-to-fill spacing.
		ix := dieIndex(lay, fills)
		for idA, f := range fills {
			ex := f.Expand(r.MinSpace)
			ix.Query(ex, func(idB int, other geom.Rect) bool {
				if idB <= idA {
					return true // report each pair once
				}
				gx, gy := f.Gap(other)
				if gx < r.MinSpace && gy < r.MinSpace {
					out = append(out, Violation{KindSpacing, li, f, other})
				}
				return true
			})
		}
		// Fill-to-wire spacing.
		wix := dieIndex(lay, lay.Layers[li].Wires)
		for _, f := range fills {
			if wix.AnyWithin(f, r.MinSpace, -1) {
				out = append(out, Violation{KindWireSpacing, li, f, geom.Rect{}})
			}
		}
		// Containment in feasible fill regions.
		if checkRegions {
			rix := dieIndex(lay, lay.Layers[li].FillRegions)
			var pieces []geom.Rect
			for _, f := range fills {
				if rix.OverlapArea(f, &pieces) != f.Area() {
					out = append(out, Violation{KindOutsideRegion, li, f, geom.Rect{}})
				}
			}
		}
	}
	return out
}

// dieIndex indexes rects over the die grown to their bounding box, so a
// shape off the die is indexed too and no check misses it. For shapes on
// the die, the cells are the die's.
func dieIndex(lay *layout.Layout, rects []geom.Rect) *geom.Index {
	return geom.NewIndex(lay.Die.UnionAll(rects), 0, rects, 0)
}

// CheckSites verifies a site-mode (filler-cell placement) solution
// against the layout's placement lattice: every fill must be a legal
// site-grid shape (one row tall, edges on site boundaries, inside the
// lattice), its width must be a library master, and it must keep at
// least pad empty sites of horizontal clearance to every same-row wire
// (the placement padding rule). lib nil means the default library.
// Geometric overlap rules are CheckSites' complement, not its subject —
// run Check too (site layouts use MinSpace 0, under which only true
// overlaps violate spacing).
func CheckSites(lay *layout.Layout, sol *layout.Solution, lib *layout.FillLib, pad int) []Violation {
	var out []Violation
	sg := lay.Sites
	if sg == nil {
		return []Violation{{Kind: KindSiteAlign, Layer: -1}}
	}
	if lib == nil {
		lib = layout.DefaultFillLib()
	}
	keep := int64(pad) * sg.SiteW
	perLayer := sol.PerLayer(len(lay.Layers))
	for li, fills := range perLayer {
		wix := dieIndex(lay, lay.Layers[li].Wires)
		for _, f := range fills {
			if !sg.Aligned(f) {
				out = append(out, Violation{KindSiteAlign, li, f, geom.Rect{}})
				continue
			}
			if sites := f.W() / sg.SiteW; lib.WidthFor(sites) != sites {
				out = append(out, Violation{KindMasterWidth, li, f, geom.Rect{}})
			}
			if keep > 0 {
				v := f
				wix.Query(f.Expand(keep), func(_ int, w geom.Rect) bool {
					if w.YL >= f.YH || w.YH <= f.YL {
						return true // different row: padding is horizontal only
					}
					if gx, _ := f.Gap(w); gx < keep {
						out = append(out, Violation{KindPadding, li, v, w})
						return false
					}
					return true
				})
			}
		}
	}
	return out
}
