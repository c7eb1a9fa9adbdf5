package baseline

import (
	"sort"

	"dummyfill/internal/fill"
	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

// CouplingConstrained implements a coupling-budgeted filler in the spirit
// of Chen et al. [11] and Xiang et al. [12]: each window/layer receives
// fills up to the uniformity target, but the total fill-induced overlay
// per window may not exceed a budget. Candidates are considered in
// overlay-per-area order (the fractional relaxation of the slot ILP those
// papers solve), so the method is overlay-aware but — unlike the paper's
// engine — has no sizing stage and no global density planning.
type CouplingConstrained struct {
	// BudgetFrac is the per-window overlay budget as a fraction of the
	// window area. Zero picks 0.06.
	BudgetFrac float64
	// TilesFiner divides the max fill dimension to get finer candidate
	// cells (0 = use rule MaxFillDim as-is).
	TilesFiner int64
}

// Name implements Filler.
func (CouplingConstrained) Name() string { return "coupling-ilp" }

// Fill implements Filler.
func (cc CouplingConstrained) Fill(lay *layout.Layout) (*layout.Solution, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	budgetFrac := cc.BudgetFrac
	if budgetFrac <= 0 {
		budgetFrac = 0.06
	}
	rules := lay.Rules
	if cc.TilesFiner > 1 && rules.MaxFillDim > cc.TilesFiner*rules.MinWidth {
		rules.MaxFillDim /= cc.TilesFiner
	}
	g, err := lay.Grid()
	if err != nil {
		return nil, err
	}
	nl := len(lay.Layers)

	// Per-layer naive uniformity target: the maximum window wire density.
	targets := make([]float64, nl)
	wireMaps := make([]interface{ At(i, j int) float64 }, nl)
	for li := 0; li < nl; li++ {
		m := lay.WireDensityMap(g, li)
		wireMaps[li] = m
		for _, v := range m.V {
			if v > targets[li] {
				targets[li] = v
			}
		}
	}

	// Wire indexes per layer for overlay estimation.
	wireIx := make([]*geom.Index, nl)
	for li := 0; li < nl; li++ {
		wireIx[li] = geom.NewIndex(lay.Die, 0, lay.Layers[li].Wires, 0)
	}
	// Selected-fill indexes, each built once its layer is finished. Layers
	// are processed bottom-up, so only the layer below has selected fills.
	selIx := make([]*geom.Index, nl)
	var pieces []geom.Rect

	// A window's candidate cells with their neighbour-layer overlay.
	type cand struct {
		rect geom.Rect
		ov   int64
	}
	sol := &layout.Solution{}
	for li := 0; li < nl; li++ {
		regions := lay.Layers[li].FillRegions
		bins := g.Bin(regions, 0)
		var sel []geom.Rect
		for k := 0; k < g.NumWindows(); k++ {
			i, j := k%g.NX, k/g.NX
			win := g.Window(i, j)
			aw := float64(win.Area())
			if aw == 0 {
				continue
			}
			budget := int64(budgetFrac * aw)
			cur := wireMaps[li].At(i, j)
			if cur >= targets[li] {
				continue
			}
			var cells []geom.Rect
			for _, si := range bins.Window(k) {
				cells = append(cells, fill.TileRegion(insetForSpacing(regions[si].Intersect(win), rules), rules)...)
			}
			if len(cells) == 0 {
				continue
			}
			// Score candidates by overlay against neighbour layers.
			cands := make([]cand, 0, len(cells))
			for _, c := range cells {
				var ov int64
				if li > 0 {
					ov += wireIx[li-1].OverlapArea(c, &pieces) + selIx[li-1].OverlapArea(c, &pieces)
				}
				if li+1 < nl {
					ov += wireIx[li+1].OverlapArea(c, &pieces)
				}
				cands = append(cands, cand{c, ov})
			}
			sort.Slice(cands, func(a, b int) bool {
				ra := float64(cands[a].ov) / float64(cands[a].rect.Area())
				rb := float64(cands[b].ov) / float64(cands[b].rect.Area())
				if ra != rb {
					return ra < rb
				}
				return cands[a].rect.Area() > cands[b].rect.Area()
			})
			var spent int64
			for _, c := range cands {
				if cur >= targets[li] {
					break
				}
				if spent+c.ov > budget {
					continue // would blow the coupling budget
				}
				sol.Fills = append(sol.Fills, layout.Fill{Layer: li, Rect: c.rect})
				sel = append(sel, c.rect)
				spent += c.ov
				cur += float64(c.rect.Area()) / aw
			}
		}
		selIx[li] = geom.NewIndex(lay.Die, 0, sel, 0)
	}
	return sol, nil
}
