package fill

import (
	"sort"
	"sync"

	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

// cell is one candidate fill rectangle inside a window.
type cell struct {
	rect    geom.Rect
	layer   int
	quality float64 // Eqn. (8) score, set during selection
	shared  bool    // lies in the region free on the neighbour layer too
}

// winLayer is the per-window per-layer working state. Candidate cells are
// not stored here: they are tiled on demand inside selectCandidates (into
// pooled scratch) and only the selected ones survive in window.sel, so a
// run never materializes every candidate of every window at once.
type winLayer struct {
	wireArea int64       // union wire area clipped to the window
	free     []geom.Rect // feasible fill region pieces clipped to window
	// wires holds the indices (into the layer's wire list) of the wires
	// whose clip to this window is non-empty. Stages that need the clipped
	// geometry re-derive it into scratch via window.wireClips — 4 bytes per
	// incidence retained instead of a rectangle.
	wires []int32
}

// window is the unit of independent work.
type window struct {
	rect   geom.Rect
	layers []winLayer
	sel    []cell // selected candidates across layers (output of Alg. 1)
}

// wireClips materializes layer l's window-clipped wire rectangles from the
// indices recorded during preparation, appending into dst[:0]. The clips
// come out in input (index) order, matching what preparation saw, so every
// union-level computation over them is deterministic.
func (w *window) wireClips(dst []geom.Rect, lay *layout.Layout, l int) []geom.Rect {
	dst = dst[:0]
	wires := lay.Layers[l].Wires
	for _, si := range w.layers[l].wires {
		if c := wires[si].Intersect(w.rect); !c.Empty() {
			dst = append(dst, c)
		}
	}
	return dst
}

// tileGrid computes the tiling of r: the cell counts and cell dimensions
// of the uniform grid with pitch cell+MinSpace, cells capped at MaxFillDim
// and no smaller than MinWidth/MinArea. ok is false when r cannot host a
// legal cell.
func tileGrid(r geom.Rect, rules layout.Rules) (nx, ny int, cw, ch int64, ok bool) {
	maxDim := rules.MaxFillDim
	if maxDim <= 0 {
		maxDim = 16 * rules.MinWidth
	}
	w, h := r.W(), r.H()
	if w < rules.MinWidth || h < rules.MinWidth || w*h < rules.MinArea {
		return 0, 0, 0, 0, false
	}
	// Smallest cell counts keeping every cell within maxDim.
	nx = int((w + rules.MinSpace + maxDim + rules.MinSpace - 1) / (maxDim + rules.MinSpace))
	if nx < 1 {
		nx = 1
	}
	ny = int((h + rules.MinSpace + maxDim + rules.MinSpace - 1) / (maxDim + rules.MinSpace))
	if ny < 1 {
		ny = 1
	}
	// Cell dimensions after reserving the spacing gutters.
	cw = (w - int64(nx-1)*rules.MinSpace) / int64(nx)
	ch = (h - int64(ny-1)*rules.MinSpace) / int64(ny)
	if cw < rules.MinWidth || ch < rules.MinWidth || cw*ch < rules.MinArea {
		return 0, 0, 0, 0, false
	}
	return nx, ny, cw, ch, true
}

// TileRegion splits a free rectangle into candidate fill cells: a uniform
// grid with pitch cell+MinSpace, cells capped at MaxFillDim and no smaller
// than MinWidth/MinArea. Slivers that cannot host a legal fill are
// dropped. Exported for reuse by the baseline fillers.
func TileRegion(r geom.Rect, rules layout.Rules) []geom.Rect {
	var out []geom.Rect
	for _, c := range appendCells(nil, r, 0, rules) {
		out = append(out, c.rect)
	}
	return out
}

// TileRegionArea returns the total candidate area TileRegion would tile
// from r — nx·ny cells of cw×ch — without materializing the cells. Used
// by the first planning round to bound achievable density in O(1) per
// free piece.
func TileRegionArea(r geom.Rect, rules layout.Rules) int64 {
	nx, ny, cw, ch, ok := tileGrid(r, rules)
	if !ok {
		return 0
	}
	return int64(nx) * int64(ny) * cw * ch
}

// appendCells tiles r and appends the cells (layer l, zero quality) to
// dst in row-major order.
func appendCells(dst []cell, r geom.Rect, l int, rules layout.Rules) []cell {
	nx, ny, cw, ch, ok := tileGrid(r, rules)
	if !ok {
		return dst
	}
	y := r.YL
	for j := 0; j < ny; j++ {
		x := r.XL
		for i := 0; i < nx; i++ {
			dst = append(dst, cell{rect: geom.Rect{XL: x, YL: y, XH: x + cw, YH: y + ch}, layer: l})
			x += cw + rules.MinSpace
		}
		y += ch + rules.MinSpace
	}
	return dst
}

// candScratch bundles the reusable per-worker state of candidate
// generation: the per-layer spatial index of already-selected cells, the
// summed-area coverage tables over the window's static shape sets (wires,
// free regions) and every per-batch cell buffer. Pooled via candPool so a
// streaming run performs no steady-state allocation here beyond the
// selected cells themselves.
type candScratch struct {
	selIx   []*geom.Index
	wireCov []geom.AreaTable
	freeCov []geom.AreaTable
	wclips  [][]geom.Rect
	batch   []cell
	zero    []cell
	neigh   []geom.Rect
}

var candPool = sync.Pool{New: func() any { return new(candScratch) }}

// layerSlices resizes the per-layer members to nl layers, resetting the
// selection indexes over the window bounds.
func (cs *candScratch) layerSlices(nl int, bounds geom.Rect) {
	cs.selIx = indexes(cs.selIx, nl, bounds)
	if cap(cs.wireCov) < nl {
		cs.wireCov = make([]geom.AreaTable, nl)
	}
	cs.wireCov = cs.wireCov[:nl]
	if cap(cs.freeCov) < nl {
		cs.freeCov = make([]geom.AreaTable, nl)
	}
	cs.freeCov = cs.freeCov[:nl]
	if cap(cs.wclips) < nl {
		cs.wclips = append(cs.wclips[:cap(cs.wclips)], make([][]geom.Rect, nl-cap(cs.wclips))...)
	}
	cs.wclips = cs.wclips[:nl]
}

// selectCandidates runs Alg. 1 on one window using pooled scratch. See
// selectCandidatesScratch.
func (w *window) selectCandidates(lay *layout.Layout, dt []float64, lambda float64) {
	cs := candPool.Get().(*candScratch)
	w.selectCandidatesScratch(lay, dt, lambda, cs)
	candPool.Put(cs)
}

// selectCandidatesScratch runs Alg. 1 on one window: odd layers first
// (preferring cells that are free on the neighbour layer too — "Region 3"
// of Figs. 4/5), then even layers ranked by the quality score
// q = −overlay/area + γ·area/aw (Eqn. 8). dt are the per-layer target
// densities; selection stops once the window density reaches λ·dt.
// Candidate cells are tiled on the fly from the window's free pieces into
// scratch, so only the selected cells outlive the call.
func (w *window) selectCandidatesScratch(lay *layout.Layout, dt []float64, lambda float64, cs *candScratch) {
	aw := float64(w.rect.Area())
	if aw == 0 {
		return
	}
	nl := len(w.layers)
	w.sel = w.sel[:0]
	cs.layerSlices(nl, w.rect)

	// Static coverage tables: free regions of odd layers feed the pass-1
	// shared test, wire clips of even layers feed the pass-2 overlay
	// estimates and neighbour holes. The clips are materialized from the
	// prepared wire indices into scratch (pass 2 only ever consults the
	// even-indexed neighbours of an odd layer), and the banded area tables
	// answer each coverage query without a scanline sweep.
	for l := 0; l < nl; l++ {
		if l%2 == 1 {
			cs.freeCov[l].Build(w.layers[l].free)
		} else {
			cs.wclips[l] = w.wireClips(cs.wclips[l], lay, l)
			cs.wireCov[l].Build(cs.wclips[l])
		}
	}
	selIx := cs.selIx

	assign := func(l int, cells []cell) {
		target := lambda * dt[l] * aw
		cur := float64(w.layers[l].wireArea)
		for _, c := range cells {
			if cur >= target {
				break
			}
			w.sel = append(w.sel, c)
			selIx[l].Insert(c.rect)
			cur += float64(c.rect.Area())
		}
	}

	// Pass 1: odd layers (1-based odd ⇒ 0-based even indices 0,2,4,…).
	for l := 0; l < nl; l += 2 {
		cells := cs.batch[:0]
		for _, fr := range w.layers[l].free {
			cells = appendCells(cells, fr, l, lay.Rules)
		}
		cs.batch = cells
		useShared := false
		if l+1 < nl {
			dg := dt[l] - float64(w.layers[l].wireArea)/aw
			dg1 := dt[l+1] - float64(w.layers[l+1].wireArea)/aw
			var sharedArea int64
			for i := range cells {
				cov := cs.freeCov[l+1].OverlapArea(cells[i].rect)
				cells[i].shared = cov == cells[i].rect.Area()
				if cells[i].shared {
					sharedArea += cells[i].rect.Area()
				}
			}
			need := (maxF(dg, 0) + maxF(dg1, 0)) * aw
			useShared = float64(sharedArea) >= need
		}
		if useShared {
			// Zero-overlay case: prefer cells free on both layers, larger
			// first within each class.
			sort.Slice(cells, func(a, b int) bool {
				if cells[a].shared != cells[b].shared {
					return cells[a].shared
				}
				return cells[a].rect.Area() > cells[b].rect.Area()
			})
		} else {
			// Non-zero overlay case: plain size order (Alg. 1 line 16).
			sort.Slice(cells, func(a, b int) bool {
				return cells[a].rect.Area() > cells[b].rect.Area()
			})
		}
		for i := range cells {
			cells[i].quality = gamma * float64(cells[i].rect.Area()) / aw
			if cells[i].shared {
				cells[i].quality += 1 // zero-overlay bonus keeps them preferred later
			}
		}
		assign(l, cells)
	}

	// Pass 2: even layers (0-based odd indices 1,3,5,…). Two candidate
	// batches: first, cells carved from the region with no shape above or
	// below (true Region 3 of Figs. 4/5 — zero overlay by construction);
	// then the ordinary grid cells in quality order (Eqn. 8) to cover the
	// remaining density demand. Either batch is pairwise legal on its own,
	// and only one of them is assigned.
	inset := (lay.Rules.MinSpace + 1) / 2
	for l := 1; l < nl; l += 2 {
		neighbors := cs.neigh[:0]
		collectSel := func(ix *geom.Index) {
			for i := 0; i < ix.Len(); i++ {
				neighbors = append(neighbors, ix.Rect(i))
			}
		}
		if l-1 >= 0 {
			collectSel(selIx[l-1])
			neighbors = append(neighbors, cs.wclips[l-1]...)
		}
		if l+1 < nl {
			collectSel(selIx[l+1])
			neighbors = append(neighbors, cs.wclips[l+1]...)
		}
		cs.neigh = neighbors
		zero := cs.zero[:0]
		for _, piece := range w.layers[l].free {
			vertical := piece.H() > piece.W()
			for _, zr := range geom.Difference(piece, neighbors, vertical) {
				zero = appendCells(zero, zr.Expand(-inset), l, lay.Rules)
			}
		}
		cs.zero = zero
		for i := range zero {
			// Zero overlay: quality is the pure area term plus a bonus so
			// these always outrank overlapped cells downstream.
			zero[i].shared = true
			zero[i].quality = 1 + gamma*float64(zero[i].rect.Area())/aw
		}
		grid := cs.batch[:0]
		for _, fr := range w.layers[l].free {
			grid = appendCells(grid, fr, l, lay.Rules)
		}
		cs.batch = grid
		for i := range grid {
			var ov int64
			if l-1 >= 0 {
				ov += selIx[l-1].OverlapAreaDisjoint(grid[i].rect)
				ov += cs.wireCov[l-1].OverlapArea(grid[i].rect)
			}
			if l+1 < nl {
				ov += selIx[l+1].OverlapAreaDisjoint(grid[i].rect)
				ov += cs.wireCov[l+1].OverlapArea(grid[i].rect)
			}
			area := float64(grid[i].rect.Area())
			grid[i].quality = -float64(ov)/area + gamma*area/aw
		}
		sort.Slice(zero, func(a, b int) bool { return zero[a].rect.Area() > zero[b].rect.Area() })
		sort.Slice(grid, func(a, b int) bool { return grid[a].quality > grid[b].quality })
		// Case I (Fig. 4): the zero-overlay region alone meets the demand —
		// fill entirely inside it. Case II (Fig. 5): it cannot — use the
		// full grid in quality order instead (mixing the two tilings wastes
		// area on spacing conflicts between them).
		var zeroArea int64
		for _, c := range zero {
			zeroArea += c.rect.Area()
		}
		if float64(w.layers[l].wireArea+zeroArea) >= lambda*dt[l]*aw {
			assign(l, zero)
		} else {
			assign(l, grid)
		}
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
