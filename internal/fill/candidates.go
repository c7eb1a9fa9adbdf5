package fill

import (
	"cmp"
	"slices"

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
// the worker's scratch) and only the selected ones survive in window.sel,
// so a run never materializes every candidate of every window at once.
type winLayer struct {
	wireArea int64       // union wire area clipped to the window
	selArea  int64       // area of the window's selected cells on this layer
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
	// numSel and the layers' selArea are the window's selection summary,
	// what planning round 2, the candidate count, sizing targets and the
	// cache read. assign keeps them in step with sel; a cache selection
	// hit loads them from its entry instead and leaves sel empty.
	numSel int
}

// startSelection empties w's selection and its summary before a
// candidate selection runs.
func (w *window) startSelection() {
	w.sel = w.sel[:0]
	w.numSel = 0
	for l := range w.layers {
		w.layers[l].selArea = 0
	}
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
// generation: one coverage table per layer and every per-batch buffer.
// Each pool worker owns one (scratch.cand), so a worker performs no
// steady-state allocation here beyond the selected cells themselves.
type candScratch struct {
	// cov[l] answers layer l's coverage queries. For a pass-2 layer
	// (odd l) it covers the layer's free pieces: pass 1's shared test.
	// For a pass-1 layer (even l), covT[l] covers the transposed
	// shapes[l]. Pass 2 reads it for a cell's overlay, as a transposed
	// query, and for the Region 3 of vertical pieces, which are most
	// pieces. cov[l] covers shapes[l] untransposed; only the Region 3 of
	// a horizontal piece reads it, so it is built when the first such
	// piece of the window asks (hasCov[l]).
	cov, covT []geom.AreaTable
	hasCov    []bool
	// none is an empty table: the missing neighbour above the top layer.
	none geom.AreaTable
	// shapes[l] is pass-1 layer l's wire clips followed by its selected
	// cells; shapesT holds one layer's transposes while covT[l] builds.
	shapes  [][]geom.Rect
	shapesT []geom.Rect
	batch   []cell
	pieces  []geom.Rect
	free    geom.FreeScratch
}

// layerSlices resizes the per-layer members to nl layers.
func (cs *candScratch) layerSlices(nl int) {
	if cap(cs.cov) < nl {
		cs.cov = make([]geom.AreaTable, nl)
		cs.covT = make([]geom.AreaTable, nl)
		cs.hasCov = make([]bool, nl)
	}
	cs.cov, cs.covT, cs.hasCov = cs.cov[:nl], cs.covT[:nl], cs.hasCov[:nl]
	if cap(cs.shapes) < nl {
		cs.shapes = append(cs.shapes[:cap(cs.shapes)], make([][]geom.Rect, nl-cap(cs.shapes))...)
	}
	cs.shapes = cs.shapes[:nl]
}

// region3 appends to dst the part of piece, a free piece of pass-2 layer
// l, that no shape of layer l−1 or l+1 covers: "Region 3" of Figs. 4/5.
// The slabs are those of geom.Difference over piece and the concatenated
// neighbour lists shapes[l−1] and shapes[l+1], horizontal ones or, for a
// piece taller than wide, vertical ones. They are read from the
// neighbours' coverage tables, built at most once per window, so no
// neighbour is swept again per piece.
func (cs *candScratch) region3(dst []geom.Rect, piece geom.Rect, l int) []geom.Rect {
	top := l+1 < len(cs.cov)
	if piece.H() <= piece.W() {
		above := &cs.none
		if top {
			above = cs.horizontal(l + 1)
		}
		return geom.AppendFree(dst, piece, cs.horizontal(l-1), above, &cs.free)
	}
	aboveT := &cs.none
	if top {
		aboveT = &cs.covT[l+1]
	}
	n := len(dst)
	dst = geom.AppendFree(dst, piece.Transpose(), &cs.covT[l-1], aboveT, &cs.free)
	for i := n; i < len(dst); i++ {
		dst[i] = dst[i].Transpose()
	}
	return dst
}

// horizontal returns pass-1 layer l's untransposed table over shapes[l],
// building it on the window's first call.
func (cs *candScratch) horizontal(l int) *geom.AreaTable {
	if !cs.hasCov[l] {
		cs.cov[l].Build(cs.shapes[l])
		cs.hasCov[l] = true
	}
	return &cs.cov[l]
}

// selectCandidates runs Alg. 1 on one window, appending to its
// selection: odd layers first (preferring cells that are free on the
// neighbour layer too — "Region 3" of Figs. 4/5), then even layers
// ranked by the quality score q = −overlay/area + γ·area/aw (Eqn. 8).
// dt are the per-layer target densities; selection stops once the
// window density reaches λ·dt. Candidate cells are tiled on the fly from
// the window's free pieces into scratch, so only the selected cells
// outlive the call.
//
// A cell's overlay is read from one coverage table per neighbour layer,
// built over that layer's wire clips and selected cells. The union is
// exact: a layer's cells are pairwise disjoint and lie at least MinSpace
// from its wires (Layout.Validate's fill-region contract), so the table
// reports the wire coverage plus the plain sum of cell intersections.
func (w *window) selectCandidates(lay *layout.Layout, dt []float64, lambda float64, cs *candScratch) {
	if w.rect.Area() == 0 {
		return
	}
	w.pass1(lay, dt, lambda, cs)
	w.pass2(lay, dt, lambda, cs)
}

// assign selects cells in order until layer l's area in the window
// (wires included) reaches target, adds them to the selection and its
// summary, and returns the selected prefix.
func (w *window) assign(l int, cells []cell, target float64) []cell {
	wl := &w.layers[l]
	cur := float64(wl.wireArea)
	n := 0
	for ; n < len(cells) && cur < target; n++ {
		a := cells[n].rect.Area()
		cur += float64(a)
		wl.selArea += a
	}
	w.sel = append(w.sel, cells[:n]...)
	w.numSel += n
	return cells[:n]
}

// pass1 selects the cells of the odd layers (1-based odd ⇒ 0-based even
// indices 0,2,4,…) and builds their transposed coverage tables for pass
// 2. Their untransposed tables wait for a horizontal piece to ask.
func (w *window) pass1(lay *layout.Layout, dt []float64, lambda float64, cs *candScratch) {
	aw := float64(w.rect.Area())
	nl := len(w.layers)
	cs.layerSlices(nl)
	for l := 1; l < nl; l += 2 {
		cs.cov[l].Build(w.layers[l].free)
	}
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
				cov := cs.cov[l+1].OverlapArea(cells[i].rect)
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
			slices.SortFunc(cells, func(a, b cell) int {
				if a.shared != b.shared {
					if a.shared {
						return -1
					}
					return 1
				}
				return byAreaDesc(a, b)
			})
		} else {
			// Non-zero overlay case: plain size order (Alg. 1 line 16).
			slices.SortFunc(cells, byAreaDesc)
		}
		for i := range cells {
			cells[i].quality = gamma * float64(cells[i].rect.Area()) / aw
			if cells[i].shared {
				cells[i].quality += 1 // zero-overlay bonus keeps them preferred later
			}
		}
		shapes := w.wireClips(cs.shapes[l], lay, l)
		for _, c := range w.assign(l, cells, lambda*dt[l]*aw) {
			shapes = append(shapes, c.rect)
		}
		cs.shapes[l] = shapes
		cs.hasCov[l] = false
		shapesT := cs.shapesT[:0]
		for _, r := range shapes {
			shapesT = append(shapesT, r.Transpose())
		}
		cs.shapesT = shapesT
		cs.covT[l].Build(shapesT)
	}
}

// pass2 selects the cells of the even layers (0-based odd indices
// 1,3,5,…) against the tables pass 1 built. The zero-overlay pieces are
// the free space no shape above or below covers (true Region 3 of Figs.
// 4/5). Case I (Fig. 4): their cells alone meet the demand, so the layer
// fills entirely inside them. Case II (Fig. 5): they cannot, so the layer
// takes the ordinary grid cells in quality order (Eqn. 8) instead; mixing
// the two tilings would waste area on spacing conflicts between them.
// Only the batch that is assigned is tiled, and either is pairwise legal
// on its own.
func (w *window) pass2(lay *layout.Layout, dt []float64, lambda float64, cs *candScratch) {
	aw := float64(w.rect.Area())
	nl := len(w.layers)
	inset := (lay.Rules.MinSpace + 1) / 2
	for l := 1; l < nl; l += 2 {
		pieces := cs.pieces[:0]
		var zeroArea int64
		for _, piece := range w.layers[l].free {
			// Region 3's slabs land at pieces[n:] and are inset and
			// filtered in place.
			n := len(pieces)
			pieces = cs.region3(pieces, piece, l)
			kept := pieces[:n]
			for _, zr := range pieces[n:] {
				zr = zr.Expand(-inset)
				if a := TileRegionArea(zr, lay.Rules); a > 0 {
					kept = append(kept, zr)
					zeroArea += a
				}
			}
			pieces = kept
		}
		cs.pieces = pieces
		cells := cs.batch[:0]
		target := lambda * dt[l] * aw
		if float64(w.layers[l].wireArea+zeroArea) >= target {
			for _, zr := range pieces {
				cells = appendCells(cells, zr, l, lay.Rules)
			}
			for i := range cells {
				// Zero overlay: quality is the pure area term plus a bonus
				// so these always outrank overlapped cells downstream.
				cells[i].quality = 1 + gamma*float64(cells[i].rect.Area())/aw
			}
			slices.SortFunc(cells, byAreaDesc)
		} else {
			for _, fr := range w.layers[l].free {
				cells = appendCells(cells, fr, l, lay.Rules)
			}
			for i := range cells {
				// The transposed tables answer the transposed query
				// with the same area.
				r := cells[i].rect
				rT := r.Transpose()
				ov := cs.covT[l-1].OverlapArea(rT)
				if l+1 < nl {
					ov += cs.covT[l+1].OverlapArea(rT)
				}
				area := float64(r.Area())
				cells[i].quality = -float64(ov)/area + gamma*area/aw
			}
			slices.SortFunc(cells, func(a, b cell) int { return cmp.Compare(b.quality, a.quality) })
		}
		cs.batch = cells
		w.assign(l, cells, target)
	}
}

// byAreaDesc orders cells by decreasing area. The cell sorts are
// unstable: cells with equal keys land in pdqsort's order, which the
// golden hashes pin, so they must stay on slices.SortFunc (or
// sort.Slice, the same algorithm).
func byAreaDesc(a, b cell) int { return cmp.Compare(b.rect.Area(), a.rect.Area()) }

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
