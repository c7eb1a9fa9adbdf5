package fill

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"dummyfill/internal/fillcache"
	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

// siteMode is the filler-cell placement strategy: candidates snap to the
// layout's placement lattice (whole sites of whole rows), widths come
// from a discrete master library, and sizing picks per-gap discrete
// widths by error diffusion instead of shrinking continuously. It shares
// the planner, cache and reorder buffer with rect mode, so the
// byte-identical determinism contract carries over unchanged.
type siteMode struct {
	e    *Engine
	grid layout.SiteGrid
	lib  *layout.FillLib
	pad  int64 // keepout, in sites, against placed cells and wires
}

// cacheID folds in everything that shapes site-mode geometry beyond the
// window content: the padding rule, the master library and the lattice
// pitch. The lattice *phase* is per-window content and lives in
// windowKeyExtra instead.
func (m *siteMode) cacheID() string {
	return fmt.Sprintf("%s/pad=%d/lib=%s/pitch=%dx%d",
		ModeSite, m.pad, m.lib.ID(), m.grid.SiteW, m.grid.RowH)
}

// windowKeyExtra hashes the window's site-lattice phase. Window cache
// keys are window-relative so identical content anywhere on the die
// shares one entry — but in site mode two content-identical windows at
// different lattice offsets tile into different fillers, so the phase
// must distinguish them.
func (m *siteMode) windowKeyExtra(w *window, h *fillcache.Hasher) {
	h.Int64(mod64(w.rect.XL-m.grid.Origin.X, m.grid.SiteW))
	h.Int64(mod64(w.rect.YL-m.grid.Origin.Y, m.grid.RowH))
}

// clipFree applies the padding keepout to a free piece, then clips it
// into the window. The keepout is applied to the piece — whose vertical
// edges sit against placed cells or wires unless they reach the die edge
// — before the window cut, so padding legality holds globally even when
// a gap spans a window seam.
func (m *siteMode) clipFree(fr, win geom.Rect) geom.Rect {
	if m.pad > 0 {
		die := m.e.lay.Die
		if fr.XL > die.XL {
			fr.XL += m.pad * m.grid.SiteW
		}
		if fr.XH < die.XH {
			fr.XH -= m.pad * m.grid.SiteW
		}
		if fr.XL >= fr.XH {
			return geom.Rect{}
		}
	}
	return fr.Intersect(win)
}

// fillableArea bounds the filler area one clipped piece can host: full
// rows covered × sites coverable by the library, in O(len(Widths)).
func (m *siteMode) fillableArea(fr geom.Rect) int64 {
	j0, j1, i0, i1, ok := m.latticeSpan(fr)
	if !ok {
		return 0
	}
	rem := int64(i1 - i0)
	for k := len(m.lib.Widths) - 1; k >= 0; k-- {
		rem %= m.lib.Widths[k]
	}
	covered := int64(i1-i0) - rem
	return int64(j1-j0) * covered * m.grid.SiteW * m.grid.RowH
}

// latticeSpan snaps a piece to the lattice: rows [j0,j1) fully covered
// vertically and sites [i0,i1) fully covered horizontally. ok is false
// when the piece holds no complete site of a complete row.
func (m *siteMode) latticeSpan(fr geom.Rect) (j0, j1, i0, i1 int, ok bool) {
	g := m.grid
	j0 = int(ceilDiv(fr.YL-g.Origin.Y, g.RowH))
	j1 = int(floorDiv(fr.YH-g.Origin.Y, g.RowH))
	i0 = int(ceilDiv(fr.XL-g.Origin.X, g.SiteW))
	i1 = int(floorDiv(fr.XH-g.Origin.X, g.SiteW))
	if j0 < 0 {
		j0 = 0
	}
	if j1 > g.Rows {
		j1 = g.Rows
	}
	if i0 < 0 {
		i0 = 0
	}
	if i1 > g.Sites {
		i1 = g.Sites
	}
	return j0, j1, i0, i1, j0 < j1 && i0 < i1
}

// appendSiteCells tiles one clipped piece into filler candidates: per
// covered row, a greedy largest-first packing of the site gap with
// library masters, left to right. Greedy-largest maximizes covered area
// for divisor-chain libraries (the power-of-two default) and is
// deterministic for any library.
func (m *siteMode) appendSiteCells(dst []cell, fr geom.Rect, l int) []cell {
	j0, j1, i0, i1, ok := m.latticeSpan(fr)
	if !ok {
		return dst
	}
	g := m.grid
	for j := j0; j < j1; j++ {
		yl := g.RowY(j)
		x := i0
		rem := int64(i1 - i0)
		for k := len(m.lib.Widths) - 1; k >= 0; k-- {
			wN := m.lib.Widths[k]
			for ; rem >= wN; rem -= wN {
				dst = append(dst, cell{
					rect:  geom.Rect{XL: g.SiteX(x), YL: yl, XH: g.SiteX(x + int(wN)), YH: yl + g.RowH},
					layer: l,
				})
				x += int(wN)
			}
		}
	}
	return dst
}

// selectCandidates tiles, per layer, every filler the free pieces can
// host and assigns them in size order (largest first, then
// bottom-to-top, left-to-right for determinism) until the window reaches
// λ·(target density). Overlay does not apply to single-layer placement
// lattices, so quality is the pure area term γ·area/aw of Eqn. 8 — the
// shared planner, pruning and reporting code reads it unchanged.
func (m *siteMode) selectCandidates(w *window, td []float64, cs *candScratch) {
	aw := float64(w.rect.Area())
	if aw == 0 {
		return
	}
	lambda := m.e.opts.Lambda
	for l := range w.layers {
		cells := cs.batch[:0]
		for _, fr := range w.layers[l].free {
			cells = m.appendSiteCells(cells, fr, l)
		}
		cs.batch = cells
		for i := range cells {
			cells[i].quality = gamma * float64(cells[i].rect.Area()) / aw
		}
		// Distinct cells of one layer are disjoint, so no two tie on this
		// key and an unstable sort gives the one order.
		slices.SortFunc(cells, func(a, b cell) int {
			return cmp.Or(cmp.Compare(b.rect.Area(), a.rect.Area()),
				cmp.Compare(a.rect.YL, b.rect.YL), cmp.Compare(a.rect.XL, b.rect.XL))
		})
		w.assign(l, cells, lambda*td[l]*aw)
	}
}

// sizeWindow reduces the selection toward the per-layer target areas by
// per-cell discrete width reduction with error diffusion: each cell's
// ideal share of the target (uniform ratio, plus the error carried from
// earlier cells) rounds down to the largest library master that fits,
// and the rounding remainder diffuses forward so the layer total tracks
// the target despite the discrete widths. Cells are left-anchored and
// only ever shrink, so legality (site alignment, padding, pairwise gaps)
// is inherited from candidate generation. No solver runs, so the result
// is a pure function of window content and always tier-0 cacheable.
func (m *siteMode) sizeWindow(_ context.Context, _ int, w *window, targets []int64, sc *sizeScratch, hc *healthCollector) ([]cell, bool, error) {
	cells := append(sc.cells[:0], w.sel...)
	sc.cells = cells
	nl := len(m.e.lay.Layers)
	area := growI64(sc.area, nl)
	sc.area = area
	for _, c := range cells {
		area[c.layer] += c.rect.Area()
	}
	carry := growI64(sc.surplus, nl) // per-layer diffused rounding error
	sc.surplus = carry
	siteArea := m.grid.SiteW * m.grid.RowH
	out := cells[:0]
	for i := range cells {
		l := cells[i].layer
		if area[l] <= targets[l] {
			out = append(out, cells[i])
			continue
		}
		a := cells[i].rect.Area()
		ratio := float64(targets[l]) / float64(area[l])
		des := int64(float64(a)*ratio) + carry[l]
		sites := des / siteArea
		if own := a / siteArea; sites > own {
			sites = own // never grow a cell beyond its gap
		}
		wN := m.lib.WidthFor(sites)
		carry[l] = des - wN*siteArea
		if wN == 0 {
			continue // dropped entirely; its share diffuses forward
		}
		cells[i].rect.XH = cells[i].rect.XL + wN*m.grid.SiteW
		out = append(out, cells[i])
	}
	hc.sized.Add(1)
	return out, true, nil
}

// floorDiv and ceilDiv are Euclidean-style int64 divisions, correct for
// coordinates below the lattice origin.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 { return -floorDiv(-a, b) }

// mod64 is the non-negative remainder of a mod b (b > 0).
func mod64(a, b int64) int64 {
	r := a % b
	if r < 0 {
		r += b
	}
	return r
}
