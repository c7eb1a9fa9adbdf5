package fill

import (
	"context"
	"fmt"
	"slices"

	"dummyfill/internal/dlp"
	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

// sizeScratch bundles the reusable per-worker state of window sizing: the
// LP solver from Options.NewSolver (the default closed-form solver reuses
// its solution buffer across the windows a worker processes), the LP
// arena, the coverage tables and every per-cell buffer of sizingPass. One
// worker sizes hundreds of windows over thousands of passes; with the
// scratch the whole loop performs no steady-state allocation. A
// sizeScratch is not safe for concurrent use.
type sizeScratch struct {
	solve    dlp.PSolver
	newSolve func() dlp.PSolver
	p        dlp.Problem

	cells []cell
	// wireCov[l] covers layer l's wire clips for the whole window;
	// fillCov[l] covers its cells (fills[l]) as the current pass began.
	wireCov, fillCov []geom.AreaTable
	wclips           []geom.Rect
	fills            [][]geom.Rect

	// Per-layer accumulators.
	area, surplus     []int64
	ovStep, plainStep []int64
	acc               []budgetAcc

	// Per-cell buffers.
	ov, minDims []int64
	drop        []bool
	idx         []int
	targets     []int64
	selArea     []int64
}

// budgetAcc accumulates the per-pass shrink-budget classes of one layer.
type budgetAcc struct {
	ovCross, plainCross int64 // Σ cross dims by class
	ovRemovable         int64 // max area the ov class can shed
}

// newSizeScratch builds a scratch with the solver factory resolved from
// opts. The solver itself (and its arenas) is created lazily on first use,
// so scratches for workers that only meet empty windows stay cheap.
func newSizeScratch(opts Options) *sizeScratch {
	return &sizeScratch{newSolve: opts.NewSolver}
}

// solver returns the scratch's solver, creating it on first use.
func (sc *sizeScratch) solver() dlp.PSolver {
	if sc.solve == nil {
		sc.solve = sc.newSolve()
	}
	return sc.solve
}

// layerSlices resizes the per-layer buffers to nl layers.
func (sc *sizeScratch) layerSlices(nl int) {
	sc.area = growI64(sc.area, nl)
	sc.surplus = growI64(sc.surplus, nl)
	sc.ovStep = growI64(sc.ovStep, nl)
	sc.plainStep = growI64(sc.plainStep, nl)
	if cap(sc.acc) < nl {
		sc.acc = make([]budgetAcc, nl)
	}
	sc.acc = sc.acc[:nl]
	if cap(sc.wireCov) < nl {
		sc.wireCov = make([]geom.AreaTable, nl)
		sc.fillCov = make([]geom.AreaTable, nl)
	}
	sc.wireCov, sc.fillCov = sc.wireCov[:nl], sc.fillCov[:nl]
	if cap(sc.fills) < nl {
		sc.fills = append(sc.fills[:cap(sc.fills)], make([][]geom.Rect, nl-cap(sc.fills))...)
	}
	sc.fills = sc.fills[:nl]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// sizeWindowWith shrinks the selected candidates of one window so that
// each layer's fill area converges to its target area while overlay with
// neighbouring layers is minimized (§3.3). The non-convex problem (Eqn. 9)
// is relaxed by alternating directions: with heights fixed, widths are the
// solution of a difference-constraint LP (Eqns. 10–12); then the roles
// swap. The spacing rows of Eqn. 13 are implied by the bounds: candidates
// are pairwise legal from birth and every edge stays inside its own
// candidate (DESIGN §6.1). The LP therefore splits into one independent
// pair of edges per cell, which the default solver (dlp.NewPairs) solves
// exactly in closed form; the paper's dual min-cost flow (Eqns. 14–16)
// returns the same solution.
//
// targets[l] is the desired fill area (not density) for layer l within
// this window. Returns the surviving sized fills; the slice aliases the
// caller-owned scratch and is only valid until the next call with the
// same scratch. Solving uses the explicit LP solver solve — the hook the
// engine's fallback chain uses to retry a window on a different tier.
func sizeWindowWith(ctx context.Context, w *window, lay *layout.Layout, targets []int64, opts Options, sc *sizeScratch, solve dlp.PSolver) ([]cell, error) {
	if len(w.sel) == 0 {
		return nil, nil
	}
	cells := append(sc.cells[:0], w.sel...)
	sc.cells = cells

	nl := len(lay.Layers)
	sc.layerSlices(nl)

	// Deletion pre-pass: while a layer's selected area exceeds its target
	// by at least the area of its worst candidate, drop that candidate
	// entirely. Fewer fills → smaller GDSII, and the sizing LP converges
	// from a closer starting point.
	cells = pruneSurplusScratch(cells, targets, nl, sc)

	// Wire coverage tables per layer, reused across passes. The clips are
	// materialized into scratch from the wire indices recorded during
	// preparation (only the wires incident to this window — no rescan of
	// the layout's wire list), and the banded area table answers each
	// per-cell overlay query exactly without a union sweep.
	for l := 0; l < nl; l++ {
		sc.wclips = w.wireClips(sc.wclips, lay, l)
		sc.wireCov[l].Build(sc.wclips)
	}

	for pass := 0; pass < maxSizingPasses; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		horizontal := pass%2 == 0
		changed, err := sizingPass(ctx, cells, w, lay, targets, horizontal, opts, sc, solve)
		if err != nil {
			return nil, err
		}
		if !changed && pass >= 2 {
			break
		}
	}
	// Drop cells that have been shrunk into illegality (defensive; the
	// bounds should prevent this).
	return keepLegal(cells, lay.Rules), nil
}

// keepLegal filters cells in place down to those meeting the minimum
// width and area rules.
func keepLegal(cells []cell, rules layout.Rules) []cell {
	out := cells[:0]
	for _, c := range cells {
		r := c.rect
		if r.W() >= rules.MinWidth && r.H() >= rules.MinWidth && r.Area() >= rules.MinArea {
			out = append(out, c)
		}
	}
	return out
}

// pruneSurplusScratch removes lowest-quality cells while a layer remains
// over target even without them.
func pruneSurplusScratch(cells []cell, targets []int64, nl int, sc *sizeScratch) []cell {
	area := growI64(sc.area, nl)
	sc.area = area
	for _, c := range cells {
		area[c.layer] += c.rect.Area()
	}
	// Sort ascending by quality so the worst are considered first; keep
	// original order otherwise (stable for determinism).
	idx := sc.idx[:0]
	for i := range cells {
		idx = append(idx, i)
	}
	sc.idx = idx
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case cells[a].quality < cells[b].quality:
			return -1
		case cells[a].quality > cells[b].quality:
			return 1
		}
		return 0
	})
	drop := growBool(sc.drop, len(cells))
	sc.drop = drop
	for _, i := range idx {
		l := cells[i].layer
		a := cells[i].rect.Area()
		if area[l]-a >= targets[l] {
			drop[i] = true
			area[l] -= a
		}
	}
	out := cells[:0]
	for i, c := range cells {
		if !drop[i] {
			out = append(out, c)
		}
	}
	return out
}

// sizingPass runs one directional LP over all cells in the window,
// resizing cells in place on success. The solution is re-validated
// against the LP before any geometry is touched, so a misbehaving solver
// cannot corrupt the window — it can only fail it.
func sizingPass(ctx context.Context, cells []cell, w *window, lay *layout.Layout, targets []int64, horizontal bool, opts Options, sc *sizeScratch, solve dlp.PSolver) (bool, error) {
	nl := len(lay.Layers)
	rules := lay.Rules
	n := len(cells)
	if n == 0 {
		return false, nil
	}

	// Current per-layer areas and fill coverage tables for overlay
	// linearization.
	area := growI64(sc.area, nl)
	sc.area = area
	fills := sc.fills
	for l := range fills {
		fills[l] = fills[l][:0]
	}
	for _, c := range cells {
		area[c.layer] += c.rect.Area()
		fills[c.layer] = append(fills[c.layer], c.rect)
	}
	fillCov, wireCov := sc.fillCov, sc.wireCov
	for l := range fillCov {
		fillCov[l].Build(fills[l])
	}
	surplus := growI64(sc.surplus, nl)
	sc.surplus = surplus
	for l := range surplus {
		surplus[l] = area[l] - targets[l]
	}

	// Per-cell overlay with neighbour layers at current geometry.
	ov := growI64(sc.ov, n)
	sc.ov = ov
	// A layer's fills are pairwise disjoint (selection enforces spacing
	// and sizing only shrinks) and lie at least MinSpace from its wires,
	// so the two tables' coverages add up to the layer's exact union.
	for i, c := range cells {
		var o int64
		if c.layer > 0 {
			o += fillCov[c.layer-1].OverlapArea(c.rect) + wireCov[c.layer-1].OverlapArea(c.rect)
		}
		if c.layer+1 < nl {
			o += fillCov[c.layer+1].OverlapArea(c.rect) + wireCov[c.layer+1].OverlapArea(c.rect)
		}
		ov[i] = o
	}

	// Per-pass shrink budget (§3.3.3): only layers above target shed area,
	// and each pass removes at most ≈ the surplus, so fill density cannot
	// keep drifting away from the target once reached. Overlay-carrying
	// cells absorb the budget first; plain cells only shed what remains.
	minDims := growI64(sc.minDims, n)
	sc.minDims = minDims
	acc := sc.acc
	for l := range acc {
		acc[l] = budgetAcc{}
	}
	for i, c := range cells {
		lo, hi, crossDim := edges(c.rect, horizontal)
		dim := hi - lo
		md := minDimFor(rules, crossDim)
		if md > dim {
			md = dim // already at/below the legal minimum: freeze size
		}
		minDims[i] = md
		if ov[i] > 0 {
			acc[c.layer].ovCross += crossDim
			acc[c.layer].ovRemovable += (dim - md) * crossDim
		} else {
			acc[c.layer].plainCross += crossDim
		}
	}
	ovStep := growI64(sc.ovStep, nl)
	plainStep := growI64(sc.plainStep, nl)
	sc.ovStep, sc.plainStep = ovStep, plainStep
	for l := 0; l < nl; l++ {
		s := surplus[l]
		if s <= 0 {
			continue
		}
		if acc[l].ovRemovable >= s {
			// Overlay cells alone can cover the surplus.
			if acc[l].ovCross > 0 {
				ovStep[l] = (s + acc[l].ovCross - 1) / acc[l].ovCross
			}
		} else {
			ovStep[l] = 1 << 40 // full shrink for ov cells
			if rest := s - acc[l].ovRemovable; rest > 0 && acc[l].plainCross > 0 {
				plainStep[l] = (rest + acc[l].plainCross - 1) / acc[l].plainCross
			}
		}
	}

	// Build the difference-constraint LP: two variables per cell (low and
	// high edge in the active direction).
	p := &sc.p
	p.Reset(2 * n)
	for i, c := range cells {
		lo, hi, crossDim := edges(c.rect, horizontal)
		dim := hi - lo
		minDim := minDims[i]
		step := plainStep[c.layer]
		if ov[i] > 0 {
			step = ovStep[c.layer]
		}
		if step > dim-minDim {
			step = dim - minDim
		}
		minKeep := dim - step
		if minKeep < minDim {
			minKeep = minDim
		}
		// Variable bounds: edges stay within the original cell.
		p.Lo[2*i] = lo
		p.Hi[2*i] = hi - minDim
		p.Lo[2*i+1] = lo + minDim
		p.Hi[2*i+1] = hi
		// Width constraint: high − low ≥ minKeep.
		p.AddConstraint(2*i+1, 2*i, minKeep)
		// Cost: density-gap slope ± crossDim plus overlay slope η·ov/dim.
		var cost int64
		switch {
		case surplus[c.layer] > 0:
			cost = crossDim
		case surplus[c.layer] < 0:
			cost = -crossDim
		}
		if dim > 0 {
			cost += opts.Eta * (ov[i] / dim)
		}
		p.C[2*i+1] = cost
		p.C[2*i] = -cost
	}

	x, _, err := solve(ctx, p)
	if err != nil {
		return false, fmt.Errorf("fill: sizing LP failed: %w", err)
	}
	if err := p.Check(x); err != nil {
		return false, fmt.Errorf("fill: solver returned invalid solution: %w", err)
	}

	changed := false
	for i := range cells {
		r := cells[i].rect
		if horizontal {
			r.XL, r.XH = x[2*i], x[2*i+1]
		} else {
			r.YL, r.YH = x[2*i], x[2*i+1]
		}
		if r != cells[i].rect {
			changed = true
			cells[i].rect = r
		}
	}
	return changed, nil
}

// edges extracts the (low, high) edges in the active direction and the
// fixed cross dimension.
func edges(r geom.Rect, horizontal bool) (lo, hi, cross int64) {
	if horizontal {
		return r.XL, r.XH, r.H()
	}
	return r.YL, r.YH, r.W()
}

// minDimFor is Eqn. (12): the minimum legal dimension given the fixed
// cross dimension — max(wm, ceil(am/cross)).
func minDimFor(rules layout.Rules, cross int64) int64 {
	m := rules.MinWidth
	if cross > 0 {
		if byArea := (rules.MinArea + cross - 1) / cross; byArea > m {
			m = byArea
		}
	}
	return m
}
