package density

import (
	"fmt"

	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
)

// This file implements multi-window (overlapping-dissection) density
// analysis in the style of Kahng et al.'s multilevel density control
// (reference [3] of the paper): windows of size w are evaluated at every
// offset that is a multiple of w/r, not just the fixed dissection, so
// density extremes that straddle fixed-window borders are not missed.

// MultiWindow computes the density of every w×w window placed at offsets
// that are multiples of w/r across the die, given rectangles of covered
// area (wires + fills; overlaps among rects are counted once per tile).
// It returns a Map over the fine (w/r)-grid where each entry holds the
// density of the window whose lower-left corner is at that fine cell —
// windows are clipped at the die boundary (partial windows normalized by
// their true area).
//
// r must divide into w reasonably (w/r >= 1); typical r is 2 or 4.
func MultiWindow(die geom.Rect, w int64, r int, covered []geom.Rect) (*grid.Map, error) {
	if r < 1 {
		return nil, fmt.Errorf("density: r must be >= 1, got %d", r)
	}
	step := w / int64(r)
	if step < 1 {
		return nil, fmt.Errorf("density: window %d too small for r=%d", w, r)
	}
	fine, err := grid.New(die, step)
	if err != nil {
		return nil, err
	}
	// Exact per-tile covered area on the fine grid.
	perTile := make([][]geom.Rect, fine.NumWindows())
	for _, c := range covered {
		fine.RangeOverlapping(c, func(i, j int, clip geom.Rect) {
			k := j*fine.NX + i
			perTile[k] = append(perTile[k], clip)
		})
	}
	tileArea := grid.NewMap(fine)
	for k, rects := range perTile {
		if len(rects) > 0 {
			tileArea.V[k] = float64(geom.UnionArea(rects))
		}
	}
	// Sliding-window sums over r×r fine tiles via prefix sums.
	nx, ny := fine.NX, fine.NY
	pref := make([]float64, (nx+1)*(ny+1))
	at := func(i, j int) float64 { return pref[j*(nx+1)+i] }
	for j := 1; j <= ny; j++ {
		for i := 1; i <= nx; i++ {
			pref[j*(nx+1)+i] = tileArea.V[(j-1)*nx+(i-1)] + at(i-1, j) + at(i, j-1) - at(i-1, j-1)
		}
	}
	out := grid.NewMap(fine)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			i1, j1 := i+r, j+r
			if i1 > nx {
				i1 = nx
			}
			if j1 > ny {
				j1 = ny
			}
			area := at(i1, j1) - at(i, j1) - at(i1, j) + at(i, j)
			// True window extent (clipped at the die).
			win := geom.Rect{
				XL: die.XL + int64(i)*step,
				YL: die.YL + int64(j)*step,
				XH: die.XL + int64(i)*step + w,
				YH: die.YL + int64(j)*step + w,
			}.Intersect(die)
			if wa := float64(win.Area()); wa > 0 {
				out.V[j*nx+i] = area / wa
			}
		}
	}
	return out, nil
}

// MultiWindowExtremes returns the minimum and maximum density over all
// overlapping windows — the multi-window analogue of density-rule
// checking (lower/upper bound violations).
func MultiWindowExtremes(die geom.Rect, w int64, r int, covered []geom.Rect) (lo, hi float64, err error) {
	m, err := MultiWindow(die, w, r, covered)
	if err != nil {
		return 0, 0, err
	}
	lo, hi = m.MinMax()
	return lo, hi, nil
}

// WorstWindowGap reports how much worse the overlapping-window density
// range is compared to the fixed dissection: the difference between the
// overlapping max-min spread and the fixed-grid max-min spread. A positive
// value means the fixed dissection under-reports variation (the classic
// argument for multi-window analysis).
func WorstWindowGap(die geom.Rect, w int64, r int, covered []geom.Rect) (float64, error) {
	over, err := MultiWindow(die, w, r, covered)
	if err != nil {
		return 0, err
	}
	g, err := grid.New(die, w)
	if err != nil {
		return 0, err
	}
	perWin := make([][]geom.Rect, g.NumWindows())
	for _, c := range covered {
		g.RangeOverlapping(c, func(i, j int, clip geom.Rect) {
			k := j*g.NX + i
			perWin[k] = append(perWin[k], clip)
		})
	}
	fixed := grid.NewMap(g)
	for k, rects := range perWin {
		wa := float64(g.Window(k%g.NX, k/g.NX).Area())
		if wa > 0 && len(rects) > 0 {
			fixed.V[k] = float64(geom.UnionArea(rects)) / wa
		}
	}
	oLo, oHi := over.MinMax()
	fLo, fHi := fixed.MinMax()
	return (oHi - oLo) - (fHi - fLo), nil
}
