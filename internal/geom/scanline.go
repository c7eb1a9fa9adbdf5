package geom

import (
	"slices"
	"sync"
)

// This file implements the one y-sweep over sets of (possibly
// overlapping) rectangles that every boolean in the package shares:
// UnionArea totals its coverage, AreaTable.Build records it as bands, and
// Difference emits the complement of those bands within a window
// (free-space extraction).
//
// The sweep runs in the innermost loops of ingest, candidate generation
// and density accounting, so it is written for zero steady-state
// allocation: event lists, interval buffers and area tables live in
// sync.Pool-backed scratch arenas, and the x-coverage structure maintains
// its sorted interval list by splicing instead of re-sorting on every
// update.

// sweepEvent is a horizontal-edge event of the y-sweep.
type sweepEvent struct {
	y      int64
	xl, xh int64
	delta  int // +1 open, -1 close
}

// sweepScratch bundles the reusable buffers of one union sweep. Instances
// ping-pong through sweepPool so concurrent sweeps never share state.
type sweepScratch struct {
	evs []sweepEvent
	cov coverage
}

var sweepPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// buildEvents fills sc.evs with the open/close events of rects, sorted by
// y, and returns the slice (empty if every rect is empty).
func (sc *sweepScratch) buildEvents(rects []Rect) []sweepEvent {
	evs := sc.evs[:0]
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		evs = append(evs,
			sweepEvent{r.YL, r.XL, r.XH, +1},
			sweepEvent{r.YH, r.XL, r.XH, -1})
	}
	if len(evs) <= 32 {
		// Insertion sort: many of Difference's per-window sweeps have a
		// few dozen events at most, where it is cheaper than pdqsort's
		// indirect comparisons.
		for i := 1; i < len(evs); i++ {
			for j := i; j > 0 && evs[j].y < evs[j-1].y; j-- {
				evs[j], evs[j-1] = evs[j-1], evs[j]
			}
		}
	} else {
		slices.SortFunc(evs, func(a, b sweepEvent) int {
			switch {
			case a.y < b.y:
				return -1
			case a.y > b.y:
				return 1
			}
			return 0
		})
	}
	sc.evs = evs
	return evs
}

// UnionArea returns the exact area covered by the union of rects,
// counting overlapping regions once. It runs a y-sweep with an x-interval
// coverage structure in O(n log n + n·k) where k is the active set size.
func UnionArea(rects []Rect) int64 {
	// Fast paths for the tiny inputs that dominate per-cell overlay
	// queries: no sweep, no scratch checkout.
	switch len(rects) {
	case 0:
		return 0
	case 1:
		return rects[0].Area()
	case 2:
		return rects[0].Area() + rects[1].Area() - rects[0].Intersect(rects[1]).Area()
	}
	sc := sweepPool.Get().(*sweepScratch)
	evs := sc.buildEvents(rects)
	var area int64
	if len(evs) > 0 {
		cov := &sc.cov
		cov.reset()
		prevY := evs[0].y
		for i := 0; i < len(evs); {
			y := evs[i].y
			area += cov.total() * (y - prevY)
			for i < len(evs) && evs[i].y == y {
				cov.update(evs[i].xl, evs[i].xh, evs[i].delta)
				i++
			}
			prevY = y
		}
	}
	sweepPool.Put(sc)
	return area
}

// coverage maintains multiset interval coverage on the x axis as a sorted
// list of disjoint intervals with positive counts. update splices the
// affected range in place (binary search + single rebuild into a
// ping-pong buffer), so a sweep performs no sorting and no allocation
// once the two buffers have grown to the working-set size.
type coverage struct {
	ivals []covIval
	buf   []covIval
}

type covIval struct {
	xl, xh int64
	n      int
}

func (c *coverage) reset() { c.ivals = c.ivals[:0] }

// update adds delta to the coverage count of [xl,xh). Intervals whose
// count reaches zero are dropped; callers only ever close ranges they
// previously opened, so counts never go negative.
func (c *coverage) update(xl, xh int64, delta int) {
	if xl >= xh {
		return
	}
	ivals := c.ivals
	// First interval that ends after xl: everything before it is
	// untouched.
	lo, hi := 0, len(ivals)
	for lo < hi {
		mid := (lo + hi) / 2
		if ivals[mid].xh <= xl {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	buf := append(c.buf[:0], ivals[:lo]...)
	cur := xl
	i := lo
	for ; i < len(ivals) && ivals[i].xl < xh; i++ {
		iv := ivals[i]
		if iv.xl > cur {
			// Gap [cur, iv.xl) inside the update range.
			if delta > 0 {
				buf = append(buf, covIval{cur, iv.xl, delta})
			}
			cur = iv.xl
		} else if iv.xl < cur {
			// Left part of iv sticks out before xl: keep its count.
			buf = append(buf, covIval{iv.xl, cur, iv.n})
		}
		mid := min64(iv.xh, xh)
		if cur < mid {
			if n := iv.n + delta; n != 0 {
				buf = append(buf, covIval{cur, mid, n})
			}
			cur = mid
		}
		if iv.xh > xh {
			// Right part sticks out past xh: keep its count.
			buf = append(buf, covIval{xh, iv.xh, iv.n})
		}
	}
	if cur < xh && delta > 0 {
		buf = append(buf, covIval{cur, xh, delta})
	}
	buf = append(buf, ivals[i:]...)
	c.ivals, c.buf = buf, ivals
}

// total returns the covered length (count > 0).
func (c *coverage) total() int64 {
	var t int64
	for _, iv := range c.ivals {
		t += iv.xh - iv.xl
	}
	return t
}

// coveredInto appends the sorted disjoint x-intervals with positive
// coverage to dst[:0], merging touching neighbours.
func (c *coverage) coveredInto(dst []covIval) []covIval {
	dst = dst[:0]
	for _, iv := range c.ivals {
		if n := len(dst); n > 0 && dst[n-1].xh == iv.xl {
			dst[n-1].xh = iv.xh
			continue
		}
		dst = append(dst, covIval{iv.xl, iv.xh, 1})
	}
	return dst
}

// diffScratch bundles the reusable buffers of one Difference call.
type diffScratch struct {
	clipped []Rect
	at      AreaTable
	free    FreeScratch
}

var diffPool = sync.Pool{New: func() any { return new(diffScratch) }}

// noCover is the empty table Difference pairs with its own in AppendFree.
// It is never built, so concurrent readers share it safely.
var noCover AreaTable

// Difference appends to dst window minus the union of holes, decomposed
// into disjoint maximal slabs: horizontal ones, or vertical ones when
// vertical is set (far fewer, fatter pieces around vertical wires). This
// is the free-space extraction primitive used to derive feasible fill
// regions.
//
// The slabs are the complement of an AreaTable over the clipped holes,
// emitted by AppendFree: each band's uncovered x-intervals, plus
// full-width rows for the gaps between bands. Two rows have identical
// free sets exactly when they have identical covered sets, so the table's
// maximal band merging is the slabs' maximal vertical merging. Slabs come
// out ordered by YH, then by XL (in the transposed frame when vertical).
func Difference(dst []Rect, window Rect, holes []Rect, vertical bool) []Rect {
	if window.Empty() {
		return dst
	}
	if vertical {
		window = window.Transpose()
	}
	sc := diffPool.Get().(*diffScratch)
	clipped := sc.clipped[:0]
	for _, h := range holes {
		if vertical {
			h = h.Transpose()
		}
		if c := h.Intersect(window); !c.Empty() {
			clipped = append(clipped, c)
		}
	}
	sc.clipped = clipped
	sc.at.Build(clipped)
	n := len(dst)
	dst = AppendFree(dst, window, &sc.at, &noCover, &sc.free)
	diffPool.Put(sc)
	if vertical {
		for i := n; i < len(dst); i++ {
			dst[i] = dst[i].Transpose()
		}
	}
	return dst
}

// Transpose swaps the axes of r.
func (r Rect) Transpose() Rect { return Rect{r.YL, r.XL, r.YH, r.XH} }

// TotalArea sums rect areas without overlap removal.
func TotalArea(rects []Rect) int64 {
	var t int64
	for _, r := range rects {
		t += r.Area()
	}
	return t
}
