package geom

import (
	"slices"
	"sync"
)

// This file implements scanline boolean operations over sets of (possibly
// overlapping) rectangles: exact union area, union decomposition into
// disjoint maximal horizontal slabs, difference (free-space extraction),
// and pairwise intersection of two rectangle sets.
//
// These run in the innermost loops of candidate generation and density
// accounting, so they are written for zero steady-state allocation: event
// lists, interval buffers and open-slab stacks live in sync.Pool-backed
// scratch arenas, and the x-coverage structure maintains its sorted
// interval list by splicing instead of re-sorting on every update.

// sweepEvent is a horizontal-edge event of the y-sweep.
type sweepEvent struct {
	y      int64
	xl, xh int64
	delta  int // +1 open, -1 close
}

// openSlab tracks a rectangle currently being extended vertically while
// sweeping.
type openSlab struct {
	xl, xh, yl int64
}

// sweepScratch bundles the reusable buffers of one union sweep. Instances
// ping-pong through sweepPool so concurrent sweeps never share state.
type sweepScratch struct {
	evs        []sweepEvent
	cov        coverage
	prev, curr []covIval
	open       []openSlab
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
	slices.SortFunc(evs, func(a, b sweepEvent) int {
		switch {
		case a.y < b.y:
			return -1
		case a.y > b.y:
			return 1
		}
		return 0
	})
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

// UnionSlabs decomposes the union of rects into disjoint rectangles
// (maximal horizontal slabs). The output rectangles are non-overlapping
// and their total area equals UnionArea(rects).
func UnionSlabs(rects []Rect) []Rect {
	sc := sweepPool.Get().(*sweepScratch)
	evs := sc.buildEvents(rects)
	if len(evs) == 0 {
		sweepPool.Put(sc)
		return nil
	}
	cov := &sc.cov
	cov.reset()
	var out []Rect
	open := sc.open[:0]
	prev, curr := sc.prev[:0], sc.curr[:0]
	for i := 0; i < len(evs); {
		y := evs[i].y
		for i < len(evs) && evs[i].y == y {
			cov.update(evs[i].xl, evs[i].xh, evs[i].delta)
			i++
		}
		curr = cov.coveredInto(curr)
		if !sameIvals(prev, curr) {
			// Close all open slabs at y, open new ones from curr.
			for _, s := range open {
				if y > s.yl {
					out = append(out, Rect{s.xl, s.yl, s.xh, y})
				}
			}
			open = open[:0]
			for _, iv := range curr {
				open = append(open, openSlab{iv.xl, iv.xh, y})
			}
			prev, curr = curr, prev
		}
	}
	// All rects are closed by their own close event, so the active set is
	// empty here and nothing is left open.
	sc.open, sc.prev, sc.curr = open, prev, curr
	sweepPool.Put(sc)
	return out
}

func sameIvals(a, b []covIval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].xl != b[i].xl || a[i].xh != b[i].xh {
			return false
		}
	}
	return true
}

// diffScratch bundles the reusable buffers of one Difference call.
type diffScratch struct {
	clipped []Rect
	ys      []int64
	xs      []covIval
	free    []covIval
	prev    []covIval
	open    []openSlab
	holesT  []Rect
}

var diffPool = sync.Pool{New: func() any { return new(diffScratch) }}

// Difference returns window minus the union of holes, decomposed into
// disjoint rectangles (horizontal slabs). This is the free-space
// extraction primitive used to derive feasible fill regions.
func Difference(window Rect, holes []Rect) []Rect {
	if window.Empty() {
		return nil
	}
	sc := diffPool.Get().(*diffScratch)
	clipped := sc.clipped[:0]
	for _, h := range holes {
		c := h.Intersect(window)
		if !c.Empty() {
			clipped = append(clipped, c)
		}
	}
	sc.clipped = clipped
	if len(clipped) == 0 {
		diffPool.Put(sc)
		return []Rect{window}
	}
	// Sweep rows between consecutive y boundaries; in each row compute the
	// complement of covered x-intervals, merging vertically-contiguous
	// identical rows into taller slabs.
	ys := sc.ys[:0]
	ys = append(ys, window.YL, window.YH)
	for _, h := range clipped {
		ys = append(ys, h.YL, h.YH)
	}
	slices.Sort(ys)
	ys = dedup64(ys)
	sc.ys = ys

	open := sc.open[:0]
	prevFree := sc.prev[:0]
	var out []Rect
	flush := func(y int64, free []covIval) {
		if sameIvals(prevFree, free) {
			return
		}
		for _, s := range open {
			if y > s.yl {
				out = append(out, Rect{s.xl, s.yl, s.xh, y})
			}
		}
		open = open[:0]
		for _, iv := range free {
			open = append(open, openSlab{iv.xl, iv.xh, y})
		}
		prevFree = append(prevFree[:0], free...)
	}
	for i := 0; i+1 < len(ys); i++ {
		yl, yh := ys[i], ys[i+1]
		if yh <= window.YL || yl >= window.YH {
			continue
		}
		// x-intervals covered by holes in this row.
		xs := sc.xs[:0]
		for _, h := range clipped {
			if h.YL <= yl && h.YH >= yh {
				xs = append(xs, covIval{h.XL, h.XH, 1})
			}
		}
		slices.SortFunc(xs, func(a, b covIval) int {
			switch {
			case a.xl < b.xl:
				return -1
			case a.xl > b.xl:
				return 1
			}
			return 0
		})
		sc.xs = xs
		// Complement within window x-range.
		free := sc.free[:0]
		cur := window.XL
		for _, iv := range xs {
			if iv.xl > cur {
				free = append(free, covIval{cur, iv.xl, 1})
			}
			if iv.xh > cur {
				cur = iv.xh
			}
		}
		if cur < window.XH {
			free = append(free, covIval{cur, window.XH, 1})
		}
		sc.free = free
		flush(yl, free)
	}
	flush(window.YH, nil)
	sc.open, sc.prev = open, prevFree
	diffPool.Put(sc)
	return out
}

func dedup64(xs []int64) []int64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Transpose swaps the axes of r.
func (r Rect) Transpose() Rect { return Rect{r.YL, r.XL, r.YH, r.XH} }

// DifferenceVert is Difference with the output decomposed into vertical
// (maximal-height) slabs instead of horizontal ones. For free-space
// extraction around vertical wires this yields far fewer, fatter pieces.
func DifferenceVert(window Rect, holes []Rect) []Rect {
	sc := diffPool.Get().(*diffScratch)
	ht := sc.holesT[:0]
	for _, h := range holes {
		ht = append(ht, h.Transpose())
	}
	sc.holesT = ht
	out := Difference(window.Transpose(), ht)
	diffPool.Put(sc)
	// out is freshly allocated by Difference, so transpose in place.
	for i := range out {
		out[i] = out[i].Transpose()
	}
	return out
}

// DifferenceOriented picks the slab orientation: vertical=true yields
// vertical slabs.
func DifferenceOriented(window Rect, holes []Rect, vertical bool) []Rect {
	if vertical {
		return DifferenceVert(window, holes)
	}
	return Difference(window, holes)
}

// TotalArea sums rect areas without overlap removal.
func TotalArea(rects []Rect) int64 {
	var t int64
	for _, r := range rects {
		t += r.Area()
	}
	return t
}
