package geom

import "sync"

// This file implements the one y-sweep over sets of (possibly
// overlapping) rectangles that every boolean in the package shares:
// UnionArea totals its coverage, AreaTable.Build records it as bands, and
// Difference emits the complement of those bands within a window
// (free-space extraction).
//
// The sweep runs in the innermost loops of ingest, candidate generation
// and density accounting, so it is written for zero steady-state
// allocation: event lists, interval buffers and area tables live in
// sync.Pool-backed scratch arenas, events are sorted without a comparator,
// and the x-coverage structure edits its interval list in place.

// sweepEvent is a horizontal-edge event of the y-sweep.
type sweepEvent struct {
	y      int64
	xl, xh int64
	delta  int // +1 open, -1 close
}

// sweepScratch bundles the reusable buffers of one union sweep. Instances
// ping-pong through sweepPool so concurrent sweeps never share state.
type sweepScratch struct {
	evs, tmp []sweepEvent // tmp is the radix sort's second buffer
	cov      coverage
}

var sweepPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// buildEvents fills sc.evs with the open/close events of rects, sorted by
// y, and returns the slice (empty if every rect is empty). Events with
// equal y may come in any order: a sweep applies all of them before it
// reads the coverage again, and the coverage they leave does not depend
// on their order.
func (sc *sweepScratch) buildEvents(rects []Rect) []sweepEvent {
	evs := sc.evs[:0]
	var lo, hi int64
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		if len(evs) == 0 {
			lo, hi = r.YL, r.YH
		}
		lo, hi = min(lo, r.YL), max(hi, r.YH)
		evs = append(evs,
			sweepEvent{r.YL, r.XL, r.XH, +1},
			sweepEvent{r.YH, r.XL, r.XH, -1})
	}
	if len(evs) <= 32 {
		// Insertion sort: many of Difference's per-window sweeps have a
		// few dozen events at most, where it beats the radix sort's
		// counting passes.
		for i := 1; i < len(evs); i++ {
			for j := i; j > 0 && evs[j].y < evs[j-1].y; j-- {
				evs[j], evs[j-1] = evs[j-1], evs[j]
			}
		}
	} else {
		evs, sc.tmp = radixSortY(evs, sc.tmp, lo, hi)
	}
	sc.evs = evs
	return evs
}

// radixSortY sorts evs, whose y lie in [lo, hi], by y with a stable LSD
// byte radix over the key uint64(y) − uint64(lo), which is exact for any
// int64 coordinates. A byte that every key shares costs one counting pass
// and no scatter, and the bytes above the largest key cost nothing, so
// window-local sweeps sort in two or three passes. tmp is the second
// buffer. It returns the sorted events, in evs or in tmp, and the other
// buffer, grown to len(evs).
func radixSortY(evs, tmp []sweepEvent, lo, hi int64) (sorted, spare []sweepEvent) {
	span := uint64(hi) - uint64(lo)
	if cap(tmp) < len(evs) {
		tmp = make([]sweepEvent, len(evs))
	}
	tmp = tmp[:len(evs)]
	src, dst := evs, tmp
	base := uint64(lo)
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		var count [256]int
		for _, e := range src {
			count[byte((uint64(e.y)-base)>>shift)]++
		}
		if count[byte((uint64(src[0].y)-base)>>shift)] == len(src) {
			continue
		}
		pos := 0
		for b, c := range count {
			count[b] = pos
			pos += c
		}
		for _, e := range src {
			b := byte((uint64(e.y) - base) >> shift)
			dst[count[b]] = e
			count[b]++
		}
		src, dst = dst, src
	}
	return src, dst
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
			area += cov.length * (y - prevY)
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

// coverage maintains multiset interval coverage on the x axis as the
// canonical form of its count function: a sorted list of disjoint
// intervals with positive counts in which touching neighbours have
// different counts. update edits the list in place. An update in a gap,
// on one whole interval or inside one interval writes its few pieces
// directly; any other rebuilds only the intervals that meet or touch the
// update range into a small buffer, merging equal-count neighbours. Then
// only the tail shifts, by the change in length. So a sweep performs no
// sorting and no allocation once the buffers have grown to the
// working-set size, and the list stays as short as the count function
// allows: the sweep copies O(intervals touched + tail) per event instead
// of the whole list.
type coverage struct {
	ivals []covIval
	buf   []covIval
	// length is the covered length (count > 0) of ivals.
	length int64
	// reshaped is set when an update changes the covered set, that is
	// when a count leaves or reaches zero; the sweep clears it.
	reshaped bool
}

type covIval struct {
	xl, xh int64
	n      int
}

func (c *coverage) reset() {
	c.ivals = c.ivals[:0]
	c.length = 0
	c.reshaped = true
}

// update adds delta to the coverage count of [xl,xh). Intervals whose
// count reaches zero are dropped; callers only ever close ranges they
// previously opened, so counts never go negative, and a gap inside the
// range gains an interval only for delta > 0.
func (c *coverage) update(xl, xh int64, delta int) {
	if xl >= xh {
		return
	}
	iv := c.ivals
	// lo is the first interval ending at or after xl: the ones before it
	// neither meet nor touch the range.
	lo, hi := 0, len(iv)
	for lo < hi {
		mid := (lo + hi) / 2
		if iv[mid].xh < xl {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(iv) || iv[lo].xl > xh {
		// The range lies in a gap and touches no interval.
		if delta > 0 {
			if lo == len(iv) {
				c.ivals = append(iv, covIval{xl, xh, delta})
			} else {
				c.ivals = splice(iv, lo, lo, covIval{xl, xh, delta})
			}
			c.length += xh - xl
			c.reshaped = true
		}
		return
	}
	if v := iv[lo]; v.xl == xl && v.xh == xh && v.n+delta <= 0 {
		// The range is one interval, and its count drops to zero: the
		// closing event of a rect that no other covers, the commonest
		// update in the small windows of ingest.
		c.ivals = append(iv[:lo], iv[lo+1:]...)
		c.length -= xh - xl
		c.reshaped = true
		return
	}
	if v := iv[lo]; v.xl <= xl && xh <= v.xh {
		// The range lies inside one interval, and the one before it ends
		// short of xl. Split it into the part left of the range, the
		// range with delta added (dropped at zero, or merged into the
		// interval touching it on the right when their counts match) and
		// the part right of the range.
		var ps [3]covIval
		p := 0
		if v.xl < xl {
			ps[p] = covIval{v.xl, xl, v.n}
			p++
		}
		switch n := v.n + delta; {
		case n <= 0:
			c.length -= xh - xl
			c.reshaped = true
		case xh == v.xh && lo+1 < len(iv) && iv[lo+1].xl == xh && iv[lo+1].n == n:
			iv[lo+1].xl = xl
		default:
			ps[p] = covIval{xl, xh, n}
			p++
		}
		if xh < v.xh {
			ps[p] = covIval{xh, v.xh, v.n}
			p++
		}
		c.ivals = splice(iv, lo, lo+1, ps[:p]...)
		return
	}
	// Rebuild the intervals that meet or touch [xl,xh), iv[lo:i) below,
	// into buf: the touching neighbours unchanged, the parts outside the range
	// with their counts, the parts inside with delta added (dropped at
	// zero) and, for delta > 0, the gaps inside the range.
	buf := c.buf[:0]
	i := lo
	if iv[i].xh == xl {
		buf = append(buf, iv[i])
		i++
	}
	cur := xl
	for ; i < len(iv) && iv[i].xl < xh; i++ {
		v := iv[i]
		if v.xl < xl {
			buf = appendMerged(buf, v.xl, xl, v.n)
		} else if v.xl > cur && delta > 0 {
			buf = appendMerged(buf, cur, v.xl, delta)
			c.length += v.xl - cur
			c.reshaped = true
		}
		a, b := max(v.xl, xl), min(v.xh, xh)
		if n := v.n + delta; n > 0 {
			buf = appendMerged(buf, a, b, n)
		} else {
			c.length -= b - a
			c.reshaped = true
		}
		cur = b
		if v.xh > xh {
			buf = appendMerged(buf, xh, v.xh, v.n)
		}
	}
	if cur < xh && delta > 0 {
		buf = appendMerged(buf, cur, xh, delta)
		c.length += xh - cur
		c.reshaped = true
	}
	if i < len(iv) && iv[i].xl == xh {
		buf = appendMerged(buf, iv[i].xl, iv[i].xh, iv[i].n)
		i++
	}
	c.ivals, c.buf = splice(iv, lo, i, buf...), buf
}

// splice replaces iv[i:j] with ps, shifting only the tail.
func splice(iv []covIval, i, j int, ps ...covIval) []covIval {
	if d := len(ps) - (j - i); d < 0 {
		iv = append(iv[:j+d], iv[j:]...)
	} else if d > 0 {
		iv = append(iv, ps[:d]...) // grow; the tail shift overwrites
		copy(iv[j+d:], iv[j:len(iv)-d])
	}
	copy(iv[i:], ps)
	return iv
}

// appendMerged appends [xl,xh) with count n to buf, extending the last
// interval instead when it touches it with the same count.
func appendMerged(buf []covIval, xl, xh int64, n int) []covIval {
	if k := len(buf); k > 0 && buf[k-1].xh == xl && buf[k-1].n == n {
		buf[k-1].xh = xh
		return buf
	}
	return append(buf, covIval{xl, xh, n})
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
		// h.Intersect(window), kept inline: most holes of a small window
		// miss it.
		c := Rect{max(h.XL, window.XL), max(h.YL, window.YL), min(h.XH, window.XH), min(h.YH, window.YH)}
		if c.XL < c.XH && c.YL < c.YH {
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
