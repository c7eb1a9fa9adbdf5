package geom

// AreaTable answers exact union-coverage area queries over a static set of
// (possibly overlapping) rectangles. Build runs one scanline sweep and
// stores the union as sorted y-bands of disjoint x-intervals with
// prefix-summed widths; vertically contiguous bands with identical
// interval sets are merged. OverlapArea then resolves a query in
// O(log n + bands overlapped) with exact integer arithmetic — no per-query
// sweep — which makes it the kernel for window-density accumulation and
// the per-cell overlap queries of candidate generation and sizing, where
// the same static shape set (wires, free regions) is queried thousands of
// times.
//
// Build is O(n log n) in the input size and the stored structure is O(n)
// — there is no raster, so cost never degenerates with coordinate-rich
// inputs. Query results are bit-identical to UnionArea over the input
// clipped to the query rectangle.
//
// The zero value is an empty table; Build may be called repeatedly and
// reuses all internal storage. An AreaTable is not safe for concurrent
// use.
type AreaTable struct {
	bands []atBand
	// Interval endpoints grouped by band, indexed [band.lo, band.hi);
	// within a band the intervals are sorted, disjoint and non-touching.
	ixl, ixh []int64
	// pre[k] is the total width of intervals [0, k) — band-local sums come
	// out as differences since a band's intervals are contiguous in k.
	pre   []int64
	total int64
	curr  []covIval // build scratch
}

// atBand is one maximal y-range with a fixed covered x-interval set.
// Bands are sorted by y0 and non-overlapping (gaps mean no coverage).
type atBand struct {
	y0, y1 int64
	lo, hi int32
}

// Build (re)initializes the table over rects. Empty rectangles are
// ignored.
func (t *AreaTable) Build(rects []Rect) {
	t.bands = t.bands[:0]
	t.ixl, t.ixh = t.ixl[:0], t.ixh[:0]
	t.pre = t.pre[:0]
	t.total = 0
	sc := sweepPool.Get().(*sweepScratch)
	evs := sc.buildEvents(rects)
	if len(evs) == 0 {
		sweepPool.Put(sc)
		return
	}
	cov := &sc.cov
	cov.reset()
	curr := t.curr
	prevY := evs[0].y
	for i := 0; i < len(evs); {
		y := evs[i].y
		if y > prevY && len(cov.ivals) > 0 {
			curr = cov.coveredInto(curr)
			t.addBand(prevY, y, curr)
		}
		for i < len(evs) && evs[i].y == y {
			cov.update(evs[i].xl, evs[i].xh, evs[i].delta)
			i++
		}
		prevY = y
	}
	t.curr = curr
	sweepPool.Put(sc)
}

// addBand appends the band [y0,y1) × ivs, extending the previous band
// instead when it is vertically contiguous with the same interval set.
func (t *AreaTable) addBand(y0, y1 int64, ivs []covIval) {
	if n := len(t.bands); n > 0 {
		b := &t.bands[n-1]
		if b.y1 == y0 && t.sameAsBand(*b, ivs) {
			t.total += (t.pre[b.hi] - t.pre[b.lo]) * (y1 - y0)
			b.y1 = y1
			return
		}
	}
	if len(t.pre) == 0 {
		t.pre = append(t.pre, 0)
	}
	lo := Idx32(len(t.ixl))
	run := t.pre[len(t.pre)-1]
	for _, iv := range ivs {
		t.ixl = append(t.ixl, iv.xl)
		t.ixh = append(t.ixh, iv.xh)
		run += iv.xh - iv.xl
		t.pre = append(t.pre, run)
	}
	hi := Idx32(len(t.ixl))
	t.bands = append(t.bands, atBand{y0, y1, lo, hi})
	t.total += (t.pre[hi] - t.pre[lo]) * (y1 - y0)
}

// sameAsBand reports whether ivs equals band b's stored interval set.
func (t *AreaTable) sameAsBand(b atBand, ivs []covIval) bool {
	if int(b.hi-b.lo) != len(ivs) {
		return false
	}
	for i, iv := range ivs {
		k := int(b.lo) + i
		if t.ixl[k] != iv.xl || t.ixh[k] != iv.xh {
			return false
		}
	}
	return true
}

// Empty reports whether the table covers no area at all.
func (t *AreaTable) Empty() bool { return len(t.bands) == 0 }

// TotalArea returns the exact union area of the input set.
func (t *AreaTable) TotalArea() int64 { return t.total }

// OverlapArea returns the exact area of q covered by the union of the
// input set — bit-identical to UnionArea over the inputs clipped to q.
func (t *AreaTable) OverlapArea(q Rect) int64 {
	if q.Empty() || len(t.bands) == 0 {
		return 0
	}
	bands := t.bands
	var area int64
	for bi := t.firstBandEnding(q.YL); bi < len(bands) && bands[bi].y0 < q.YH; bi++ {
		b := bands[bi]
		dy := min64(b.y1, q.YH) - max64(b.y0, q.YL)
		if dy <= 0 {
			continue
		}
		if w := t.coveredWidth(b, q.XL, q.XH); w > 0 {
			area += w * dy
		}
	}
	return area
}

// coveredWidth returns the covered length of [xl,xh) within band b: the
// prefix-sum of the fully spanned intervals minus the clipped ends.
func (t *AreaTable) coveredWidth(b atBand, xl, xh int64) int64 {
	i, j := t.span(b, xl, xh)
	if i >= j {
		return 0
	}
	w := t.pre[j] - t.pre[i]
	if t.ixl[i] < xl {
		w -= xl - t.ixl[i]
	}
	if t.ixh[j-1] > xh {
		w -= t.ixh[j-1] - xh
	}
	return w
}

// span returns the index range [i,j) of band b's intervals that meet
// [xl,xh): i is the first ending after xl, j the first starting at or
// after xh.
func (t *AreaTable) span(b atBand, xl, xh int64) (i, j int) {
	ixl, ixh := t.ixl, t.ixh
	lo, hi := int(b.lo), int(b.hi)
	for lo < hi {
		mid := (lo + hi) / 2
		if ixh[mid] <= xl {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i = lo
	lo, hi = i, int(b.hi)
	for lo < hi {
		mid := (lo + hi) / 2
		if ixl[mid] < xh {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return i, lo
}

// firstBandEnding returns the index of the first band ending after y.
func (t *AreaTable) firstBandEnding(y int64) int {
	bands := t.bands
	lo, hi := 0, len(bands)
	for lo < hi {
		mid := (lo + hi) / 2
		if bands[mid].y1 <= y {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FreeScratch holds AppendFree's reusable interval buffers. The zero
// value is ready to use; a FreeScratch is not safe for concurrent use.
type FreeScratch struct {
	cur, prev []covIval
}

// AppendFree appends to dst the part of w that neither a nor b covers, as
// the disjoint maximal horizontal slabs that Difference(dst, w, A++B,
// false) returns, where A and B are the rects the tables were built over.
// It reads the tables in place, so a caller that asks for many windows
// over the same two sets sweeps each set once, in Build, rather than once
// per window.
//
// The walk visits the bands of both tables that overlap w in y. At every
// y-break of either table it forms the union of the two bands'
// x-intervals clipped to w, merging intervals that overlap or touch, and
// runs of rows with equal clipped sets are merged. Each run yields the
// complement of its set as slabs, and a run with no cover yields one
// full-width slab. Build stores each table's union as maximal bands of
// maximal intervals, so these runs are exactly the bands a table built
// over A++B clipped to w would hold, and the output is Difference's slab
// for slab, in the same order: by YH, then by XL.
func AppendFree(dst []Rect, w Rect, a, b *AreaTable, sc *FreeScratch) []Rect {
	if w.Empty() {
		return dst
	}
	ia, ib := a.firstBandEnding(w.YL), b.firstBandEnding(w.YL)
	prev, cur := sc.prev[:0], sc.cur[:0]
	runY := w.YL // bottom of the run whose clipped set is prev
	for y := w.YL; y < w.YH; {
		next := w.YH
		var ai, aj, bi, bj int
		if ia < len(a.bands) {
			if band := a.bands[ia]; band.y0 <= y {
				ai, aj = a.span(band, w.XL, w.XH)
				next = min64(next, band.y1)
			} else {
				next = min64(next, band.y0)
			}
		}
		if ib < len(b.bands) {
			if band := b.bands[ib]; band.y0 <= y {
				bi, bj = b.span(band, w.XL, w.XH)
				next = min64(next, band.y1)
			} else {
				next = min64(next, band.y0)
			}
		}
		cur = cur[:0]
		for ai < aj || bi < bj {
			var xl, xh int64
			if bi >= bj || (ai < aj && a.ixl[ai] <= b.ixl[bi]) {
				xl, xh = a.ixl[ai], a.ixh[ai]
				ai++
			} else {
				xl, xh = b.ixl[bi], b.ixh[bi]
				bi++
			}
			xl, xh = max64(xl, w.XL), min64(xh, w.XH)
			if n := len(cur); n > 0 && cur[n-1].xh >= xl {
				cur[n-1].xh = max64(cur[n-1].xh, xh)
				continue
			}
			cur = append(cur, covIval{xl, xh, 1})
		}
		if y == w.YL || !sameIvals(prev, cur) {
			if y > w.YL {
				dst = appendComplement(dst, w.XL, w.XH, runY, y, prev)
			}
			runY = y
			prev, cur = cur, prev
		}
		y = next
		if ia < len(a.bands) && a.bands[ia].y1 <= y {
			ia++
		}
		if ib < len(b.bands) && b.bands[ib].y1 <= y {
			ib++
		}
	}
	dst = appendComplement(dst, w.XL, w.XH, runY, w.YH, prev)
	sc.prev, sc.cur = prev, cur
	return dst
}

// appendComplement appends the slabs of [xl,xh)×[y0,y1) that the sorted,
// disjoint, non-touching intervals ivs leave uncovered.
func appendComplement(dst []Rect, xl, xh, y0, y1 int64, ivs []covIval) []Rect {
	x := xl
	for _, iv := range ivs {
		if iv.xl > x {
			dst = append(dst, Rect{x, y0, iv.xl, y1})
		}
		x = iv.xh
	}
	if x < xh {
		dst = append(dst, Rect{x, y0, xh, y1})
	}
	return dst
}
