package geom

// Index is a static uniform-grid bucket index over a set of rectangles:
// bounds is cut into square cells, and each cell (bin) lists, in input
// order, the ids of the rects whose pad-expanded extent overlaps it. All
// bins share one id array, CSR style. It answers overlap and
// spacing-neighbour queries over whole-die shape sets
// (Layout.Validate's fill-region contract, DRC, scoring and the baseline
// fillers) and is the window binning of grid.Bin. Only the part of a rect
// inside bounds is indexed.
//
// An Index keeps no query state, so any number of goroutines may query
// one Index at once.
type Index struct {
	bounds Rect
	cell   int64
	pad    int64
	nx, ny int
	off    []int // bin k holds ids idx[off[k]:off[k+1]]
	idx    []int32
	rects  []Rect
}

// NewIndex indexes rects, each expanded by pad, over bounds with the
// given cell size. A cell size of 0 picks a default that targets a
// handful of rects per bin. A counting pass sizes every bin exactly; a
// second pass, over rects in reverse, fills each bin back to front. The
// index keeps rects itself, not a copy: the caller must not change it
// while the index is in use.
func NewIndex(bounds Rect, cell int64, rects []Rect, pad int64) *Index {
	if bounds.Empty() {
		bounds = R(0, 0, 1, 1)
	}
	if cell <= 0 {
		cell = max64((bounds.W()+bounds.H())/64, 1)
	}
	nx := max(int((bounds.W()+cell-1)/cell), 1)
	ny := max(int((bounds.H()+cell-1)/cell), 1)
	ix := &Index{bounds: bounds, cell: cell, pad: pad, nx: nx, ny: ny, rects: rects}
	off := make([]int, nx*ny+1)
	for _, r := range rects {
		if x0, y0, x1, y1, ok := ix.cellRange(r.Expand(pad)); ok {
			for cy := y0; cy <= y1; cy++ {
				for cx := x0; cx <= x1; cx++ {
					off[cy*nx+cx]++
				}
			}
		}
	}
	n := 0
	for k, c := range off {
		n += c
		off[k] = n // end of bin k until the fill pass
	}
	idx := make([]int32, n)
	for id := len(rects) - 1; id >= 0; id-- {
		if x0, y0, x1, y1, ok := ix.cellRange(rects[id].Expand(pad)); ok {
			for cy := y0; cy <= y1; cy++ {
				for cx := x0; cx <= x1; cx++ {
					k := cy*nx + cx
					off[k]--
					idx[off[k]] = Idx32(id)
				}
			}
		}
	}
	ix.off, ix.idx = off, idx
	return ix
}

// Buckets returns the bins as one CSR pair: bin k = cy*nx+cx holds the
// ids idx[off[k]:off[k+1]] in ascending order. The caller must not
// modify either slice.
func (ix *Index) Buckets() (off []int, idx []int32) { return ix.off, ix.idx }

// cellRange returns the inclusive cell ranges that the part of r inside
// bounds overlaps; ok is false when r misses bounds.
func (ix *Index) cellRange(r Rect) (x0, y0, x1, y1 int, ok bool) {
	r = r.Intersect(ix.bounds)
	if r.Empty() {
		return 0, 0, 0, 0, false
	}
	x0 = int((r.XL - ix.bounds.XL) / ix.cell)
	y0 = int((r.YL - ix.bounds.YL) / ix.cell)
	x1 = int((r.XH - 1 - ix.bounds.XL) / ix.cell)
	y1 = int((r.YH - 1 - ix.bounds.YL) / ix.cell)
	return x0, y0, x1, y1, true
}

// Query calls fn with the id and rect of every indexed rectangle that
// overlaps q inside bounds, each once, ordered by the first bin of q's
// range (row-major) that holds it, then by id. Returning false from fn
// stops the query. A rect is reported only in that first bin, which
// comparisons alone identify: its column is q's first or the one where
// the rect's padded left edge lies, and likewise for its row.
func (ix *Index) Query(q Rect, fn func(id int, r Rect) bool) { ix.QueryBefore(q, len(ix.rects), fn) }

// QueryBefore is Query restricted to the ids below n. Each bin lists its
// ids in ascending order, so the scan of a bin stops at the first id ≥ n:
// a caller that checks every rect against the ones before it pays only
// for those, as it would with an index grown rect by rect.
func (ix *Index) QueryBefore(q Rect, n int, fn func(id int, r Rect) bool) {
	q = q.Intersect(ix.bounds)
	x0, y0, x1, y1, ok := ix.cellRange(q)
	if !ok {
		return
	}
	for cy := y0; cy <= y1; cy++ {
		bottom := ix.bounds.YL + int64(cy)*ix.cell
		for cx := x0; cx <= x1; cx++ {
			left := ix.bounds.XL + int64(cx)*ix.cell
			k := cy*ix.nx + cx
			for _, id := range ix.idx[ix.off[k]:ix.off[k+1]] {
				if int(id) >= n {
					break
				}
				r := ix.rects[id]
				if (cx == x0 || r.XL-ix.pad >= left) && (cy == y0 || r.YL-ix.pad >= bottom) && r.Overlaps(q) {
					if !fn(int(id), r) {
						return
					}
				}
			}
		}
	}
}

// OverlapArea returns the area of q inside bounds that indexed rectangles
// cover, counting overlaps once. buf holds the clipped pieces; reusing
// it across calls makes the query allocation-free.
func (ix *Index) OverlapArea(q Rect, buf *[]Rect) int64 {
	q = q.Intersect(ix.bounds)
	pieces := (*buf)[:0]
	ix.Query(q, func(_ int, r Rect) bool {
		pieces = append(pieces, r.Intersect(q))
		return true
	})
	*buf = pieces
	return UnionArea(pieces)
}

// AnyWithin reports whether any indexed rectangle lies within spacing s of
// q (expansion-overlap test), excluding the rect with id == skip (pass -1
// to exclude none).
func (ix *Index) AnyWithin(q Rect, s int64, skip int) bool {
	found := false
	ix.Query(q.Expand(s), func(id int, r Rect) bool {
		gx, gy := q.Gap(r)
		found = id != skip && gx < s && gy < s
		return !found
	})
	return found
}
