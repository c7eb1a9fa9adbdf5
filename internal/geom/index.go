package geom

import "slices"

// Index is a uniform-grid spatial index over rectangles, used for
// overlap and spacing-neighbour queries over whole-die shape sets:
// Layout.Validate's fill-region contract, DRC, scoring and the baseline
// fillers. The fill engine reads coverage from AreaTables instead. The
// zero value is not usable; construct with NewIndex. An Index is not
// safe for concurrent use (queries mutate the epoch stamps and scratch
// buffer); give each worker its own.
type Index struct {
	bounds Rect
	cell   int64
	nx, ny int
	bins   [][]int32
	rects  []Rect
	// Epoch stamps deduplicate multi-cell rects during Query without
	// allocating per call.
	stamp []int32
	epoch int32
	// scratch backs OverlapArea's piece list across calls.
	scratch []Rect
}

// NewIndex builds an empty index over bounds with the given cell size. A
// cell size of 0 picks a default that targets a handful of rects per bin.
func NewIndex(bounds Rect, cell int64) *Index {
	if bounds.Empty() {
		bounds = R(0, 0, 1, 1)
	}
	if cell <= 0 {
		cell = max64((bounds.W()+bounds.H())/64, 1)
	}
	nx := max(int((bounds.W()+cell-1)/cell), 1)
	ny := max(int((bounds.H()+cell-1)/cell), 1)
	return &Index{bounds: bounds, cell: cell, nx: nx, ny: ny, bins: make([][]int32, nx*ny)}
}

// Reserve makes room for inserting every rect of sets: the rect and stamp
// storage grows once, and each bin gets one exact-size share of a single
// backing array, so the Inserts that follow allocate nothing.
func (ix *Index) Reserve(sets ...[]Rect) {
	n := 0
	room := make([]int, len(ix.bins))
	for b, bin := range ix.bins {
		room[b] = len(bin)
	}
	for _, rs := range sets {
		n += len(rs)
		for _, r := range rs {
			x0, y0, x1, y1 := ix.cellRange(r)
			for cy := y0; cy <= y1; cy++ {
				for cx := x0; cx <= x1; cx++ {
					room[cy*ix.nx+cx]++
				}
			}
		}
	}
	ix.rects = slices.Grow(ix.rects, n)
	ix.stamp = slices.Grow(ix.stamp, n)
	total := 0
	for _, c := range room {
		total += c
	}
	backing := make([]int32, total)
	for b, c := range room {
		ix.bins[b] = append(backing[:0:c], ix.bins[b]...)
		backing = backing[c:]
	}
}

// Insert adds r to the index and returns its id.
func (ix *Index) Insert(r Rect) int {
	id := Idx32(len(ix.rects))
	ix.rects = append(ix.rects, r)
	ix.stamp = append(ix.stamp, 0)
	x0, y0, x1, y1 := ix.cellRange(r)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			b := cy*ix.nx + cx
			ix.bins[b] = append(ix.bins[b], id)
		}
	}
	return int(id)
}

func (ix *Index) cellRange(r Rect) (x0, y0, x1, y1 int) {
	clampI := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	x0 = clampI(int((r.XL-ix.bounds.XL)/ix.cell), 0, ix.nx-1)
	y0 = clampI(int((r.YL-ix.bounds.YL)/ix.cell), 0, ix.ny-1)
	x1 = clampI(int((r.XH-1-ix.bounds.XL)/ix.cell), 0, ix.nx-1)
	y1 = clampI(int((r.YH-1-ix.bounds.YL)/ix.cell), 0, ix.ny-1)
	return
}

// Query calls fn with the id and rect of every indexed rectangle whose
// bounding box overlaps q (each at most once). Returning false from fn
// stops the query.
func (ix *Index) Query(q Rect, fn func(id int, r Rect) bool) {
	if q.Empty() || len(ix.rects) == 0 {
		return
	}
	x0, y0, x1, y1 := ix.cellRange(q)
	ix.epoch++
	if ix.epoch == 0 { // wrapped: reset stamps
		for i := range ix.stamp {
			ix.stamp[i] = 0
		}
		ix.epoch = 1
	}
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, id := range ix.bins[cy*ix.nx+cx] {
				if ix.stamp[id] == ix.epoch {
					continue
				}
				ix.stamp[id] = ix.epoch
				r := ix.rects[id]
				if r.Overlaps(q) {
					if !fn(int(id), r) {
						return
					}
				}
			}
		}
	}
}

// OverlapArea returns the total area of q covered by indexed rectangles,
// counting overlaps once.
func (ix *Index) OverlapArea(q Rect) int64 {
	pieces := ix.scratch[:0]
	ix.Query(q, func(_ int, r Rect) bool {
		pieces = append(pieces, r.Intersect(q))
		return true
	})
	ix.scratch = pieces
	return UnionArea(pieces)
}

// AnyWithin reports whether any indexed rectangle lies within spacing s of
// q (expansion-overlap test), excluding the rect with id == skip (pass -1
// to exclude none).
func (ix *Index) AnyWithin(q Rect, s int64, skip int) bool {
	ex := q.Expand(s)
	found := false
	ix.Query(ex, func(id int, r Rect) bool {
		if id == skip {
			return true
		}
		gx, gy := q.Gap(r)
		if gx < s && gy < s {
			found = true
			return false
		}
		return true
	})
	return found
}
