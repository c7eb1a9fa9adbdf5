package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// openSlab tracks a rectangle currently being extended vertically while
// sweeping.
type openSlab struct {
	xl, xh, yl int64
}

// differenceOracle is the row-rescan free-space kernel Difference
// replaced, kept as its reference: for every elementary y-row between
// hole boundaries it rescans the clipped holes, sorts the ones spanning
// the row, takes the complement, and merges vertically contiguous
// identical rows into taller slabs. vertical runs it on the transposed
// window and holes and transposes the slabs back.
func differenceOracle(window Rect, holes []Rect, vertical bool) []Rect {
	if vertical {
		ht := make([]Rect, len(holes))
		for i, h := range holes {
			ht[i] = h.Transpose()
		}
		out := differenceOracle(window.Transpose(), ht, false)
		for i := range out {
			out[i] = out[i].Transpose()
		}
		return out
	}
	if window.Empty() {
		return nil
	}
	var clipped []Rect
	for _, h := range holes {
		if c := h.Intersect(window); !c.Empty() {
			clipped = append(clipped, c)
		}
	}
	if len(clipped) == 0 {
		return []Rect{window}
	}
	ys := []int64{window.YL, window.YH}
	for _, h := range clipped {
		ys = append(ys, h.YL, h.YH)
	}
	slices.Sort(ys)
	ys = dedup64(ys)

	var open []openSlab
	var prevFree []covIval
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
		var xs []covIval
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
		var free []covIval
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
		flush(yl, free)
	}
	flush(window.YH, nil)
	return out
}

// checkDifference fails t unless Difference and the oracle return the
// same slabs in the same order for (window, holes) in both orientations,
// and the free slabs plus the clipped holes partition the window.
func checkDifference(t *testing.T, window Rect, holes []Rect) {
	t.Helper()
	var clipped []Rect
	for _, h := range holes {
		if c := h.Intersect(window); !c.Empty() {
			clipped = append(clipped, c)
		}
	}
	for _, vertical := range []bool{false, true} {
		got := Difference(nil, window, holes, vertical)
		want := differenceOracle(window, holes, vertical)
		if !slices.Equal(got, want) {
			t.Fatalf("Difference(%v, %v, vertical=%v)\n got  %v\n want %v", window, holes, vertical, got, want)
		}
		if !window.Empty() && TotalArea(got)+UnionArea(clipped) != window.Area() {
			t.Fatalf("Difference(%v, %v, vertical=%v): free %d + covered %d != window %d",
				window, holes, vertical, TotalArea(got), UnionArea(clipped), window.Area())
		}
	}
}

// randWindow returns a window with random origin and extent up to 64 and
// up to 12 holes scattered around (and partly outside) it, on a coarse
// lattice so that shared edges and identical rows are common.
func randWindow(rng *rand.Rand) (Rect, []Rect) {
	x0, y0 := rng.Int63n(41)-20, rng.Int63n(41)-20
	w := R(x0, y0, x0+1+rng.Int63n(64), y0+1+rng.Int63n(64))
	holes := make([]Rect, rng.Intn(13))
	for i := range holes {
		xl := w.XL - 8 + 4*rng.Int63n(w.W()/4+5)
		yl := w.YL - 8 + 4*rng.Int63n(w.H()/4+5)
		holes[i] = R(xl, yl, xl+rng.Int63n(40), yl+rng.Int63n(40))
	}
	return w, holes
}

// TestDifferenceMatchesOracle compares Difference with the row-rescan
// oracle, slab for slab, on 200,000 random windows per orientation.
func TestDifferenceMatchesOracle(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	rng := rand.New(rand.NewSource(22))
	for it := 0; it < n; it++ {
		w, holes := randWindow(rng)
		checkDifference(t, w, holes)
	}
	// Degenerate windows and holes.
	checkDifference(t, R(0, 0, 0, 10), []Rect{R(0, 0, 5, 5)})
	checkDifference(t, R(0, 0, 10, 10), []Rect{{XL: 5, YL: 5, XH: 5, YH: 9}})
	checkDifference(t, R(0, 0, 10, 10), []Rect{R(-5, -5, 20, 20)})
}

func FuzzDifference(f *testing.F) {
	f.Add(int64(0), int64(0), int64(10), int64(10), []byte{3, 3, 4, 4})
	f.Add(int64(-5), int64(2), int64(40), int64(9), []byte{0, 0, 10, 2, 5, 1, 3, 8, 20, 0, 2, 9})
	f.Fuzz(func(t *testing.T, xl, yl, w, h int64, data []byte) {
		// Keep the window's coordinates well inside int64 so that area
		// sums cannot overflow; the holes are bytes relative to it.
		xl, yl = xl%1_000_000, yl%1_000_000
		w, h = w%256, h%256
		window := R(xl, yl, xl+w, yl+h)
		var holes []Rect
		for i := 0; i+3 < len(data) && len(holes) < 64; i += 4 {
			hx, hy := xl-8+int64(data[i]), yl-8+int64(data[i+1])
			holes = append(holes, R(hx, hy, hx+int64(data[i+2]), hy+int64(data[i+3])))
		}
		checkDifference(t, window, holes)
	})
}
