package grid

import (
	"math/rand"
	"slices"
	"testing"

	"dummyfill/internal/geom"
)

// binOracle lists, per window, the indices RangeOverlapping visits for
// each rect expanded by pad, in input order.
func binOracle(g *Grid, rects []geom.Rect, pad int64) [][]int32 {
	want := make([][]int32, g.NumWindows())
	for si, r := range rects {
		g.RangeOverlapping(r.Expand(pad), func(i, j int, _ geom.Rect) {
			k := j*g.NX + i
			want[k] = append(want[k], int32(si))
		})
	}
	return want
}

// checkBin fails t unless g.Bin(rects, pad) matches binOracle window for
// window, with no spare capacity on any list, and stores exactly
// g.Incidences(rects, pad) indices.
func checkBin(t *testing.T, g *Grid, rects []geom.Rect, pad int64) {
	t.Helper()
	b := g.Bin(rects, pad)
	if n := g.Incidences(rects, pad); n != int64(len(b.idx)) {
		t.Fatalf("pad %d: Incidences = %d, Bin stores %d", pad, n, len(b.idx))
	}
	want := binOracle(g, rects, pad)
	for k := range want {
		got := b.Window(k)
		if !slices.Equal(got, want[k]) {
			t.Fatalf("pad %d window %d: Bin = %v, RangeOverlapping visits %v", pad, k, got, want[k])
		}
		if cap(got) != len(got) {
			t.Fatalf("pad %d window %d: list has cap %d > len %d", pad, k, cap(got), len(got))
		}
	}
}

// edgeRects are the cases window binning must get exactly right on a die
// of 0..105 × 0..95 with window 10 (partial last column and row).
func edgeRects() []geom.Rect {
	return []geom.Rect{
		geom.R(5, 5, 25, 15),       // spans windows
		geom.R(10, 10, 20, 20),     // exactly one window, touching its edges
		geom.R(20, 0, 30, 10),      // abuts windows 1 and 3 on x
		geom.R(-50, -50, 5, 5),     // partly off the die
		geom.R(200, 200, 300, 300), // wholly off the die
		geom.R(-10, 40, 0, 50),     // touching the die's left edge from outside
		geom.Rect{},                // empty
		geom.R(30, 30, 30, 40),     // zero width
		geom.R(0, 0, 105, 95),      // the whole die
		geom.R(-1000, -1000, 1000, 1000),
		geom.R(100, 90, 105, 95), // the partial corner window
		geom.R(104, 0, 110, 95),  // the partial column, spilling off
		geom.R(99, 89, 101, 91),  // straddling the last full window's corner
		geom.R(5, 5, 25, 15),     // a duplicate
		geom.R(50, 50, 51, 51),   // one unit
	}
}

// TestBinMatchesRangeOverlapping checks that Bin groups every rect under
// exactly the windows RangeOverlapping visits for it, in input order, on
// edge cases and random rects, with pad 0 and pad > 0.
func TestBinMatchesRangeOverlapping(t *testing.T) {
	g, err := New(geom.R(0, 0, 105, 95), 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rects := edgeRects()
	for range 500 {
		x, y := rng.Int63n(160)-30, rng.Int63n(150)-30
		rects = append(rects, geom.R(x, y, x+rng.Int63n(60), y+rng.Int63n(60)))
	}
	for _, pad := range []int64{0, 1, 3, 10, 25} {
		checkBin(t, g, rects, pad)
	}
	checkBin(t, g, nil, 2)

	// An offset die, where window arithmetic is relative to its corner.
	off, err := New(geom.R(-37, 11, 63, 88), 7)
	if err != nil {
		t.Fatal(err)
	}
	checkBin(t, off, rects, 0)
	checkBin(t, off, rects, 4)
}

// FuzzBin checks Bin against RangeOverlapping on fuzzed grids and rects.
func FuzzBin(f *testing.F) {
	f.Add(int64(0), int64(0), int64(105), int64(95), int64(10), int64(2), []byte{5, 5, 20, 10, 0, 0, 200, 200})
	f.Add(int64(-7), int64(3), int64(9), int64(40), int64(3), int64(0), []byte{0, 0, 0, 0, 255, 1, 1, 255})
	f.Fuzz(func(t *testing.T, x0, y0, w, h, win, pad int64, data []byte) {
		// Keep the grid small: a few hundred windows at most.
		x0, y0 = x0%1000, y0%1000
		w, h, win = 1+mod(w, 200), 1+mod(h, 200), 1+mod(win, 50)
		if (w+win-1)/win*((h+win-1)/win) > 400 {
			return
		}
		g, err := New(geom.R(x0, y0, x0+w, y0+h), win)
		if err != nil {
			t.Fatal(err)
		}
		var rects []geom.Rect
		for ; len(data) >= 4; data = data[4:] {
			// Byte coordinates centred on the die reach past every edge.
			xl, yl := x0+int64(data[0])-28, y0+int64(data[1])-28
			rects = append(rects, geom.R(xl, yl, xl+int64(data[2])-8, yl+int64(data[3])-8))
		}
		checkBin(t, g, rects, mod(pad, 30))
	})
}

// mod returns v modulo m in [0, m).
func mod(v, m int64) int64 {
	if v %= m; v < 0 {
		v += m
	}
	return v
}
