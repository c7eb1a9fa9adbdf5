package layout_test

import (
	"slices"
	"testing"

	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
	"dummyfill/internal/synth"
)

// bruteUnionArea is the area of the union of rects by x-slabs: for each
// pair of adjacent distinct x coordinates, the merged y-intervals of the
// rects spanning that slab.
func bruteUnionArea(rects []geom.Rect) int64 {
	var xs []int64
	for _, r := range rects {
		xs = append(xs, r.XL, r.XH)
	}
	slices.Sort(xs)
	xs = slices.Compact(xs)
	var area int64
	for s := 0; s+1 < len(xs); s++ {
		var ys [][2]int64
		for _, r := range rects {
			if r.XL <= xs[s] && r.XH >= xs[s+1] {
				ys = append(ys, [2]int64{r.YL, r.YH})
			}
		}
		slices.SortFunc(ys, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		var covered, lo, hi int64
		for i, y := range ys {
			switch {
			case i == 0:
				lo, hi = y[0], y[1]
			case y[0] > hi:
				covered += hi - lo
				lo, hi = y[0], y[1]
			case y[1] > hi:
				hi = y[1]
			}
		}
		if len(ys) > 0 {
			covered += hi - lo
		}
		area += covered * (xs[s+1] - xs[s])
	}
	return area
}

// checkWireDensityMap fails t unless every layer's WireDensityMap equals
// the brute-force union of all its wires clipped to each window, divided
// by the window's area.
func checkWireDensityMap(t *testing.T, lay *layout.Layout) {
	t.Helper()
	g, err := lay.Grid()
	if err != nil {
		t.Fatal(err)
	}
	for li, layer := range lay.Layers {
		m := lay.WireDensityMap(g, li)
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				win := g.Window(i, j)
				var clips []geom.Rect
				for _, w := range layer.Wires {
					if c := w.Intersect(win); !c.Empty() {
						clips = append(clips, c)
					}
				}
				want := float64(bruteUnionArea(clips)) / float64(win.Area())
				if got := m.At(i, j); got != want {
					t.Fatalf("layer %d window (%d,%d): density %v, brute force %v", li, i, j, got, want)
				}
			}
		}
	}
}

// TestWireDensityMapMatchesBruteForce checks WireDensityMap on design s
// and on overlapping wires that cross window edges.
func TestWireDensityMapMatchesBruteForce(t *testing.T) {
	s, err := synth.Generate(synth.DesignS())
	if err != nil {
		t.Fatal(err)
	}
	checkWireDensityMap(t, s)

	overlap := &layout.Layout{
		Name:   "overlap",
		Die:    geom.R(0, 0, 105, 95),
		Window: 20,
		Rules:  layout.Rules{MinWidth: 2, MinSpace: 2, MinArea: 4, MaxFillDim: 50},
		Layers: []*layout.Layer{{Wires: []geom.Rect{
			geom.R(5, 5, 45, 15),
			geom.R(10, 0, 20, 95),  // crosses every window row
			geom.R(10, 0, 20, 95),  // an exact duplicate
			geom.R(15, 10, 60, 30), // overlaps both above
			geom.R(0, 0, 105, 95),  // the whole die
			geom.R(99, 90, 105, 95),
		}}, {Wires: []geom.Rect{
			geom.R(38, 38, 42, 42), // a via straddling a window corner
			geom.R(30, 39, 50, 41),
			geom.R(39, 30, 41, 50),
			geom.R(100, 0, 105, 95), // the partial column
		}}},
	}
	checkWireDensityMap(t, overlap)
}
