package grid

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dummyfill/internal/geom"
)

func TestNewGrid(t *testing.T) {
	g, err := New(geom.R(0, 0, 100, 50), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != 10 || g.NY != 5 {
		t.Fatalf("grid dims %dx%d, want 10x5", g.NX, g.NY)
	}
	if g.NumWindows() != 50 {
		t.Fatalf("NumWindows = %d", g.NumWindows())
	}
}

func TestNewGridPartialWindows(t *testing.T) {
	g, err := New(geom.R(0, 0, 105, 50), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != 11 {
		t.Fatalf("NX = %d, want 11 (partial last column)", g.NX)
	}
	last := g.Window(10, 0)
	if last.W() != 5 {
		t.Fatalf("partial window width = %d, want 5", last.W())
	}
}

func TestNewGridErrors(t *testing.T) {
	if _, err := New(geom.Rect{}, 10); err == nil {
		t.Fatal("empty die must error")
	}
	if _, err := New(geom.R(0, 0, 10, 10), 0); err == nil {
		t.Fatal("zero window must error")
	}
}

// TestNewGridWindowCap checks the window cap: a grid of exactly
// MaxWindows builds, one just over it (on either axis, or from extents
// whose window count overflows int64 arithmetic) fails with ErrLimit,
// naming the window cap.
func TestNewGridWindowCap(t *testing.T) {
	g, err := New(geom.R(0, 0, 2048, 2048), 1)
	if err != nil || g.NumWindows() != MaxWindows {
		t.Fatalf("2048×2048 windows: grid %+v, err %v; want %d windows", g, err, MaxWindows)
	}
	over := map[string]struct {
		die geom.Rect
		w   int64
	}{
		"just over":          {geom.R(0, 0, 2049, 2048), 1},
		"one axis":           {geom.R(0, 0, MaxWindows+1, 1), 1},
		"overflowing ceil":   {geom.R(0, 0, math.MaxInt64, 1), 1 << 40},
		"full int64 extents": {geom.R(math.MinInt64, math.MinInt64, math.MaxInt64, math.MaxInt64), 1},
	}
	for name, tc := range over {
		if _, err := New(tc.die, tc.w); !errors.Is(err, ErrLimit) || !strings.Contains(err.Error(), "too many windows") {
			t.Errorf("%s: err = %v, want ErrLimit naming too many windows", name, err)
		}
	}
}

// TestCheckLayers checks the windows × layers cap at its boundary: a
// grid at MaxWindows takes one layer and not two, a four-window grid
// takes MaxWindowLayers/4 layers and not one more, and both rejections
// wrap ErrLimit and name the window-layer cap.
func TestCheckLayers(t *testing.T) {
	big, err := New(geom.R(0, 0, 2048, 2048), 1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := New(geom.R(0, 0, 10, 10), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		g  *Grid
		nl int
	}{{big, 1}, {small, MaxWindowLayers / 4}} {
		if err := tc.g.CheckLayers(tc.nl); err != nil {
			t.Errorf("%d windows × %d layers: %v", tc.g.NumWindows(), tc.nl, err)
		}
		err := tc.g.CheckLayers(tc.nl + 1)
		if !errors.Is(err, ErrLimit) || !strings.Contains(err.Error(), "too many window-layer pairs") {
			t.Errorf("%d windows × %d layers: err = %v, want ErrLimit naming too many window-layer pairs", tc.g.NumWindows(), tc.nl+1, err)
		}
	}
}

// TestNewGridCoordBound checks the coordinate bound: a die with corners
// at ±MaxCoord and a window of MaxWindow build, one unit beyond either
// fails with ErrLimit, naming the coordinate bound.
func TestNewGridCoordBound(t *testing.T) {
	if _, err := New(geom.R(-MaxCoord, -MaxCoord, MaxCoord, MaxCoord), MaxWindow); err != nil {
		t.Fatalf("die at ±MaxCoord, window MaxWindow: %v", err)
	}
	over := map[string]struct {
		die geom.Rect
		w   int64
	}{
		"left":                   {geom.R(-MaxCoord-1, 0, 10, 10), MaxWindow},
		"bottom":                 {geom.R(0, -MaxCoord-1, 10, 10), MaxWindow},
		"right":                  {geom.R(0, 0, MaxCoord+1, 10), MaxWindow},
		"top":                    {geom.R(0, 0, 10, MaxCoord+1), MaxWindow},
		"window":                 {geom.R(0, 0, 10, 10), MaxWindow + 1},
		"int64 die, few windows": {geom.R(-9e18, -9e18, 9e18, 9e18), 9e18},
	}
	for name, tc := range over {
		if _, err := New(tc.die, tc.w); !errors.Is(err, ErrLimit) || !strings.Contains(err.Error(), "coordinates out of range") {
			t.Errorf("%s: err = %v, want ErrLimit naming coordinates out of range", name, err)
		}
	}
}

func TestLocate(t *testing.T) {
	g, _ := New(geom.R(0, 0, 100, 100), 10)
	i, j := g.Locate(geom.Point{X: 55, Y: 23})
	if i != 5 || j != 2 {
		t.Fatalf("Locate = (%d,%d), want (5,2)", i, j)
	}
	i, j = g.Locate(geom.Point{X: -5, Y: 200}) // clamped
	if i != 0 || j != 9 {
		t.Fatalf("clamped Locate = (%d,%d), want (0,9)", i, j)
	}
}

func TestRangeOverlapping(t *testing.T) {
	g, _ := New(geom.R(0, 0, 100, 100), 10)
	var total int64
	count := 0
	g.RangeOverlapping(geom.R(5, 5, 25, 15), func(i, j int, clip geom.Rect) {
		total += clip.Area()
		count++
	})
	if total != 200 {
		t.Fatalf("clipped total area = %d, want 200", total)
	}
	if count != 6 { // windows (0..2)x(0..1)
		t.Fatalf("windows touched = %d, want 6", count)
	}
	// Out-of-die rect clips to die.
	total = 0
	g.RangeOverlapping(geom.R(95, 95, 200, 200), func(i, j int, clip geom.Rect) {
		total += clip.Area()
	})
	if total != 25 {
		t.Fatalf("die-clipped area = %d, want 25", total)
	}
}

func TestAreaAndDensityMap(t *testing.T) {
	g, _ := New(geom.R(0, 0, 40, 40), 10)
	rects := []geom.Rect{geom.R(0, 0, 10, 10), geom.R(10, 0, 15, 10)}
	am := AreaMap(g, rects)
	if am.At(0, 0) != 100 {
		t.Fatalf("window (0,0) area = %v, want 100", am.At(0, 0))
	}
	if am.At(1, 0) != 50 {
		t.Fatalf("window (1,0) area = %v, want 50", am.At(1, 0))
	}
	dm := DensityMap(am)
	if dm.At(0, 0) != 1.0 || dm.At(1, 0) != 0.5 {
		t.Fatalf("densities = %v, %v", dm.At(0, 0), dm.At(1, 0))
	}
	if dm.At(3, 3) != 0 {
		t.Fatal("untouched window must have zero density")
	}
}

func TestMapStats(t *testing.T) {
	g, _ := New(geom.R(0, 0, 20, 10), 10)
	m := NewMap(g)
	m.Set(0, 0, 0.25)
	m.Set(1, 0, 0.75)
	if got := m.Mean(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("mean = %v, want 0.5", got)
	}
	lo, hi := m.MinMax()
	if lo != 0.25 || hi != 0.75 {
		t.Fatalf("minmax = %v,%v", lo, hi)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone must deep-copy")
	}
	m.Add(0, 0, 0.25)
	if m.At(0, 0) != 0.5 {
		t.Fatalf("Add result %v", m.At(0, 0))
	}
}

func TestDensityMapPartialWindows(t *testing.T) {
	// Die 105 wide with 50-windows: last column windows are 5 wide and
	// densities must normalize by the true (clipped) area.
	g, err := New(geom.R(0, 0, 105, 50), 50)
	if err != nil {
		t.Fatal(err)
	}
	am := AreaMap(g, []geom.Rect{geom.R(100, 0, 105, 50)}) // fills the partial window
	dm := DensityMap(am)
	if got := dm.At(2, 0); got != 1.0 {
		t.Fatalf("partial window density = %v, want 1.0", got)
	}
}

func TestRangeOverlappingFullDie(t *testing.T) {
	g, _ := New(geom.R(0, 0, 100, 100), 10)
	count := 0
	var total int64
	g.RangeOverlapping(g.Die, func(i, j int, clip geom.Rect) {
		count++
		total += clip.Area()
	})
	if count != g.NumWindows() {
		t.Fatalf("full-die range touched %d windows, want %d", count, g.NumWindows())
	}
	if total != g.Die.Area() {
		t.Fatalf("clipped areas sum to %d, want %d", total, g.Die.Area())
	}
}

func TestRangeOverlappingEmptyRect(t *testing.T) {
	g, _ := New(geom.R(0, 0, 100, 100), 10)
	g.RangeOverlapping(geom.Rect{}, func(i, j int, clip geom.Rect) {
		t.Fatal("empty rect must not visit windows")
	})
}

// Locate returns the window indices containing point p (clamped to the
// grid).
func (g *Grid) Locate(p geom.Point) (i, j int) {
	i = int((p.X - g.Die.XL) / g.W)
	j = int((p.Y - g.Die.YL) / g.W)
	if i < 0 {
		i = 0
	}
	if i >= g.NX {
		i = g.NX - 1
	}
	if j < 0 {
		j = 0
	}
	if j >= g.NY {
		j = g.NY - 1
	}
	return
}
