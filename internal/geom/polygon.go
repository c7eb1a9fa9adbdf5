package geom

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Polygon is a simple rectilinear polygon given as an ordered vertex ring
// (first vertex not repeated at the end). Consecutive vertices must differ
// in exactly one coordinate (axis-parallel edges).
type Polygon struct {
	Pts []Point
}

// ErrNotRectilinear is returned when a polygon has a non-axis-parallel or
// degenerate edge.
var ErrNotRectilinear = errors.New("geom: polygon is not rectilinear")

// Validate checks that the polygon is closed, rectilinear and has at least
// 4 vertices.
func (p Polygon) Validate() error {
	n := len(p.Pts)
	if n < 4 {
		return fmt.Errorf("geom: polygon needs >= 4 vertices, got %d", n)
	}
	if n%2 != 0 {
		return fmt.Errorf("geom: rectilinear polygon needs an even vertex count, got %d", n)
	}
	for i := 0; i < n; i++ {
		a, b := p.Pts[i], p.Pts[(i+1)%n]
		dx, dy := b.X-a.X, b.Y-a.Y
		if (dx == 0) == (dy == 0) { // both zero (degenerate) or both nonzero (diagonal)
			return fmt.Errorf("%w: edge %v->%v", ErrNotRectilinear, a, b)
		}
	}
	return nil
}

// Bounds returns the bounding box of the polygon.
func (p Polygon) Bounds() Rect {
	if len(p.Pts) == 0 {
		return Rect{}
	}
	b := Rect{p.Pts[0].X, p.Pts[0].Y, p.Pts[0].X, p.Pts[0].Y}
	for _, pt := range p.Pts {
		b.XL = min64(b.XL, pt.X)
		b.YL = min64(b.YL, pt.Y)
		b.XH = max64(b.XH, pt.X)
		b.YH = max64(b.YH, pt.Y)
	}
	return b
}

// Area returns the polygon area via the shoelace formula (absolute value,
// so orientation does not matter).
func (p Polygon) Area() int64 {
	var s int64
	n := len(p.Pts)
	for i := 0; i < n; i++ {
		a, b := p.Pts[i], p.Pts[(i+1)%n]
		s += a.X*b.Y - b.X*a.Y
	}
	if s < 0 {
		s = -s
	}
	return s / 2
}

// ToRects converts the polygon into a set of disjoint rectangles covering
// exactly its interior (a horizontal-slab decomposition in the style of
// Gourley & Green's polygon-to-rectangle conversion). It returns an error
// for invalid polygons.
func (p Polygon) ToRects() ([]Rect, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Pts)
	// Collect vertical edges (x, ylow, yhigh).
	type vedge struct {
		x, yl, yh int64
	}
	var edges []vedge
	ys := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		a, b := p.Pts[i], p.Pts[(i+1)%n]
		ys = append(ys, a.Y)
		if a.X == b.X {
			yl, yh := a.Y, b.Y
			if yl > yh {
				yl, yh = yh, yl
			}
			edges = append(edges, vedge{a.X, yl, yh})
		}
	}
	slices.Sort(ys)
	ys = dedup64(ys)

	type openSlab struct {
		xl, xh, yl int64
	}
	var open []openSlab
	var out []Rect
	var prev []covIval
	flush := func(y int64, cur []covIval) {
		if sameIvals(prev, cur) {
			return
		}
		for _, s := range open {
			if y > s.yl {
				out = append(out, Rect{s.xl, s.yl, s.xh, y})
			}
		}
		open = open[:0]
		for _, iv := range cur {
			open = append(open, openSlab{iv.xl, iv.xh, y})
		}
		prev = append(prev[:0], cur...)
	}
	for i := 0; i+1 < len(ys); i++ {
		yl, yh := ys[i], ys[i+1]
		// Vertical edges spanning this band, sorted by x; even-odd pairing
		// gives the interior intervals.
		var xs []int64
		for _, e := range edges {
			if e.yl <= yl && e.yh >= yh {
				xs = append(xs, e.x)
			}
		}
		sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
		if len(xs)%2 != 0 {
			return nil, fmt.Errorf("geom: polygon scan parity error in band y=[%d,%d)", yl, yh)
		}
		var cur []covIval
		for j := 0; j+1 < len(xs); j += 2 {
			if xs[j] < xs[j+1] {
				cur = append(cur, covIval{xs[j], xs[j+1], 1})
			}
		}
		flush(yl, cur)
	}
	flush(ys[len(ys)-1], nil)

	// Sanity: decomposition must preserve area.
	var sum int64
	for _, r := range out {
		sum += r.Area()
	}
	if a := p.Area(); sum != a {
		return nil, fmt.Errorf("geom: polygon decomposition area mismatch: rects %d vs polygon %d", sum, a)
	}
	return out, nil
}
