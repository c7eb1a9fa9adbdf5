// Package geom provides the integer rectilinear geometry substrate used by
// the dummy-fill framework: points, rectangles, rectangle algebra, scanline
// boolean operations, free-space extraction, and rectilinear
// polygon-to-rectangle conversion.
//
// All coordinates are int64 database units (DBU). Rectangles are half-open
// in spirit but stored as [XL,XH)×[YL,YH) closed-open integer boxes; a
// rectangle is empty when XL >= XH or YL >= YH.
package geom

import "fmt"

// Point is a 2-D integer point in database units.
type Point struct {
	X, Y int64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned integer rectangle spanning [XL,XH)×[YL,YH).
type Rect struct {
	XL, YL, XH, YH int64
}

// R constructs a rectangle, normalizing swapped bounds.
func R(xl, yl, xh, yh int64) Rect {
	if xl > xh {
		xl, xh = xh, xl
	}
	if yl > yh {
		yl, yh = yh, yl
	}
	return Rect{xl, yl, xh, yh}
}

// Empty reports whether r has zero or negative extent in either axis.
func (r Rect) Empty() bool { return r.XL >= r.XH || r.YL >= r.YH }

// W returns the width of r (0 if degenerate).
func (r Rect) W() int64 {
	if r.XH <= r.XL {
		return 0
	}
	return r.XH - r.XL
}

// H returns the height of r (0 if degenerate).
func (r Rect) H() int64 {
	if r.YH <= r.YL {
		return 0
	}
	return r.YH - r.YL
}

// Area returns the area of r, 0 for empty rectangles.
func (r Rect) Area() int64 { return r.W() * r.H() }

// Contains reports whether p lies inside r (half-open).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.XL && p.X < r.XH && p.Y >= r.YL && p.Y < r.YH
}

// ContainsRect reports whether s lies entirely inside r. Empty s is
// contained in anything.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.XL >= r.XL && s.XH <= r.XH && s.YL >= r.YL && s.YH <= r.YH
}

// Overlaps reports whether r and s share positive area. An empty rect
// overlaps nothing, even one that contains it.
func (r Rect) Overlaps(s Rect) bool {
	return max64(r.XL, s.XL) < min64(r.XH, s.XH) && max64(r.YL, s.YL) < min64(r.YH, s.YH)
}

// Intersect returns the overlap of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{max64(r.XL, s.XL), max64(r.YL, s.YL), min64(r.XH, s.XH), min64(r.YH, s.YH)}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Union returns the bounding box of r and s; if one is empty the other is
// returned.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{min64(r.XL, s.XL), min64(r.YL, s.YL), max64(r.XH, s.XH), max64(r.YH, s.YH)}
}

// UnionAll returns the bounding box of r and every rect of rs, skipping
// empty ones.
func (r Rect) UnionAll(rs []Rect) Rect {
	for _, s := range rs {
		r = r.Union(s)
	}
	return r
}

// Expand grows r by d on every side (shrink with negative d). The result
// may be empty.
func (r Rect) Expand(d int64) Rect {
	out := Rect{r.XL - d, r.YL - d, r.XH + d, r.YH + d}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Translate returns r shifted by (dx,dy).
func (r Rect) Translate(dx, dy int64) Rect {
	return Rect{r.XL + dx, r.YL + dy, r.XH + dx, r.YH + dy}
}

// OverlapArea returns the shared area of r and s.
func (r Rect) OverlapArea(s Rect) int64 { return r.Intersect(s).Area() }

// Gap returns the Euclidean-free rectilinear gap between r and s:
// the larger of the horizontal and vertical separations, or 0 when the
// rectangles touch or overlap in both axes. It is the Chebyshev analogue of
// the spacing rule check used in DRC (two shapes violate spacing sm when
// GapX < sm AND GapY < sm, i.e. their sm-expansions overlap).
func (r Rect) Gap(s Rect) (gx, gy int64) {
	gx = max64(max64(s.XL-r.XH, r.XL-s.XH), 0)
	gy = max64(max64(s.YL-r.YH, r.YL-s.YH), 0)
	return gx, gy
}

// String implements fmt.Stringer.
func (r Rect) String() string { return fmt.Sprintf("[%d,%d %d,%d]", r.XL, r.YL, r.XH, r.YH) }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
