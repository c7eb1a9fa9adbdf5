package geom

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := R(0, 0, 10, 5)
	if r.W() != 10 || r.H() != 5 || r.Area() != 50 {
		t.Fatalf("basic dims wrong: %v", r)
	}
	if r.Empty() {
		t.Fatal("non-empty rect reported empty")
	}
	if !R(3, 3, 3, 8).Empty() {
		t.Fatal("zero-width rect not empty")
	}
	if got := R(10, 5, 0, 0); got != r {
		t.Fatalf("R should normalize swapped bounds, got %v", got)
	}
}

func TestRectEmptyArea(t *testing.T) {
	e := Rect{5, 5, 5, 5}
	if e.Area() != 0 || e.W() != 0 || e.H() != 0 {
		t.Fatalf("empty rect must have zero measures: %v", e)
	}
	inv := Rect{10, 10, 0, 0}
	if inv.Area() != 0 {
		t.Fatalf("inverted rect area must be 0, got %d", inv.Area())
	}
}

func TestIntersect(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	got := a.Intersect(b)
	if got != R(5, 5, 10, 10) {
		t.Fatalf("intersect wrong: %v", got)
	}
	if !a.Intersect(R(20, 20, 30, 30)).Empty() {
		t.Fatal("disjoint intersect must be empty")
	}
	if !a.Intersect(R(10, 0, 20, 10)).Empty() {
		t.Fatal("touching rects share no area")
	}
}

func TestOverlaps(t *testing.T) {
	box := R(-2, -2, 3, 27)
	for _, c := range []struct {
		s    Rect
		want bool
	}{
		{R(0, 0, 1, 1), true},          // inside
		{R(2, 20, 10, 30), true},       // corner overlap
		{R(3, 0, 10, 10), false},       // touching edge
		{R(3, 27, 5, 30), false},       // touching corner
		{R(10, 10, 20, 20), false},     // disjoint
		{Rect{}, false},                // empty, inside
		{Rect{1, 0, 1, 10}, false},     // zero width, inside
		{Rect{-5, 4, 10, 4}, false},    // zero height, crossing
		{Rect{2, 2, 1, 1}, false},      // inverted, inside
		{Rect{-10, -10, 10, 40}, true}, // contains the box
		{Rect{1, -10, 2, 40}, true},    // thin strip crossing
	} {
		if got := box.Overlaps(c.s); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", box, c.s, got, c.want)
		}
		if got := c.s.Overlaps(box); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", c.s, box, got, c.want)
		}
	}
	if (Rect{}).Overlaps(Rect{}) {
		t.Error("an empty rect overlaps itself")
	}
}

func TestUnionBBox(t *testing.T) {
	a := R(0, 0, 1, 1)
	b := R(5, 5, 6, 7)
	if got := a.Union(b); got != R(0, 0, 6, 7) {
		t.Fatalf("union bbox wrong: %v", got)
	}
	if got := (Rect{}).Union(b); got != b {
		t.Fatalf("union with empty wrong: %v", got)
	}
	if got := a.Union(Rect{}); got != a {
		t.Fatalf("union with empty wrong: %v", got)
	}
}

func TestExpand(t *testing.T) {
	r := R(10, 10, 20, 20)
	if got := r.Expand(5); got != R(5, 5, 25, 25) {
		t.Fatalf("expand wrong: %v", got)
	}
	if got := r.Expand(-5); !got.Empty() {
		t.Fatalf("over-shrink must be empty: %v", got)
	}
	if got := r.Expand(-4); got != R(14, 14, 16, 16) {
		t.Fatalf("shrink wrong: %v", got)
	}
}

func TestContains(t *testing.T) {
	r := R(0, 0, 10, 10)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{9, 9}, true},
		{Point{10, 10}, false}, // half-open
		{Point{-1, 5}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !r.ContainsRect(R(2, 2, 8, 8)) || r.ContainsRect(R(5, 5, 12, 8)) {
		t.Fatal("ContainsRect wrong")
	}
	if !r.ContainsRect(Rect{}) {
		t.Fatal("empty rect is contained in anything")
	}
}

func TestGap(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(15, 0, 20, 10)
	gx, gy := a.Gap(b)
	if gx != 5 || gy != 0 {
		t.Fatalf("gap = (%d,%d), want (5,0)", gx, gy)
	}
	gx, gy = a.Gap(R(3, 3, 5, 5)) // contained
	if gx != 0 || gy != 0 {
		t.Fatalf("overlap gap must be zero, got (%d,%d)", gx, gy)
	}
	gx, gy = a.Gap(R(12, 13, 20, 20))
	if gx != 2 || gy != 3 {
		t.Fatalf("diagonal gap = (%d,%d), want (2,3)", gx, gy)
	}
}

func TestUnionAreaSimple(t *testing.T) {
	cases := []struct {
		rects []Rect
		want  int64
	}{
		{nil, 0},
		{[]Rect{R(0, 0, 10, 10)}, 100},
		{[]Rect{R(0, 0, 10, 10), R(0, 0, 10, 10)}, 100},               // duplicate
		{[]Rect{R(0, 0, 10, 10), R(5, 5, 15, 15)}, 175},               // overlap
		{[]Rect{R(0, 0, 10, 10), R(10, 0, 20, 10)}, 200},              // touching
		{[]Rect{R(0, 0, 4, 4), R(6, 6, 8, 8)}, 20},                    // disjoint
		{[]Rect{R(0, 0, 10, 10), R(2, 2, 4, 4)}, 100},                 // contained
		{[]Rect{R(0, 0, 10, 1), R(0, 0, 1, 10), R(9, 0, 10, 10)}, 28}, // L+bar
	}
	for i, c := range cases {
		if got := UnionArea(c.rects); got != c.want {
			t.Errorf("case %d: UnionArea = %d, want %d", i, got, c.want)
		}
	}
}

func randRects(r *rand.Rand, n int, extent int64) []Rect {
	out := make([]Rect, n)
	for i := range out {
		x := r.Int63n(extent)
		y := r.Int63n(extent)
		w := 1 + r.Int63n(extent/4)
		h := 1 + r.Int63n(extent/4)
		out[i] = R(x, y, x+w, y+h)
	}
	return out
}

// brute-force area on a small integer grid for cross-checking.
func bruteUnionArea(rects []Rect, extent int64) int64 {
	var a int64
	for x := int64(0); x < extent*2; x++ {
		for y := int64(0); y < extent*2; y++ {
			p := Point{x, y}
			for _, r := range rects {
				if r.Contains(p) {
					a++
					break
				}
			}
		}
	}
	return a
}

func TestUnionAreaRandomVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 50; it++ {
		rects := randRects(rng, 1+rng.Intn(8), 20)
		want := bruteUnionArea(rects, 20)
		if got := UnionArea(rects); got != want {
			t.Fatalf("it %d: UnionArea=%d brute=%d rects=%v", it, got, want, rects)
		}
	}
}

func TestUnionSlabsDisjointAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 50; it++ {
		rects := randRects(rng, 1+rng.Intn(10), 30)
		slabs := UnionSlabs(rects)
		// Disjoint.
		for i := range slabs {
			for j := i + 1; j < len(slabs); j++ {
				if slabs[i].Overlaps(slabs[j]) {
					t.Fatalf("it %d: slabs overlap: %v %v", it, slabs[i], slabs[j])
				}
			}
		}
		// Area-preserving.
		var sum int64
		for _, s := range slabs {
			sum += s.Area()
		}
		if want := UnionArea(rects); sum != want {
			t.Fatalf("it %d: slab area %d != union area %d", it, sum, want)
		}
	}
}

func TestDifferenceBasic(t *testing.T) {
	w := R(0, 0, 10, 10)
	free := Difference(nil, w, nil, false)
	if len(free) != 1 || free[0] != w {
		t.Fatalf("difference with no holes must be the window: %v", free)
	}
	free = Difference(nil, w, []Rect{w}, false)
	if len(free) != 0 {
		t.Fatalf("fully-covered window must have no free space: %v", free)
	}
	free = Difference(nil, w, []Rect{R(0, 0, 5, 10)}, false)
	if TotalArea(free) != 50 {
		t.Fatalf("half-covered free area = %d, want 50", TotalArea(free))
	}
	// Hole in the middle → free ring of area 100-16=84.
	free = Difference(nil, w, []Rect{R(3, 3, 7, 7)}, false)
	if TotalArea(free) != 84 {
		t.Fatalf("ring free area = %d, want 84", TotalArea(free))
	}
}

func TestDifferenceRandomInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for it := 0; it < 60; it++ {
		w := R(0, 0, 40, 40)
		holes := randRects(rng, rng.Intn(10), 30)
		free := Difference(nil, w, holes, false)
		// Free slabs must be disjoint, inside the window, and free of holes.
		for i, f := range free {
			if !w.ContainsRect(f) {
				t.Fatalf("it %d: free rect %v escapes window", it, f)
			}
			for _, h := range holes {
				if f.Overlaps(h) {
					t.Fatalf("it %d: free rect %v overlaps hole %v", it, f, h)
				}
			}
			for j := i + 1; j < len(free); j++ {
				if f.Overlaps(free[j]) {
					t.Fatalf("it %d: free rects overlap", it)
				}
			}
		}
		// Complementarity: free area + covered area = window area.
		var clipped []Rect
		for _, h := range holes {
			c := h.Intersect(w)
			if !c.Empty() {
				clipped = append(clipped, c)
			}
		}
		if got, want := TotalArea(free)+UnionArea(clipped), w.Area(); got != want {
			t.Fatalf("it %d: free+covered = %d, want %d", it, got, want)
		}
	}
}

func TestIntersectSets(t *testing.T) {
	a := []Rect{R(0, 0, 10, 10)}
	b := []Rect{R(5, 5, 15, 15), R(0, 0, 2, 2)}
	got := IntersectSets(a, b)
	if UnionArea(got) != 25+4 {
		t.Fatalf("intersect sets area = %d, want 29", UnionArea(got))
	}
	if OverlapAreaSets(a, b) != 29 {
		t.Fatalf("OverlapAreaSets wrong")
	}
	if len(IntersectSets(nil, b)) != 0 {
		t.Fatal("empty set intersection must be empty")
	}
}

func TestQuickUnionAreaMonotone(t *testing.T) {
	// Property: adding a rectangle never decreases union area, and
	// increases it by at most the rect's own area.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rects := randRects(rng, int(n%12)+1, 50)
		base := UnionArea(rects[:len(rects)-1])
		full := UnionArea(rects)
		added := rects[len(rects)-1].Area()
		return full >= base && full <= base+added
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectCommutativeAndBounded(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh int16) bool {
		a := R(int64(ax), int64(ay), int64(ax)+int64(aw%100)+1, int64(ay)+int64(ah%100)+1)
		b := R(int64(bx), int64(by), int64(bx)+int64(bw%100)+1, int64(by)+int64(bh%100)+1)
		i1 := a.Intersect(b)
		i2 := b.Intersect(a)
		if i1 != i2 {
			return false
		}
		return i1.Area() <= a.Area() && i1.Area() <= b.Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FromRect returns the 4-vertex polygon of r (counter-clockwise).
func FromRect(r Rect) Polygon {
	return Polygon{Pts: []Point{
		{r.XL, r.YL}, {r.XH, r.YL}, {r.XH, r.YH}, {r.XL, r.YH},
	}}
}

func TestPolygonFromRect(t *testing.T) {
	p := FromRect(R(0, 0, 10, 5))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Area() != 50 {
		t.Fatalf("polygon area = %d, want 50", p.Area())
	}
	rects, err := p.ToRects()
	if err != nil {
		t.Fatal(err)
	}
	if len(rects) != 1 || rects[0] != R(0, 0, 10, 5) {
		t.Fatalf("rect polygon should decompose to itself: %v", rects)
	}
}

// TestPolygonRectFastPath checks ToRects' rectangle shortcut against the
// band scan on random rectangles, starting the vertex ring at each corner
// and walking it both ways, and on four-vertex rings that fold back on
// themselves, which must not take the shortcut.
func TestPolygonRectFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(p Polygon) {
		t.Helper()
		got, err := p.ToRects()
		want, werr := p.bandRects()
		if (err != nil) != (werr != nil) || !slices.Equal(got, want) {
			t.Fatalf("ToRects(%v) = %v, %v; band scan = %v, %v", p.Pts, got, err, want, werr)
		}
	}
	for i := 0; i < 500; i++ {
		x, y := rng.Int63n(2000)-1000, rng.Int63n(2000)-1000
		r := R(x, y, x+1+rng.Int63n(500), y+1+rng.Int63n(500))
		ring := FromRect(r).Pts
		for rot := range ring {
			for _, rev := range []bool{false, true} {
				pts := append(slices.Clone(ring[rot:]), ring[:rot]...)
				if rev {
					slices.Reverse(pts)
				}
				p := Polygon{Pts: pts}
				if got, ok := p.rect(); !ok || got != r {
					t.Fatalf("rect(%v) = %v, %v; want %v", pts, got, ok, r)
				}
				check(p)
			}
		}
	}
	for _, pts := range [][]Point{
		{{0, 0}, {5, 0}, {0, 0}, {0, 3}},
		{{0, 0}, {5, 0}, {5, 3}, {5, 0}},
		{{0, 0}, {0, 3}, {0, 0}, {5, 0}},
	} {
		p := Polygon{Pts: pts}
		if err := p.Validate(); err != nil {
			t.Fatalf("Validate(%v): %v", pts, err)
		}
		if _, ok := p.rect(); ok {
			t.Fatalf("folded ring %v taken for a rectangle", pts)
		}
		check(p)
	}
}

func TestPolygonLShape(t *testing.T) {
	// L-shape: 10x10 square minus 5x5 upper-right corner.
	p := Polygon{Pts: []Point{
		{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Area() != 75 {
		t.Fatalf("L area = %d, want 75", p.Area())
	}
	rects, err := p.ToRects()
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i, r := range rects {
		sum += r.Area()
		for j := i + 1; j < len(rects); j++ {
			if r.Overlaps(rects[j]) {
				t.Fatalf("decomposition rects overlap: %v %v", r, rects[j])
			}
		}
	}
	if sum != 75 {
		t.Fatalf("decomposed area = %d, want 75", sum)
	}
}

func TestPolygonUShapeAndT(t *testing.T) {
	// U-shape.
	u := Polygon{Pts: []Point{
		{0, 0}, {30, 0}, {30, 20}, {20, 20}, {20, 10}, {10, 10}, {10, 20}, {0, 20},
	}}
	rects, err := u.ToRects()
	if err != nil {
		t.Fatal(err)
	}
	if TotalArea(rects) != u.Area() {
		t.Fatalf("U decomposition area %d != %d", TotalArea(rects), u.Area())
	}
	// T-shape.
	tp := Polygon{Pts: []Point{
		{0, 10}, {30, 10}, {30, 20}, {20, 20}, {20, 30}, {10, 30}, {10, 20}, {0, 20},
	}}
	rects, err = tp.ToRects()
	if err != nil {
		t.Fatal(err)
	}
	if TotalArea(rects) != tp.Area() {
		t.Fatalf("T decomposition area %d != %d", TotalArea(rects), tp.Area())
	}
}

func TestPolygonInvalid(t *testing.T) {
	diag := Polygon{Pts: []Point{{0, 0}, {5, 5}, {0, 5}, {0, 3}}}
	if err := diag.Validate(); err == nil {
		t.Fatal("diagonal polygon must fail validation")
	}
	short := Polygon{Pts: []Point{{0, 0}, {1, 0}}}
	if err := short.Validate(); err == nil {
		t.Fatal("2-vertex polygon must fail validation")
	}
	if _, err := diag.ToRects(); err == nil {
		t.Fatal("ToRects must reject invalid polygons")
	}
}

func TestIndexQuery(t *testing.T) {
	ix := NewIndex(R(0, 0, 1000, 1000), 100, []Rect{
		R(10, 10, 20, 20),
		R(500, 500, 600, 600),
		R(0, 0, 1000, 5),
	}, 0)
	var hits []int
	ix.Query(R(0, 0, 50, 50), func(id int, r Rect) bool {
		hits = append(hits, id)
		return true
	})
	if len(hits) != 2 { // first rect + bottom bar
		t.Fatalf("expected 2 hits, got %v", hits)
	}
	var buf []Rect
	if got := ix.OverlapArea(R(0, 0, 30, 30), &buf); got != 100+30*5 {
		t.Fatalf("OverlapArea = %d, want 250", got)
	}
}

func TestIndexAnyWithin(t *testing.T) {
	ix := NewIndex(R(0, 0, 100, 100), 10, []Rect{R(0, 0, 10, 10)}, 0)
	q := R(13, 0, 20, 10) // gap of 3 in x
	if !ix.AnyWithin(q, 5, -1) {
		t.Fatal("rect within spacing 5 not found")
	}
	if ix.AnyWithin(q, 3, -1) {
		t.Fatal("gap of exactly 3 satisfies spacing 3; must not be flagged")
	}
	ix = NewIndex(R(0, 0, 100, 100), 10, []Rect{R(0, 0, 10, 10), q}, 0)
	if id := 1; ix.AnyWithin(q, 2, id) {
		t.Fatal("skip id must exclude self and no other rect is within 2")
	}
}

func TestIndexQueryNoDuplicates(t *testing.T) {
	// Rect spanning many cells.
	ix := NewIndex(R(0, 0, 100, 100), 10, []Rect{R(0, 0, 100, 100)}, 0)
	count := 0
	ix.Query(R(0, 0, 100, 100), func(id int, r Rect) bool {
		count++
		return true
	})
	if count != 1 {
		t.Fatalf("multi-cell rect reported %d times", count)
	}
}

func BenchmarkUnionArea1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rects := randRects(rng, 1000, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UnionArea(rects)
	}
}

func BenchmarkDifference200Holes(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	holes := randRects(rng, 200, 900)
	w := R(0, 0, 1000, 1000)
	for _, vertical := range []bool{false, true} {
		name := "horizontal"
		if vertical {
			name = "vertical"
		}
		b.Run(name, func(b *testing.B) {
			var dst []Rect
			for i := 0; i < b.N; i++ {
				dst = Difference(dst[:0], w, holes, vertical)
			}
		})
	}
}

// BenchmarkDifferenceRowWindow is the small-window case of the site-row
// design: a 600×600 window over five 120-high placement rows, each
// holding two placed cells, so 10 horizontal holes (the mean count per
// window there).
func BenchmarkDifferenceRowWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	w := R(0, 0, 600, 600)
	var holes []Rect
	for y := int64(0); y < 600; y += 120 {
		for _, x := range []int64{rng.Int63n(100), 300 + rng.Int63n(100)} {
			holes = append(holes, R(x, y, x+40+rng.Int63n(200), y+120))
		}
	}
	b.ReportAllocs()
	var dst []Rect
	for i := 0; i < b.N; i++ {
		dst = Difference(dst[:0], w, holes, false)
	}
}

// intersections returns every non-empty pairwise intersection of a rect
// of a with a rect of b. The pieces may overlap.
func intersections(a, b []Rect) []Rect {
	var pieces []Rect
	for _, ra := range a {
		for _, rb := range b {
			if c := ra.Intersect(rb); !c.Empty() {
				pieces = append(pieces, c)
			}
		}
	}
	return pieces
}

// UnionSlabs decomposes the union of rects into disjoint rectangles
// (maximal horizontal slabs). The output rectangles are non-overlapping
// and their total area equals UnionArea(rects). Tests use it as the
// reference decomposition.
func UnionSlabs(rects []Rect) []Rect {
	var sc sweepScratch
	evs := sc.buildEvents(rects)
	cov := &sc.cov
	var out []Rect
	var open []openSlab
	var prev, curr []covIval
	for i := 0; i < len(evs); {
		y := evs[i].y
		for i < len(evs) && evs[i].y == y {
			cov.update(evs[i].xl, evs[i].xh, evs[i].delta)
			i++
		}
		curr = cov.coveredInto(curr)
		if !sameIvals(prev, curr) {
			// Close all open slabs at y, open new ones from curr.
			for _, s := range open {
				if y > s.yl {
					out = append(out, Rect{s.xl, s.yl, s.xh, y})
				}
			}
			open = open[:0]
			for _, iv := range curr {
				open = append(open, openSlab{iv.xl, iv.xh, y})
			}
			prev, curr = curr, prev
		}
	}
	// All rects are closed by their own close event, so the active set is
	// empty here and nothing is left open.
	return out
}

// IntersectSets returns the disjoint decomposition of the intersection of
// the unions of a and b: region covered by at least one rect of a AND at
// least one rect of b.
func IntersectSets(a, b []Rect) []Rect {
	pieces := intersections(a, b)
	if len(pieces) <= 1 {
		return pieces
	}
	return UnionSlabs(pieces)
}

// OverlapAreaSets returns the area of the intersection of the unions of a
// and b.
func OverlapAreaSets(a, b []Rect) int64 { return UnionArea(intersections(a, b)) }
