package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// refOverlap is the scanline reference: union area of rects clipped to q.
func refOverlap(rects []Rect, q Rect) int64 {
	var pieces []Rect
	for _, r := range rects {
		if c := r.Intersect(q); !c.Empty() {
			pieces = append(pieces, c)
		}
	}
	return UnionArea(pieces)
}

func randRect(rng *rand.Rand, span int64) Rect {
	xl := rng.Int63n(span)
	yl := rng.Int63n(span)
	return Rect{XL: xl, YL: yl, XH: xl + 1 + rng.Int63n(span/4+1), YH: yl + 1 + rng.Int63n(span/4+1)}
}

// TestAreaTableMatchesScanline cross-checks the summed-area kernel against
// the scanline union on randomized layouts: total area and arbitrary
// overlap queries must be bit-identical.
func TestAreaTableMatchesScanline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var at AreaTable
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(40)
		rects := make([]Rect, 0, n)
		for i := 0; i < n; i++ {
			rects = append(rects, randRect(rng, 400))
		}
		at.Build(rects)
		if got, want := at.TotalArea(), UnionArea(rects); got != want {
			t.Fatalf("trial %d: TotalArea=%d want %d", trial, got, want)
		}
		for qi := 0; qi < 40; qi++ {
			q := randRect(rng, 500)
			q = Rect{XL: q.XL - 50, YL: q.YL - 50, XH: q.XH, YH: q.YH}
			if got, want := at.OverlapArea(q), refOverlap(rects, q); got != want {
				t.Fatalf("trial %d query %v: OverlapArea=%d want %d (rects=%v)", trial, q, got, want, rects)
			}
		}
	}
}

// TestAreaTableLargeInput cross-checks a coordinate-rich input (hundreds
// of distinct edges, the regime where a compressed raster would blow up)
// against the scanline reference.
func TestAreaTableLargeInput(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 600
	rects := make([]Rect, 0, n)
	for i := 0; i < n; i++ {
		rects = append(rects, randRect(rng, 100000))
	}
	var at AreaTable
	at.Build(rects)
	if got, want := at.TotalArea(), UnionArea(rects); got != want {
		t.Fatalf("TotalArea=%d want %d", got, want)
	}
	for qi := 0; qi < 30; qi++ {
		q := randRect(rng, 100000)
		if got, want := at.OverlapArea(q), refOverlap(rects, q); got != want {
			t.Fatalf("query %v: %d want %d", q, got, want)
		}
	}
}

// TestAreaTableEdgeCases covers empty inputs, empty queries, degenerate
// rects and out-of-bounds queries.
func TestAreaTableEdgeCases(t *testing.T) {
	var at AreaTable
	at.Build(nil)
	if !at.Empty() || at.TotalArea() != 0 || at.OverlapArea(R(0, 0, 10, 10)) != 0 {
		t.Fatal("empty table must report zero coverage")
	}
	at.Build([]Rect{{XL: 5, YL: 5, XH: 5, YH: 9}}) // empty rect only
	if !at.Empty() {
		t.Fatal("degenerate-only input must yield an empty table")
	}
	at.Build([]Rect{R(10, 10, 20, 20)})
	if at.OverlapArea(Rect{}) != 0 {
		t.Fatal("empty query must be zero")
	}
	if got := at.OverlapArea(R(30, 30, 40, 40)); got != 0 {
		t.Fatalf("disjoint query must be zero, got %d", got)
	}
	if got := at.OverlapArea(R(0, 0, 100, 100)); got != 100 {
		t.Fatalf("containing query must see full area, got %d", got)
	}
	if got := at.OverlapArea(R(15, 12, 17, 30)); got != 2*8 {
		t.Fatalf("partial query: got %d want 16", got)
	}
	// Rebuild reuse: a second Build must fully replace the first.
	at.Build([]Rect{R(0, 0, 4, 4), R(2, 2, 6, 6)})
	if got := at.TotalArea(); got != 28 {
		t.Fatalf("rebuild TotalArea=%d want 28", got)
	}
}

// TestAreaTableQueryAllocs guards the steady-state allocation contract of
// the hot query path: zero allocations per OverlapArea call.
func TestAreaTableQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	var at AreaTable
	at.Build([]Rect{R(0, 0, 50, 50), R(40, 40, 100, 90), R(10, 60, 30, 80)})
	q := R(5, 5, 70, 70)
	if n := testing.AllocsPerRun(200, func() { at.OverlapArea(q) }); n != 0 {
		t.Fatalf("AreaTable.OverlapArea allocates %.1f per call, want 0", n)
	}
}

// TestAreaTableBuildSteadyStateAllocs: after the first Build at a given
// size, rebuilding over same-sized inputs must not allocate. The input
// has 150 rects, so its 300 events take the radix sort and its sweep
// edits coverage lists of dozens of intervals.
func TestAreaTableBuildSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	rects := randRects(rand.New(rand.NewSource(8)), 150, 2000)
	var at AreaTable
	at.Build(rects)
	if n := testing.AllocsPerRun(100, func() { at.Build(rects) }); n != 0 {
		t.Fatalf("AreaTable.Build allocates %.1f per steady-state call, want 0", n)
	}
}

// TestUnionAreaSteadyStateAllocs: once the pooled sweep scratch has
// grown, UnionArea over 150 rects does not allocate.
func TestUnionAreaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	rects := randRects(rand.New(rand.NewSource(9)), 150, 2000)
	UnionArea(rects)
	if n := testing.AllocsPerRun(100, func() { UnionArea(rects) }); n != 0 {
		t.Fatalf("UnionArea allocates %.1f per steady-state call, want 0", n)
	}
}

// checkAreaTableOrder builds a table over rects and another over a
// shuffled copy, and fails unless both store the same bands, intervals,
// prefix sums and total: Build's output is canonical, whatever order the
// sort leaves equal-y events in. It also checks OverlapArea against
// refOverlap on the queries qs.
func checkAreaTableOrder(t *testing.T, rng *rand.Rand, rects, qs []Rect) {
	t.Helper()
	shuffled := slices.Clone(rects)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var a, b AreaTable
	a.Build(rects)
	b.Build(shuffled)
	if !slices.Equal(a.bands, b.bands) || !slices.Equal(a.ixl, b.ixl) || !slices.Equal(a.ixh, b.ixh) ||
		!slices.Equal(a.pre, b.pre) || a.total != b.total {
		t.Fatalf("Build depends on input order over %v:\n%+v %v %v %v %d\nshuffled:\n%+v %v %v %v %d",
			rects, a.bands, a.ixl, a.ixh, a.pre, a.total, b.bands, b.ixl, b.ixh, b.pre, b.total)
	}
	for _, q := range qs {
		if got, want := a.OverlapArea(q), refOverlap(rects, q); got != want {
			t.Fatalf("query %v over %v: OverlapArea=%d, refOverlap %d", q, rects, got, want)
		}
	}
}

// yAnchors are the y offsets the order tests place rects at. The two
// near ±2^62 make y − min y need all eight bytes of the radix key.
var yAnchors = [...]int64{0, 1000, 1<<62 - 500, -(1 << 62) + 77}

// orderInput returns n small rects around the y anchors, with
// duplicates, touching, nested and zero-area ones mixed in, and queries
// over them.
func orderInput(rng *rand.Rand, n int) (rects, qs []Rect) {
	for len(rects) < n {
		y0 := yAnchors[rng.Intn(len(yAnchors))]
		x, y := rng.Int63n(60), y0+rng.Int63n(60)
		r := R(x, y, x+rng.Int63n(20), y+rng.Int63n(20)) // may be empty
		rects = append(rects, r)
		if len(rects) > 1 {
			p := rects[rng.Intn(len(rects)-1)]
			switch rng.Intn(4) {
			case 0: // duplicate
				rects = append(rects, p)
			case 1: // touching on the right and above
				rects = append(rects, R(p.XH, p.YL, p.XH+5, p.YH), R(p.XL, p.YH, p.XH, p.YH+3))
			case 2: // nested
				if p.W() > 2 && p.H() > 2 {
					rects = append(rects, R(p.XL+1, p.YL+1, p.XH-1, p.YH-1))
				}
			}
		}
	}
	for range 8 {
		y0 := yAnchors[rng.Intn(len(yAnchors))]
		x, y := rng.Int63n(80)-10, y0+rng.Int63n(80)-10
		qs = append(qs, R(x, y, x+rng.Int63n(60), y+rng.Int63n(60)))
	}
	// One query spans every anchor.
	qs = append(qs, R(-5, -(1<<62), 100, 1<<62))
	return rects, qs
}

// TestAreaTableOrderInvariant: Build over any permutation of its input
// stores the same table, on inputs below and above the 32-event cutoff
// of the insertion sort.
func TestAreaTableOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := range 300 {
		rects, qs := orderInput(rng, 1+trial%120)
		checkAreaTableOrder(t, rng, rects, qs)
	}
}

// FuzzAreaTable checks Build's order invariance and its overlap queries
// on fuzzed inputs. Each five-byte record is one rect: x, y, width and
// height, and the y anchor it sits at.
func FuzzAreaTable(f *testing.F) {
	f.Add(int64(1), []byte{3, 3, 4, 4, 0, 3, 3, 4, 4, 0, 7, 3, 2, 4, 1})
	f.Add(int64(2), []byte{0, 0, 10, 2, 2, 0, 2, 10, 2, 3, 1, 1, 8, 0, 1, 5, 5, 1, 1, 2})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		var rects []Rect
		for i := 0; i+4 < len(data) && len(rects) < 200; i += 5 {
			x, y := int64(data[i]), yAnchors[int(data[i+4])%len(yAnchors)]+int64(data[i+1])
			rects = append(rects, R(x, y, x+int64(data[i+2]%64), y+int64(data[i+3]%64)))
		}
		_, qs := orderInput(rand.New(rand.NewSource(seed)), 0)
		checkAreaTableOrder(t, rand.New(rand.NewSource(seed)), rects, qs)
	})
}

// pass1Shapes is a pass-1 layer of one window, as candidate generation
// builds its tables over it: the clips of 150 horizontal wires on a
// 40-unit track grid, then about 400 fill cells tiled on a 60-unit pitch
// in the spaces between the wires.
func pass1Shapes(rng *rand.Rand) []Rect {
	const win = 6000
	var wires, cells []Rect
	for range 150 {
		y := rng.Int63n(win/40) * 40
		x := rng.Int63n(win/20) * 20
		wires = append(wires, R(x, y, min(x+200+rng.Int63n(2000), win), y+20))
	}
	for len(cells) < 400 {
		x, y := rng.Int63n(win/60)*60, rng.Int63n(win/60)*60
		c := R(x+5, y+5, x+55, y+55)
		clear := true
		for _, r := range wires {
			if r.Overlaps(c) {
				clear = false
				break
			}
		}
		if clear && !slices.Contains(cells, c) {
			cells = append(cells, c)
		}
	}
	return slices.Concat(wires, cells)
}

// BenchmarkAreaTableBuild measures Build over pass-1-shaped input (see
// pass1Shapes) and over its transpose, the two tables pass 1 can build
// per pass-1 layer and window.
func BenchmarkAreaTableBuild(b *testing.B) {
	shapes := pass1Shapes(rand.New(rand.NewSource(13)))
	shapesT := make([]Rect, len(shapes))
	for i, r := range shapes {
		shapesT[i] = r.Transpose()
	}
	for _, bc := range []struct {
		name  string
		rects []Rect
	}{{"shapes", shapes}, {"transposed", shapesT}} {
		b.Run(bc.name, func(b *testing.B) {
			var at AreaTable
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				at.Build(bc.rects)
			}
		})
	}
}

// TestCoverageCanonical drives the sweep's coverage list with random
// opens and closes of previously opened ranges and checks it after every
// update against a count per unit cell: the same counts, the list in
// canonical form (sorted, disjoint, positive counts, no two touching
// intervals with equal counts) and its kept covered length.
func TestCoverageCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const span = 40
	for trial := range 200 {
		var c coverage
		c.reset()
		var counts [span]int
		var open [][2]int64
		for step := range 60 {
			if len(open) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(open))
				r := open[k]
				open = append(open[:k], open[k+1:]...)
				c.update(r[0], r[1], -1)
				for x := r[0]; x < r[1]; x++ {
					counts[x]--
				}
			} else {
				xl := rng.Int63n(span)
				xh := xl + 1 + rng.Int63n(min(span-xl, 1+int64(trial%12)))
				open = append(open, [2]int64{xl, xh})
				c.update(xl, xh, +1)
				for x := xl; x < xh; x++ {
					counts[x]++
				}
			}
			var got [span]int
			var length int64
			for i, iv := range c.ivals {
				if iv.xl >= iv.xh || iv.n <= 0 || (i > 0 && (c.ivals[i-1].xh > iv.xl ||
					c.ivals[i-1].xh == iv.xl && c.ivals[i-1].n == iv.n)) {
					t.Fatalf("trial %d step %d: list %v is not canonical", trial, step, c.ivals)
				}
				for x := iv.xl; x < iv.xh; x++ {
					got[x] = iv.n
				}
				length += iv.xh - iv.xl
			}
			if got != counts || length != c.length {
				t.Fatalf("trial %d step %d: list %v (length %d) gives counts %v, want %v", trial, step, c.ivals, c.length, got, counts)
			}
		}
	}
}
