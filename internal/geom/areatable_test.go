package geom

import (
	"math/rand"
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
// size, rebuilding over same-sized inputs must not allocate.
func TestAreaTableBuildSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	rects := []Rect{R(0, 0, 50, 50), R(40, 40, 100, 90), R(10, 60, 30, 80)}
	var at AreaTable
	at.Build(rects)
	if n := testing.AllocsPerRun(100, func() { at.Build(rects) }); n != 0 {
		t.Fatalf("AreaTable.Build allocates %.1f per steady-state call, want 0", n)
	}
}
