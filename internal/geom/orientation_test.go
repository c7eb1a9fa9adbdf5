package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTranspose(t *testing.T) {
	r := R(1, 2, 5, 9)
	tr := r.Transpose()
	if tr != R(2, 1, 9, 5) {
		t.Fatalf("transpose = %v", tr)
	}
	if tr.Transpose() != r {
		t.Fatal("transpose must be an involution")
	}
	if tr.Area() != r.Area() {
		t.Fatal("transpose must preserve area")
	}
}

func TestTransposeRects(t *testing.T) {
	in := []Rect{R(0, 0, 1, 2), R(3, 4, 5, 8)}
	out := TransposeRects(in)
	if out[0] != R(0, 0, 2, 1) || out[1] != R(4, 3, 8, 5) {
		t.Fatalf("TransposeRects = %v", out)
	}
	// Input must be untouched (fresh allocation).
	if in[0] != R(0, 0, 1, 2) {
		t.Fatal("TransposeRects mutated its input")
	}
}

func TestDifferenceVerticalEquivalentArea(t *testing.T) {
	// Horizontal and vertical decompositions cover the same region.
	rng := rand.New(rand.NewSource(21))
	for it := 0; it < 60; it++ {
		w := R(0, 0, 50, 50)
		holes := randRects(rng, rng.Intn(8), 40)
		h := Difference(nil, w, holes, false)
		v := Difference(nil, w, holes, true)
		if TotalArea(h) != TotalArea(v) {
			t.Fatalf("it %d: area mismatch H=%d V=%d", it, TotalArea(h), TotalArea(v))
		}
		// Vertical slabs must be disjoint and hole-free too.
		for i, a := range v {
			if !w.ContainsRect(a) {
				t.Fatalf("it %d: piece escapes window", it)
			}
			for _, hole := range holes {
				if a.Overlaps(hole) {
					t.Fatalf("it %d: piece overlaps hole", it)
				}
			}
			for j := i + 1; j < len(v); j++ {
				if a.Overlaps(v[j]) {
					t.Fatalf("it %d: vertical pieces overlap", it)
				}
			}
		}
	}
}

func TestDifferenceVerticalFewerPiecesForVerticalWires(t *testing.T) {
	// Vertical bars: vertical decomposition should produce (far) fewer
	// pieces than horizontal.
	w := R(0, 0, 1000, 1000)
	var holes []Rect
	for x := int64(50); x < 1000; x += 100 {
		// Bars of varying heights so horizontal slabs fragment.
		holes = append(holes, R(x, (x/10)%300, x+16, 1000-(x/7)%200))
	}
	h := Difference(nil, w, holes, false)
	v := Difference(nil, w, holes, true)
	if len(v) >= len(h) {
		t.Fatalf("vertical decomposition should win for vertical bars: %d vs %d pieces", len(v), len(h))
	}
}

func TestDifferenceOrientationDispatch(t *testing.T) {
	w := R(0, 0, 20, 20)
	holes := []Rect{R(8, 0, 12, 20)}
	h := Difference(nil, w, holes, false)
	v := Difference(nil, w, holes, true)
	if len(v) != 2 || len(h) != 2 {
		t.Fatalf("single bar must split window in two either way: H=%d V=%d", len(h), len(v))
	}
	if TotalArea(h) != TotalArea(v) {
		t.Fatal("orientation changed the area")
	}
}

func TestQuickTransposeUnionArea(t *testing.T) {
	// Union area is invariant under transposition.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rects := randRects(rng, int(n%10)+1, 40)
		return UnionArea(rects) == UnionArea(TransposeRects(rects))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDifferenceComplement(t *testing.T) {
	// Difference + clipped holes partition the window, in both
	// orientations.
	f := func(seed int64, n uint8, vertical bool) bool {
		rng := rand.New(rand.NewSource(seed))
		w := R(0, 0, 60, 60)
		holes := randRects(rng, int(n%8), 50)
		free := Difference(nil, w, holes, vertical)
		var clipped []Rect
		for _, h := range holes {
			if c := h.Intersect(w); !c.Empty() {
				clipped = append(clipped, c)
			}
		}
		return TotalArea(free)+UnionArea(clipped) == w.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TransposeRects swaps the axes of every rect (freshly allocated).
func TransposeRects(rs []Rect) []Rect {
	out := make([]Rect, len(rs))
	for i, r := range rs {
		out[i] = r.Transpose()
	}
	return out
}
