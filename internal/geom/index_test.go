package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// TestIndexReserve checks that an index that reserved room answers
// queries like one grown insert by insert, keeps what was inserted
// before the reservation, and fills its reserved storage exactly.
func TestIndexReserve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rects := func(w int64, n int) []Rect {
		out := make([]Rect, n)
		for i := range out {
			xl, yl := rng.Int63n(w), rng.Int63n(w)
			out[i] = R(xl, yl, xl+1+rng.Int63n(w/4), yl+1+rng.Int63n(w/4))
		}
		return out
	}
	for trial := 0; trial < 50; trial++ {
		w := int64(50 + rng.Intn(500))
		bounds := R(0, 0, w, w)
		early, a, b := rects(w, rng.Intn(10)), rects(w, rng.Intn(40)), rects(w, rng.Intn(40))
		reserved, grown := NewIndex(bounds, 0), NewIndex(bounds, 0)
		for _, r := range early {
			reserved.Insert(r)
			grown.Insert(r)
		}
		reserved.Reserve(a, b)
		capRects, capStamp := cap(reserved.rects), cap(reserved.stamp)
		for _, r := range slices.Concat(a, b) {
			reserved.Insert(r)
			grown.Insert(r)
		}
		if cap(reserved.rects) != capRects || cap(reserved.stamp) != capStamp {
			t.Fatalf("trial %d: rect storage regrew after Reserve", trial)
		}
		for i, bin := range reserved.bins {
			if len(bin) != cap(bin) || !slices.Equal(bin, grown.bins[i]) {
				t.Fatalf("trial %d: bin %d = %v (cap %d), want exactly %v", trial, i, bin, cap(bin), grown.bins[i])
			}
		}
		for i := 0; i < 20; i++ {
			q := rects(w, 1)[0]
			if x, y := reserved.OverlapArea(q), grown.OverlapArea(q); x != y {
				t.Fatalf("trial %d: OverlapArea reserved=%d grown=%d for %v", trial, x, y, q)
			}
			if x, y := reserved.AnyWithin(q, 5, -1), grown.AnyWithin(q, 5, -1); x != y {
				t.Fatalf("trial %d: AnyWithin reserved=%v grown=%v for %v", trial, x, y, q)
			}
		}
	}
}

// TestUnionAreaSmallFastPaths pins the 0/1/2-rect fast paths against the
// general sweep.
func TestUnionAreaSmallFastPaths(t *testing.T) {
	cases := [][]Rect{
		nil,
		{R(0, 0, 0, 0)},
		{R(0, 0, 10, 10)},
		{R(0, 0, 10, 10), R(0, 0, 10, 10)},
		{R(0, 0, 10, 10), R(5, 5, 15, 15)},
		{R(0, 0, 10, 10), R(20, 20, 30, 30)},
		{R(0, 0, 10, 10), R(3, 3, 7, 7)},
		{R(0, 0, 10, 10), R(0, 0, 0, 0)},
	}
	for i, rects := range cases {
		// Pad with empty rects to force the sweep path as reference.
		padded := append(append([]Rect{}, rects...), Rect{}, Rect{}, Rect{})
		if got, want := UnionArea(rects), UnionArea(padded); got != want {
			t.Fatalf("case %d: fast path %d != sweep %d", i, got, want)
		}
	}
}
