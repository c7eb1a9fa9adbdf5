package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// TestIndexReset verifies a reset index behaves exactly like a fresh one.
func TestIndexReset(t *testing.T) {
	ix := NewIndex(R(0, 0, 100, 100), 10)
	ix.Insert(R(0, 0, 50, 50))
	ix.Insert(R(40, 40, 90, 90))
	if got := ix.OverlapArea(R(0, 0, 100, 100)); got != 50*50+50*50-10*10 {
		t.Fatalf("pre-reset overlap area = %d", got)
	}

	// Shrink, then grow past the original bin count; stale bin contents
	// must never leak into queries.
	for _, bounds := range []Rect{R(0, 0, 30, 30), R(0, 0, 400, 400)} {
		ix.Reset(bounds, 10)
		if ix.Len() != 0 {
			t.Fatalf("reset kept %d rects", ix.Len())
		}
		if got := ix.OverlapArea(bounds); got != 0 {
			t.Fatalf("empty reset index reports overlap area %d", got)
		}
		id := ix.Insert(R(1, 1, 11, 11))
		if id != 0 {
			t.Fatalf("first insert after reset got id %d", id)
		}
		if got := ix.OverlapArea(bounds); got != 100 {
			t.Fatalf("overlap area after reset = %d, want 100", got)
		}
		if ix.AnyWithin(R(12, 1, 20, 11), 2, -1) != true {
			t.Fatal("AnyWithin missed neighbour after reset")
		}
	}
}

// TestIndexResetMatchesFresh cross-validates a long-lived reset index
// against a fresh index over random workloads.
func TestIndexResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reused := NewIndex(R(0, 0, 1, 1), 0)
	for trial := 0; trial < 50; trial++ {
		w := int64(50 + rng.Intn(500))
		bounds := R(0, 0, w, w)
		reused.Reset(bounds, 0)
		fresh := NewIndex(bounds, 0)
		for i := 0; i < 30; i++ {
			xl := int64(rng.Intn(int(w)))
			yl := int64(rng.Intn(int(w)))
			r := R(xl, yl, xl+1+int64(rng.Intn(40)), yl+1+int64(rng.Intn(40)))
			reused.Insert(r)
			fresh.Insert(r)
		}
		for i := 0; i < 20; i++ {
			xl := int64(rng.Intn(int(w)))
			yl := int64(rng.Intn(int(w)))
			q := R(xl, yl, xl+1+int64(rng.Intn(60)), yl+1+int64(rng.Intn(60)))
			if a, b := reused.OverlapArea(q), fresh.OverlapArea(q); a != b {
				t.Fatalf("trial %d: OverlapArea mismatch reused=%d fresh=%d for %v", trial, a, b, q)
			}
			if a, b := reused.AnyWithin(q, 5, -1), fresh.AnyWithin(q, 5, -1); a != b {
				t.Fatalf("trial %d: AnyWithin mismatch reused=%v fresh=%v for %v", trial, a, b, q)
			}
		}
	}
}

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
