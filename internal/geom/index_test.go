package geom

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// indexed reports whether an index over bounds with pad holds r: whether
// r's padded extent meets bounds. An empty rect is not held unless the
// pad makes it non-empty.
func indexed(ix *Index, r Rect) bool { return !r.Expand(ix.pad).Intersect(ix.bounds).Empty() }

// bruteQuery returns, in the order Query promises, the ids of the indexed
// rects that overlap q inside ix's bounds: by the first bin of q's range,
// in row-major order, that the rect's padded extent shares, then by id.
// The set is found by testing every rect; only the order needs the cells.
func bruteQuery(ix *Index, rects []Rect, q Rect) []int {
	q = q.Intersect(ix.bounds)
	type hit struct{ bin, id int }
	var hits []hit
	for id, r := range rects {
		if q.Empty() || !indexed(ix, r) || !r.Overlaps(q) {
			continue
		}
		p := r.Expand(ix.pad).Intersect(ix.bounds)
		cx := int((max(p.XL, q.XL) - ix.bounds.XL) / ix.cell)
		cy := int((max(p.YL, q.YL) - ix.bounds.YL) / ix.cell)
		hits = append(hits, hit{cy*ix.nx + cx, id})
	}
	slices.SortFunc(hits, func(a, b hit) int {
		if a.bin != b.bin {
			return a.bin - b.bin
		}
		return a.id - b.id
	})
	ids := make([]int, len(hits))
	for i, h := range hits {
		ids[i] = h.id
	}
	return ids
}

// checkIndex fails t unless every query of qs against an index of rects
// over bounds matches brute force: Query's ids and order, its early stop
// after each prefix, QueryBefore at every id bound, AnyWithin with and
// without a skip, and OverlapArea.
func checkIndex(t *testing.T, bounds Rect, cell int64, rects []Rect, pad int64, qs []Rect, s int64) {
	t.Helper()
	ix := NewIndex(bounds, cell, rects, pad)
	var buf []Rect
	for _, q := range qs {
		want := bruteQuery(ix, rects, q)
		var got []int
		ix.Query(q, func(id int, r Rect) bool {
			if r != rects[id] {
				t.Fatalf("Query(%v) passed rect %v for id %d, which is %v", q, r, id, rects[id])
			}
			got = append(got, id)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("bounds %v cell %d pad %d: Query(%v) = %v, brute force %v", bounds, cell, pad, q, got, want)
		}
		for stop := 1; stop < len(want); stop++ {
			got = got[:0]
			ix.Query(q, func(id int, _ Rect) bool {
				got = append(got, id)
				return len(got) < stop
			})
			if !slices.Equal(got, want[:stop]) {
				t.Fatalf("Query(%v) stopped after %d: %v, want %v", q, stop, got, want[:stop])
			}
		}
		for n := 0; n <= len(rects); n++ {
			got = got[:0]
			ix.QueryBefore(q, n, func(id int, _ Rect) bool {
				got = append(got, id)
				return true
			})
			below := slices.DeleteFunc(slices.Clone(want), func(id int) bool { return id >= n })
			if !slices.Equal(got, below) {
				t.Fatalf("QueryBefore(%v, %d) = %v, want %v", q, n, got, below)
			}
		}

		qc := q.Intersect(ix.bounds)
		var pieces []Rect
		for _, r := range rects {
			if r.Overlaps(qc) {
				pieces = append(pieces, r.Intersect(qc))
			}
		}
		if got, want := ix.OverlapArea(q, &buf), UnionArea(pieces); got != want {
			t.Fatalf("OverlapArea(%v) = %d, brute force %d", q, got, want)
		}

		ex := q.Expand(s).Intersect(ix.bounds)
		for _, skip := range []int{-1, 0, len(rects) / 2} {
			want := false
			for id, r := range rects {
				gx, gy := q.Gap(r)
				want = want || id != skip && indexed(ix, r) && !ex.Empty() && r.Overlaps(ex) && gx < s && gy < s
			}
			if got := ix.AnyWithin(q, s, skip); got != want {
				t.Fatalf("AnyWithin(%v, %d, skip %d) = %v, brute force %v", q, s, skip, got, want)
			}
		}
	}
}

// TestIndexMatchesBruteForce checks Query, AnyWithin and OverlapArea
// against brute force on random rects and queries reaching past every
// edge of bounds, with pads, offset bounds and degenerate cells: unit
// cells, the default, cells wider than bounds, and empty bounds.
func TestIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rects := func(x0, y0, w int64, n int) []Rect {
		out := make([]Rect, n)
		for i := range out {
			xl, yl := x0-w/4+rng.Int63n(w+w/2), y0-w/4+rng.Int63n(w+w/2)
			out[i] = R(xl, yl, xl+rng.Int63n(w/3), yl+rng.Int63n(w/3))
		}
		return out
	}
	for trial := range 300 {
		x0, y0 := rng.Int63n(200)-100, rng.Int63n(200)-100
		w := int64(8 + rng.Intn(120))
		bounds := R(x0, y0, x0+w, y0+w-rng.Int63n(w/2))
		var cell int64
		switch trial % 5 {
		case 1:
			cell = 1
		case 2:
			cell = 1 + rng.Int63n(w/2)
		case 3:
			cell = w + rng.Int63n(3*w)
		case 4:
			if trial%10 == 4 {
				bounds = Rect{}
			}
		}
		rs := rects(x0, y0, w, rng.Intn(60))
		rs = append(rs, bounds, Rect{}, R(x0-3*w, y0-3*w, x0-2*w, y0-2*w))
		checkIndex(t, bounds, cell, rs, rng.Int63n(6), append(rects(x0, y0, w, 20), bounds), rng.Int63n(8))
	}
}

// FuzzIndexQuery checks Query, AnyWithin and OverlapArea against brute
// force on fuzzed bounds, cells, pads, rects and queries.
func FuzzIndexQuery(f *testing.F) {
	f.Add(int64(0), int64(0), int64(100), int64(80), int64(10), int64(2), int64(3), []byte{5, 5, 20, 10, 0, 0, 200, 200, 40, 40, 60, 60})
	f.Add(int64(-7), int64(3), int64(9), int64(40), int64(0), int64(0), int64(0), []byte{0, 0, 0, 0, 255, 1, 1, 255, 30, 30, 4, 4})
	f.Fuzz(func(t *testing.T, x0, y0, w, h, cell, pad, s int64, data []byte) {
		// Keep the index small: a few thousand cells at most.
		x0, y0 = x0%1000, y0%1000
		w, h, cell = mod(w, 200), mod(h, 200), mod(cell, 60)
		if cell > 0 && (w/cell+1)*(h/cell+1) > 4096 {
			return
		}
		bounds := R(x0, y0, x0+w, y0+h)
		// Byte coordinates centred on bounds reach past every edge; odd
		// records are queries, even ones indexed rects, 64 of each at most.
		var rects, qs []Rect
		for ; len(data) >= 4 && len(rects)+len(qs) < 128; data = data[4:] {
			xl, yl := x0+int64(data[0])-28, y0+int64(data[1])-28
			r := R(xl, yl, xl+int64(data[2])-8, yl+int64(data[3])-8)
			if len(data)%8 < 4 {
				qs = append(qs, r)
			} else {
				rects = append(rects, r)
			}
		}
		checkIndex(t, bounds, cell, rects, mod(pad, 30), qs, mod(s, 20))
	})
}

// mod returns v modulo m in [0, m).
func mod(v, m int64) int64 {
	if v %= m; v < 0 {
		v += m
	}
	return v
}

// TestIndexConcurrentQueries queries one Index from 8 goroutines at once;
// run under -race it checks that queries share no state, and each
// goroutine must see the serial answers.
func TestIndexConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rects := make([]Rect, 400)
	for i := range rects {
		xl, yl := rng.Int63n(1000), rng.Int63n(1000)
		rects[i] = R(xl, yl, xl+1+rng.Int63n(120), yl+1+rng.Int63n(120))
	}
	ix := NewIndex(R(0, 0, 1000, 1000), 0, rects, 0)
	type answer struct {
		ids    []int
		area   int64
		within bool
	}
	ask := func(q Rect, buf *[]Rect) answer {
		var a answer
		ix.Query(q, func(id int, _ Rect) bool {
			a.ids = append(a.ids, id)
			return true
		})
		a.area = ix.OverlapArea(q, buf)
		a.within = ix.AnyWithin(q, 7, -1)
		return a
	}
	qs := make([]Rect, 200)
	want := make([]answer, len(qs))
	var buf []Rect
	for i := range qs {
		xl, yl := rng.Int63n(1000), rng.Int63n(1000)
		qs[i] = R(xl, yl, xl+1+rng.Int63n(200), yl+1+rng.Int63n(200))
		want[i] = ask(qs[i], &buf)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Rect
			for i := range qs {
				i := (i + g*25) % len(qs)
				a := ask(qs[i], &buf)
				if !slices.Equal(a.ids, want[i].ids) || a.area != want[i].area || a.within != want[i].within {
					t.Errorf("goroutine %d query %v: %+v, serial %+v", g, qs[i], a, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIndexQueryAllocs guards the query paths: Query, AnyWithin and
// OverlapArea with a reused buffer allocate nothing.
func TestIndexQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	ix := NewIndex(R(0, 0, 100, 100), 10, []Rect{R(0, 0, 50, 50), R(40, 40, 100, 90), R(10, 60, 30, 80)}, 0)
	q := R(5, 5, 70, 70)
	n := 0
	if a := testing.AllocsPerRun(200, func() {
		ix.Query(q, func(int, Rect) bool { n++; return true })
	}); a != 0 {
		t.Fatalf("Index.Query allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { ix.AnyWithin(q, 3, 1) }); a != 0 {
		t.Fatalf("Index.AnyWithin allocates %.1f per call, want 0", a)
	}
	var buf []Rect
	ix.OverlapArea(q, &buf)
	if a := testing.AllocsPerRun(200, func() { ix.OverlapArea(q, &buf) }); a != 0 {
		t.Fatalf("Index.OverlapArea allocates %.1f per call with a reused buffer, want 0", a)
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
