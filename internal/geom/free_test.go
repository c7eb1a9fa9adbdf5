package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// transposed returns the transposes of rs.
func transposed(rs []Rect) []Rect {
	out := make([]Rect, len(rs))
	for i, r := range rs {
		out[i] = r.Transpose()
	}
	return out
}

// checkAppendFree fails t unless AppendFree over tables built on as and
// bs returns what Difference returns over as++bs, slab for slab and in
// the same order, in both orientations and with either table first. A
// vertical call builds the tables over the transposed sets, queries the
// transposed window and transposes the slabs back. The tables and
// scratch are the caller's, so repeated calls also check their reuse.
func checkAppendFree(t *testing.T, w Rect, as, bs []Rect, ta, tb *AreaTable, sc *FreeScratch) {
	t.Helper()
	holes := slices.Concat(as, bs)
	sentinel := R(-1, -2, -3, -4)
	for _, vertical := range []bool{false, true} {
		qa, qb, qw := as, bs, w
		if vertical {
			qa, qb, qw = transposed(as), transposed(bs), w.Transpose()
		}
		ta.Build(qa)
		tb.Build(qb)
		want := Difference(nil, w, holes, vertical)
		for _, swap := range []bool{false, true} {
			x, y := ta, tb
			if swap {
				x, y = tb, ta
			}
			got := AppendFree([]Rect{sentinel}, qw, x, y, sc)
			if got[0] != sentinel {
				t.Fatalf("AppendFree overwrote dst[0]: %v", got[0])
			}
			got = got[1:]
			if vertical {
				got = transposed(got)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("AppendFree(%v, A=%v, B=%v, vertical=%v, swap=%v)\n got  %v\n want %v",
					w, as, bs, vertical, swap, got, want)
			}
		}
	}
}

// randFreeCase returns a window from randWindow and its holes split at
// random between two sets. Some draws add a B rect that abuts an A rect
// on its right or top edge, so that intervals from the two tables touch;
// some move the window away from every hole.
func randFreeCase(rng *rand.Rand) (Rect, []Rect, []Rect) {
	w, holes := randWindow(rng)
	var as, bs []Rect
	for _, h := range holes {
		if rng.Intn(2) == 0 {
			as = append(as, h)
		} else {
			bs = append(bs, h)
		}
	}
	if len(as) > 0 && rng.Intn(3) == 0 {
		a := as[rng.Intn(len(as))]
		if rng.Intn(2) == 0 {
			bs = append(bs, R(a.XH, a.YL, a.XH+1+rng.Int63n(20), a.YH))
		} else {
			bs = append(bs, R(a.XL, a.YH, a.XH, a.YH+1+rng.Int63n(20)))
		}
	}
	if rng.Intn(10) == 0 {
		w = R(w.XL+200, w.YL-200, w.XH+200, w.YH-200)
	}
	return w, as, bs
}

// TestAppendFreeMatchesDifference compares AppendFree over two tables
// with Difference over the concatenated sets on random windows, plus
// empty tables, touching intervals across the tables and windows partly
// or wholly outside both.
func TestAppendFreeMatchesDifference(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	var ta, tb AreaTable
	var sc FreeScratch
	rng := rand.New(rand.NewSource(27))
	for it := 0; it < n; it++ {
		w, as, bs := randFreeCase(rng)
		checkAppendFree(t, w, as, bs, &ta, &tb, &sc)
	}
	for _, tc := range []struct {
		w      Rect
		as, bs []Rect
	}{
		{R(0, 0, 10, 10), nil, nil},
		{R(0, 0, 0, 10), []Rect{R(0, 0, 5, 5)}, nil},
		{R(0, 0, 10, 10), nil, []Rect{R(-5, -5, 20, 20)}},
		// Touching across the tables: one full-width covered band.
		{R(0, 0, 10, 10), []Rect{R(0, 2, 5, 6)}, []Rect{R(5, 2, 10, 6)}},
		// Stacked across the tables: one band of equal sets.
		{R(0, 0, 10, 10), []Rect{R(2, 0, 6, 5)}, []Rect{R(2, 5, 6, 10)}},
		// Bands that differ only outside the window merge inside it.
		{R(0, 0, 10, 10), []Rect{R(2, 0, 6, 10), R(20, 0, 30, 4)}, []Rect{R(-9, 3, -5, 7)}},
		// Window partly outside both tables.
		{R(-10, -10, 5, 5), []Rect{R(0, 0, 20, 20)}, []Rect{R(3, -3, 4, 30)}},
	} {
		checkAppendFree(t, tc.w, tc.as, tc.bs, &ta, &tb, &sc)
	}
}

func FuzzAppendFree(f *testing.F) {
	f.Add(int64(0), int64(0), int64(10), int64(10), []byte{3, 3, 4, 4, 0, 7, 3, 2, 4, 1})
	f.Add(int64(-5), int64(2), int64(40), int64(9), []byte{0, 0, 10, 2, 0, 10, 0, 5, 2, 1, 3, 8, 20, 0, 1})
	f.Fuzz(func(t *testing.T, xl, yl, w, h int64, data []byte) {
		// Keep the window's coordinates well inside int64; the rects are
		// bytes relative to it, and each record's fifth byte picks the
		// table it goes to.
		xl, yl = xl%1_000_000, yl%1_000_000
		w, h = w%256, h%256
		window := R(xl, yl, xl+w, yl+h)
		var as, bs []Rect
		for i := 0; i+4 < len(data) && len(as)+len(bs) < 64; i += 5 {
			hx, hy := xl-8+int64(data[i]), yl-8+int64(data[i+1])
			r := R(hx, hy, hx+int64(data[i+2]), hy+int64(data[i+3]))
			if data[i+4]&1 == 0 {
				as = append(as, r)
			} else {
				bs = append(bs, r)
			}
		}
		var ta, tb AreaTable
		checkAppendFree(t, window, as, bs, &ta, &tb, new(FreeScratch))
	})
}

// TestAppendFreeSteadyStateAllocs: once the scratch and dst have grown,
// AppendFree does not allocate.
func TestAppendFreeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	rng := rand.New(rand.NewSource(4))
	var ta, tb AreaTable
	ta.Build(randRects(rng, 200, 900))
	tb.Build(randRects(rng, 200, 900))
	var sc FreeScratch
	w := R(100, 100, 700, 600)
	dst := AppendFree(nil, w, &ta, &tb, &sc)
	if n := testing.AllocsPerRun(100, func() { dst = AppendFree(dst[:0], w, &ta, &tb, &sc) }); n != 0 {
		t.Fatalf("AppendFree allocates %.1f per steady-state call, want 0", n)
	}
}

// BenchmarkAppendFree measures pass 2's free-space query: 100 pieces of
// a 1000×1000 window against two neighbour sets of 200 rects each.
// "tables" reads both sets' prebuilt AreaTables with AppendFree, as
// candidate generation does; "difference" runs Difference over the
// concatenated 400 rects per piece, the per-piece sweep it replaced.
func BenchmarkAppendFree(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	as, bs := randRects(rng, 200, 900), randRects(rng, 200, 900)
	holes := slices.Concat(as, bs)
	pieces := make([]Rect, 100)
	for i := range pieces {
		x, y := rng.Int63n(900), rng.Int63n(900)
		pieces[i] = R(x, y, x+10+rng.Int63n(90), y+10+rng.Int63n(90))
	}
	b.Run("tables", func(b *testing.B) {
		var ta, tb AreaTable
		ta.Build(as)
		tb.Build(bs)
		var sc FreeScratch
		var dst []Rect
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pieces {
				dst = AppendFree(dst[:0], p, &ta, &tb, &sc)
			}
		}
	})
	b.Run("difference", func(b *testing.B) {
		var dst []Rect
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pieces {
				dst = Difference(dst[:0], p, holes, false)
			}
		}
	})
}
