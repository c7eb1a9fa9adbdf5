package layout_test

import (
	"runtime"
	"testing"

	"dummyfill/internal/layout"
	"dummyfill/internal/synth"
)

// maxValidateAllocPerShape caps Layout.Validate's allocation per wire
// and fill region on rowDesign16. Building the static index (one
// concatenated rect slice, exact-size bins, no query stamps) costs about
// 43 B per shape; an index grown insert by insert cost about 243, one
// with reserved rects and stamps about 65, and one with reserved rects,
// stamps and bins about 53.
const maxValidateAllocPerShape = 60

// rowDesign16 generates the row design scaled 16× per side: 800 rows of
// 9600 sites, 25,600 windows, one layer of wires and fill regions.
func rowDesign16(tb testing.TB) *layout.Layout {
	tb.Helper()
	sp := synth.DesignRow()
	const k = 16
	sg := *sp.Sites
	sg.Rows, sg.Sites = sg.Rows*k, sg.Sites*k
	sp.Sites, sp.DieSize = &sg, sp.DieSize*k
	lay, err := synth.Generate(sp)
	if err != nil {
		tb.Fatal(err)
	}
	return lay
}

func numRects(lay *layout.Layout) int {
	n := 0
	for _, l := range lay.Layers {
		n += len(l.Wires) + len(l.FillRegions)
	}
	return n
}

// TestValidateAllocPerShape guards Validate's index storage: validating
// a large layout must size its rect and bin storage exactly, once.
func TestValidateAllocPerShape(t *testing.T) {
	if testing.Short() {
		// The race detector, which CI runs with -short, makes Validate's
		// query closures allocate.
		t.Skip("alloc bound on the scaled row design skipped under -short")
	}
	lay := rowDesign16(t)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := lay.Validate()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n := numRects(lay)
	perShape := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%d wires and fill regions: Validate allocated %.1f B per shape", n, perShape)
	if perShape > maxValidateAllocPerShape {
		t.Fatalf("Validate allocated %.1f B per shape, want ≤ %d", perShape, maxValidateAllocPerShape)
	}
}

// BenchmarkValidateRowDesign times one Validate of rowDesign16.
func BenchmarkValidateRowDesign(b *testing.B) {
	lay := rowDesign16(b)
	b.ReportMetric(float64(numRects(lay)), "shapes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lay.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
