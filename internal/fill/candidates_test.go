package fill

import (
	"context"
	"testing"

	"dummyfill/internal/synth"
)

// TestPass2SteadyStateAllocs guards candidate generation's pass 2: once
// a worker's scratch has grown on a window, pass 2 allocates nothing.
// Each run resets the window's selection to pass 1's prefix, so the
// selected cells reuse their own storage too. It runs on the first 40
// windows of design b at two target densities, which between them take
// both the zero-overlay case and the grid case, on vertical and
// horizontal pieces (skipped under -short).
func TestPass2SteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	if testing.Short() {
		t.Skip("design b")
	}
	lay, err := synth.Generate(synth.DesignB())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(lay, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wins, err := e.prepareWindows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	nl := len(lay.Layers)
	cs := new(candScratch)
	var zeroOverlay, grid, vertical int
	for _, d := range []float64{0.2, 0.7} {
		dt := make([]float64, nl)
		for l := range dt {
			dt[l] = d
		}
		for _, w := range wins[:40] {
			w.pass1(lay, dt, 1, cs)
			n := len(w.sel)
			if a := testing.AllocsPerRun(3, func() {
				w.sel = w.sel[:n]
				w.pass2(lay, dt, 1, cs)
			}); a != 0 {
				t.Fatalf("window %v at density %v: pass 2 allocates %.1f per run, want 0", w.rect, d, a)
			}
			for _, c := range w.sel[n:] {
				if c.quality >= 1 {
					zeroOverlay++
				} else {
					grid++
				}
			}
			for l := 1; l < nl; l += 2 {
				for _, fr := range w.layers[l].free {
					if fr.H() > fr.W() {
						vertical++
					}
				}
			}
		}
	}
	if zeroOverlay == 0 || grid == 0 || vertical == 0 {
		t.Fatalf("exercised %d zero-overlay cells, %d grid cells and %d vertical pieces; want each above 0", zeroOverlay, grid, vertical)
	}
}
