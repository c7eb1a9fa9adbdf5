package fill

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dummyfill/internal/dlp"
	"dummyfill/internal/geom"
	"dummyfill/internal/ingest"
	"dummyfill/internal/layout"
	"dummyfill/internal/synth"
)

// oracleOverlay is the overlay model that candidate generation and sizing
// used before their coverage tables. Per layer, a geom.Index holds the
// cells and is summed intersection by intersection, which is exact only
// while a layer's cells are pairwise disjoint, and a separate AreaTable
// holds the wire clips alone.
type oracleOverlay struct {
	fills []*geom.Index
	wires []geom.AreaTable
}

// newOracleOverlay builds the window's wire tables, one per layer.
func newOracleOverlay(w *window, lay *layout.Layout) *oracleOverlay {
	nl := len(lay.Layers)
	o := &oracleOverlay{fills: make([]*geom.Index, nl), wires: make([]geom.AreaTable, nl)}
	var clips []geom.Rect
	for l := range nl {
		clips = w.wireClips(clips, lay, l)
		o.wires[l].Build(clips)
	}
	return o
}

// index replaces the cell indexes with fresh ones over cells.
func (o *oracleOverlay) index(w *window, cells []cell) {
	rects := make([][]geom.Rect, len(o.fills))
	for _, c := range cells {
		rects[c.layer] = append(rects[c.layer], c.rect)
	}
	for l := range o.fills {
		o.fills[l] = geom.NewIndex(w.rect, 0, rects[l], 0)
	}
}

// layer returns the area of q that layer l's cells and wires cover.
func (o *oracleOverlay) layer(l int, q geom.Rect) int64 {
	var a int64
	o.fills[l].Query(q, func(_ int, r geom.Rect) bool {
		a += r.Intersect(q).Area()
		return true
	})
	return a + o.wires[l].OverlapArea(q)
}

// overlay returns the overlay of q, on layer l, with the layers below and
// above it.
func (o *oracleOverlay) overlay(l int, q geom.Rect) int64 {
	var a int64
	if l > 0 {
		a += o.layer(l-1, q)
	}
	if l+1 < len(o.fills) {
		a += o.layer(l+1, q)
	}
	return a
}

// oracleHoles is pass 2's old hole list for layer l: each neighbour's
// selected cells, then its wire clips.
func oracleHoles(w *window, lay *layout.Layout, l int) []geom.Rect {
	var holes []geom.Rect
	for _, n := range []int{l - 1, l + 1} {
		if n >= len(lay.Layers) {
			continue
		}
		for _, c := range w.sel {
			if c.layer == n {
				holes = append(holes, c.rect)
			}
		}
		holes = append(holes, w.wireClips(nil, lay, n)...)
	}
	return holes
}

// sortedRects returns rs sorted by (XL, YL, XH, YH).
func sortedRects(rs []geom.Rect) []geom.Rect {
	rs = slices.Clone(rs)
	slices.SortFunc(rs, func(a, b geom.Rect) int {
		return cmp.Or(cmp.Compare(a.XL, b.XL), cmp.Compare(a.YL, b.YL), cmp.Compare(a.XH, b.XH), cmp.Compare(a.YH, b.YH))
	})
	return rs
}

// transposedOverlay is the overlay pass 2 reads for a grid cell r of
// pass-2 layer l: the transposed query on the neighbours' transposed
// tables.
func transposedOverlay(cs *candScratch, l int, r geom.Rect) int64 {
	rT := r.Transpose()
	ov := cs.covT[l-1].OverlapArea(rT)
	if l+1 < len(cs.covT) {
		ov += cs.covT[l+1].OverlapArea(rT)
	}
	return ov
}

// checkOverlayOracle runs candidate generation and sizing on every window
// of lay at each uniform target density in dts. It compares the coverage
// tables against oracleOverlay value for value: for every grid cell of
// every pass-2 layer, as the transposed query pass 2 makes and on the
// untransposed tables built on demand, and for every cell of every
// sizing pass, which sizing carries over while no neighbour moved. It also
// checks that the neighbour lists pass 2's tables are built over are the
// old hole list up to order, which geom.Difference does not depend on,
// and that Region 3 read from the tables is, slab for slab, the per-piece
// geom.Difference over those lists that pass 2 used to run.
func checkOverlayOracle(t *testing.T, lay *layout.Layout, dts []float64) {
	t.Helper()
	opts := DefaultOptions()
	e, err := New(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	nl := len(lay.Layers)
	cs := new(candScratch)
	sc := new(sizeScratch)
	var w *window
	var o *oracleOverlay
	var passes, checked int
	var mismatch error
	// The solver sees each pass after its overlays are in sc.ov and
	// before any cell moves. Pruning filters sc.cells in place, so the
	// pass's n cells are sc.cells[:n].
	pairsSolver := dlp.NewPairs()
	solve := func(ctx context.Context, p *dlp.Problem) ([]int64, int64, error) {
		cells := sc.cells[:p.N()/2]
		o.index(w, cells)
		for i, c := range cells {
			if want := o.overlay(c.layer, c.rect); sc.ov[i] != want && mismatch == nil {
				mismatch = fmt.Errorf("window %v sizing pass %d: cell %v on layer %d has overlay %d, oracle %d",
					w.rect, passes, c.rect, c.layer, sc.ov[i], want)
			}
		}
		passes++
		return pairsSolver(ctx, p)
	}
	for _, d := range dts {
		wins, err := e.prepareWindows(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		dt := make([]float64, nl)
		for l := range dt {
			dt[l] = d
		}
		for k := range wins {
			w = &wins[k]
			w.selectCandidates(lay, dt, 1, cs)
			o = newOracleOverlay(w, lay)
			o.index(w, w.sel)
			for l := 1; l < nl; l += 2 {
				holes := cs.shapes[l-1]
				if l+1 < nl {
					holes = slices.Concat(holes, cs.shapes[l+1])
				}
				if got, want := sortedRects(holes), sortedRects(oracleHoles(w, lay, l)); !slices.Equal(got, want) {
					t.Fatalf("window %v layer %d: pass-2 holes %v, old hole list %v", w.rect, l, got, want)
				}
				for _, fr := range w.layers[l].free {
					checked++
					got := cs.region3(nil, fr, l)
					if want := geom.Difference(nil, fr, holes, fr.H() > fr.W()); !slices.Equal(got, want) {
						t.Fatalf("window %v layer %d piece %v: Region 3 from the tables %v, per-piece Difference %v", w.rect, l, fr, got, want)
					}
					for _, c := range appendCells(nil, fr, l, lay.Rules) {
						want := o.overlay(l, c.rect)
						if got := transposedOverlay(cs, l, c.rect); got != want {
							t.Fatalf("window %v layer %d grid cell %v: overlay %d from the transposed tables, oracle %d", w.rect, l, c.rect, got, want)
						}
						got := cs.horizontal(l - 1).OverlapArea(c.rect)
						if l+1 < nl {
							got += cs.horizontal(l + 1).OverlapArea(c.rect)
						}
						if got != want {
							t.Fatalf("window %v layer %d grid cell %v: overlay %d from the horizontal tables, oracle %d", w.rect, l, c.rect, got, want)
						}
					}
				}
			}
			targets := e.windowTargets(w, dt, sc)
			for l := range targets {
				targets[l] = targets[l] * 3 / 4 // leave a surplus to shrink
			}
			if _, err := sizeWindowWith(context.Background(), w, lay, targets, opts, sc, solve); err != nil {
				t.Fatal(err)
			}
			if mismatch != nil {
				t.Fatal(mismatch)
			}
		}
	}
	if passes == 0 || checked == 0 {
		t.Fatalf("%s: %d sizing passes and %d free pieces checked", lay.Name, passes, checked)
	}
}

// TestOverlayTablesMatchOracle checks the coverage tables of candidate
// generation and sizing against the old disjoint-index model, and pass
// 2's Region 3 against the per-piece Difference, on designs tiny, s and b
// (b skipped under -short) and on random layouts.
func TestOverlayTablesMatchOracle(t *testing.T) {
	specs := []synth.Spec{synth.DesignTiny(), synth.DesignS(), synth.DesignB()}
	for _, sp := range specs {
		if testing.Short() && sp.Name == "b" {
			continue
		}
		lay, err := synth.Generate(sp)
		if err != nil {
			t.Fatal(err)
		}
		checkOverlayOracle(t, lay, []float64{0.3, 0.6})
	}
	rng := rand.New(rand.NewSource(5))
	for trial := range 20 {
		checkOverlayOracle(t, randomLayout(t, rng, 2+trial%3), []float64{0.2, 0.5, 0.9})
	}
}

// randomLayout is an nl-layer layout on a 400×400 die in 100-unit
// windows, with random wires per layer and the fill regions ingest would
// extract around them.
func randomLayout(t *testing.T, rng *rand.Rand, nl int) *layout.Layout {
	t.Helper()
	lay := &layout.Layout{
		Name:   "random",
		Die:    geom.R(0, 0, 400, 400),
		Window: 100,
		Rules:  layout.Rules{MinWidth: 4, MinSpace: 3, MinArea: 16, MaxFillDim: 30},
	}
	g, err := lay.Grid()
	if err != nil {
		t.Fatal(err)
	}
	for range nl {
		var wires []geom.Rect
		for range 10 + rng.Intn(30) {
			x, y := rng.Int63n(390), rng.Int63n(390)
			r := geom.R(x, y, x+4+rng.Int63n(120), y+4+rng.Int63n(12))
			if rng.Intn(2) == 0 {
				r = geom.R(x, y, x+4+rng.Int63n(12), y+4+rng.Int63n(120))
			}
			wires = append(wires, r.Intersect(lay.Die))
		}
		lay.Layers = append(lay.Layers, &layout.Layer{
			Wires:       wires,
			FillRegions: ingest.ExtractFillRegions(g, wires, lay.Rules, rng.Intn(2) == 0),
		})
	}
	if err := lay.Validate(); err != nil {
		t.Fatal(err)
	}
	return lay
}
