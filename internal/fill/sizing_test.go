package fill

import (
	"context"
	"testing"

	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
	"dummyfill/internal/synth"
)

// cellPair is two same-layer cells i < j closer than MinSpace in both
// axes.
type cellPair struct{ i, j int }

// bruteCrowdedPairs is the all-pairs spacing scan: every same-layer pair
// i < j closer than minSpace in both axes, in ascending (i, j) order.
func bruteCrowdedPairs(cells []cell, minSpace int64) []cellPair {
	var out []cellPair
	for i := range cells {
		for j := i + 1; j < len(cells); j++ {
			if cells[i].layer != cells[j].layer {
				continue
			}
			if gx, gy := cells[i].rect.Gap(cells[j].rect); gx < minSpace && gy < minSpace {
				out = append(out, cellPair{i, j})
			}
		}
	}
	return out
}

// abuttingRegionsLayout is a three-layer layout whose fill regions abut
// each other, inside windows and across window borders, under an odd
// MinSpace: the case where half-spacing insets must round up.
func abuttingRegionsLayout() *layout.Layout {
	return &layout.Layout{
		Name:   "abut",
		Die:    geom.R(0, 0, 200, 200),
		Window: 50,
		Rules:  layout.Rules{MinWidth: 2, MinSpace: 3, MinArea: 4, MaxFillDim: 20},
		Layers: []*layout.Layer{
			{
				Wires: []geom.Rect{geom.R(0, 0, 30, 200)},
				FillRegions: []geom.Rect{
					geom.R(33, 0, 120, 200), geom.R(120, 0, 200, 90), geom.R(120, 90, 200, 200),
				},
			},
			{
				Wires: []geom.Rect{geom.R(0, 100, 200, 130)},
				FillRegions: []geom.Rect{
					geom.R(0, 0, 77, 97), geom.R(77, 0, 200, 97), geom.R(0, 133, 100, 200), geom.R(100, 133, 200, 200),
				},
			},
			{
				Wires:       []geom.Rect{geom.R(170, 0, 200, 200)},
				FillRegions: []geom.Rect{geom.R(0, 0, 51, 200), geom.R(51, 0, 167, 200)},
			},
		},
	}
}

// TestSelectedCandidatesKeepSpacing asserts the invariant that carries the
// spacing rule, which the sizing LP no longer encodes: Alg. 1's selection
// is pairwise legal on every layer, at any target density. The selections
// of tiny and the abutting-region layout are checked as a whole, so pairs
// that straddle a window border count too; s is checked window by window.
func TestSelectedCandidatesKeepSpacing(t *testing.T) {
	s, err := synth.Generate(synth.DesignS())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lay       *layout.Layout
		perWindow bool
	}{
		{abuttingRegionsLayout(), false},
		{tinyLayout(t), false},
		{s, true},
	} {
		lay := tc.lay
		if err := lay.Validate(); err != nil {
			t.Fatalf("%s: %v", lay.Name, err)
		}
		e, err := New(lay, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		nl := len(lay.Layers)
		for _, d := range []float64{0.3, 0.6, 1} {
			wins, err := e.prepareWindows(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			dt := make([]float64, nl)
			for l := range dt {
				dt[l] = d
			}
			var groups [][]cell
			var all []cell
			for _, w := range wins {
				w.selectCandidates(lay, dt, 1)
				if tc.perWindow {
					groups = append(groups, w.sel)
				} else {
					all = append(all, w.sel...)
				}
			}
			if !tc.perWindow {
				if len(all) == 0 {
					t.Fatalf("%s at density %v: nothing selected", lay.Name, d)
				}
				groups = [][]cell{all}
			}
			for _, cells := range groups {
				if pairs := bruteCrowdedPairs(cells, lay.Rules.MinSpace); len(pairs) > 0 {
					p := pairs[0]
					t.Fatalf("%s at density %v: %d selected pairs closer than MinSpace %d, first %v vs %v on layer %d",
						lay.Name, d, len(pairs), lay.Rules.MinSpace, cells[p.i].rect, cells[p.j].rect, cells[p.i].layer)
				}
			}
		}
	}
}
