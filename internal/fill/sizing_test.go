package fill

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"dummyfill/internal/dlp"
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
			cs := new(candScratch)
			for k := range wins {
				w := &wins[k]
				w.selectCandidates(lay, dt, 1, cs)
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

// sizingDesigns returns tiny and s, the designs whose every sizing LP the
// closed-form cross-checks cover.
func sizingDesigns(t *testing.T) []*layout.Layout {
	t.Helper()
	s, err := synth.Generate(synth.DesignS())
	if err != nil {
		t.Fatal(err)
	}
	return []*layout.Layout{tinyLayout(t), s}
}

// TestPairsMatchesSSPOnSizingLPs solves every sizing LP of tiny and s
// with the closed-form dlp.NewPairs and with both dual min-cost-flow
// solvers. The solution must equal dlp.ViaSSP's exactly: the closed form
// picks the same vertex as SSP among degenerate optima, which keeps the
// default engine's output byte-identical to an SSP-sized run. The
// objective must also equal dlp.ViaNetworkSimplex's.
func TestPairsMatchesSSPOnSizingLPs(t *testing.T) {
	for _, lay := range sizingDesigns(t) {
		var solved, mismatched atomic.Int64
		opts := DefaultOptions()
		opts.NewSolver = func() dlp.PSolver {
			pairs := dlp.NewPairs()
			return func(ctx context.Context, p *dlp.Problem) ([]int64, int64, error) {
				want, wantObj, wantErr := dlp.ViaSSP(ctx, p)
				_, nsObj, nsErr := dlp.ViaNetworkSimplex(ctx, p)
				x, obj, err := pairs(ctx, p)
				solved.Add(1)
				if err != nil || wantErr != nil || nsErr != nil || obj != wantObj || obj != nsObj || !slices.Equal(x, want) {
					if mismatched.Add(1) <= 3 {
						t.Errorf("%s: %d-variable LP: pairs x=%v obj=%d err=%v, SSP x=%v obj=%d err=%v, network simplex obj=%d err=%v",
							lay.Name, p.N(), x, obj, err, want, wantObj, wantErr, nsObj, nsErr)
					}
				}
				return x, obj, err
			}
		}
		e, err := New(lay, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Health.Healthy() {
			t.Fatalf("%s: run not healthy: %s", lay.Name, res.Health)
		}
		if solved.Load() == 0 {
			t.Fatalf("%s: no sizing LP reached the solver", lay.Name)
		}
		if n := mismatched.Load(); n > 0 {
			t.Fatalf("%s: %d of %d sizing LPs differ", lay.Name, n, solved.Load())
		}
		t.Logf("%s: %d sizing LPs identical", lay.Name, solved.Load())
	}
}

// deterministicHealth is h without its wall-clock and scheduling
// dependent fields.
func deterministicHealth(h Health) Health {
	h.BudgetExceeded, h.Elapsed, h.PeakInFlight, h.CacheErrors = false, 0, 0, 0
	return h
}

// TestDefaultSolverMatchesWarmSSP runs the engine with its default
// closed-form solver and with dlp.NewWarmSSP on tiny and s at Workers 1
// and 4: fills and the deterministic Health fields must be identical, so
// a run that installs the SSP solver (for example to time it) emits the
// same bytes as a default run.
func TestDefaultSolverMatchesWarmSSP(t *testing.T) {
	for _, lay := range sizingDesigns(t) {
		for _, workers := range []int{1, 4} {
			run := func(newSolver func() dlp.PSolver) *Result {
				opts := DefaultOptions()
				opts.Workers = workers
				if newSolver != nil {
					opts.NewSolver = newSolver
				}
				e, err := New(lay, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			def, ssp := run(nil), run(dlp.NewWarmSSP)
			label := fmt.Sprintf("%s workers=%d", lay.Name, workers)
			if len(def.Solution.Fills) == 0 {
				t.Fatalf("%s: no fills", label)
			}
			sameFills(t, ssp.Solution.Fills, def.Solution.Fills, label)
			if dh, sh := deterministicHealth(def.Health), deterministicHealth(ssp.Health); dh != sh {
				t.Fatalf("%s: health %s (default) vs %s (WarmSSP)", label, dh, sh)
			}
		}
	}
}
