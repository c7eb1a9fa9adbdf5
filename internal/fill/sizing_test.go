package fill

import (
	"math/rand"
	"slices"
	"testing"

	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

// bruteCrowdedPairs is the all-pairs reference for crowdedPairs: every
// same-layer pair i < j closer than minSpace in both axes, in ascending
// (i, j) order.
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

// TestCrowdedPairsMatchesBruteForce builds crowded windows by hand —
// same-layer cells on a pitch tighter than MinSpace, jittered, some
// touching or hanging over the window edge — and checks the index-backed
// neighbour list, and the conflicted marks derived from it, against the
// all-pairs scan. One scratch serves every window, so reuse is covered.
func TestCrowdedPairsMatchesBruteForce(t *testing.T) {
	rules := testRules() // MinSpace 4
	win := geom.R(0, 0, 200, 200)
	rng := rand.New(rand.NewSource(3))
	sc := &sizeScratch{}
	total := 0
	for trial := 0; trial < 30; trial++ {
		nl := 1 + rng.Intn(3)
		var cells []cell
		for l := 0; l < nl; l++ {
			pitch := int64(10 + rng.Intn(8)) // cells are 8 wide: gaps 2..9
			for y := int64(-4); y < 200; y += pitch {
				for x := int64(-4); x < 200; x += pitch {
					if rng.Intn(3) == 0 {
						continue
					}
					dx, dy := int64(rng.Intn(3)-1), int64(rng.Intn(3)-1)
					cells = append(cells, cell{rect: geom.R(x+dx, y+dy, x+dx+8, y+dy+8), layer: l})
				}
			}
		}
		rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })

		sc.indexCells(cells, nl, win)
		got := sc.crowdedPairs(cells, rules.MinSpace)
		want := bruteCrowdedPairs(cells, rules.MinSpace)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: %d pairs from the index, %d from the scan", trial, len(got), len(want))
		}
		marked := make([]bool, len(cells))
		for _, p := range want {
			marked[p.i], marked[p.j] = true, true
		}
		if !slices.Equal(sc.conflicted, marked) {
			t.Fatalf("trial %d: conflicted marks differ from the scan", trial)
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("no crowded pairs generated")
	}
}

// allPairsNoShrink is the all-pairs reference for noShrinkCells'
// legalization of already pruned cells: for i ascending, each later
// same-layer cell closer than MinSpace loses unless it has the higher
// quality, in which case cell i loses and stops scanning.
func allPairsNoShrink(cells []cell, rules layout.Rules) []cell {
	drop := make([]bool, len(cells))
	for i := range cells {
		if drop[i] {
			continue
		}
		for j := i + 1; j < len(cells); j++ {
			if drop[j] || cells[i].layer != cells[j].layer {
				continue
			}
			if gx, gy := cells[i].rect.Gap(cells[j].rect); gx < rules.MinSpace && gy < rules.MinSpace {
				if cells[j].quality <= cells[i].quality {
					drop[j] = true
				} else {
					drop[i] = true
					break
				}
			}
		}
	}
	var out []cell
	for i, c := range cells {
		r := c.rect
		if !drop[i] && r.W() >= rules.MinWidth && r.H() >= rules.MinWidth && r.Area() >= rules.MinArea {
			out = append(out, c)
		}
	}
	return out
}

// TestNoShrinkCellsMatchesAllPairs feeds noShrinkCells crowded and
// overlapping candidate sets — random sizes (some below the minimum),
// positions that collide or hang over the window edge, and qualities drawn
// from a few values so ties are common — and checks the surviving cells
// against the all-pairs reference applied after the same pruning.
func TestNoShrinkCellsMatchesAllPairs(t *testing.T) {
	rules := testRules()
	rng := rand.New(rand.NewSource(5))
	sc := &sizeScratch{}
	dropped := 0
	for trial := 0; trial < 40; trial++ {
		nl := 1 + rng.Intn(3)
		lay := &layout.Layout{Rules: rules, Layers: make([]*layout.Layer, nl)}
		e := &Engine{lay: lay}
		w := &window{rect: geom.R(0, 0, 120, 120), layers: make([]winLayer, nl)}
		for n := 20 + rng.Intn(60); n > 0; n-- {
			x, y := int64(rng.Intn(130)-5), int64(rng.Intn(130)-5)
			cw, ch := int64(2+rng.Intn(20)), int64(2+rng.Intn(20))
			w.sel = append(w.sel, cell{
				rect:    geom.R(x, y, x+cw, y+ch),
				layer:   rng.Intn(nl),
				quality: float64(rng.Intn(3)),
			})
		}
		targets := make([]int64, nl)
		for l := range targets {
			targets[l] = int64(rng.Intn(12000))
		}

		pruned := pruneSurplus(slices.Clone(w.sel), targets, nl)
		want := allPairsNoShrink(pruned, rules)
		got := e.noShrinkCells(w, targets, sc)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: %d cells kept, want %d", trial, len(got), len(want))
		}
		dropped += len(pruned) - len(want)
	}
	if dropped == 0 {
		t.Fatal("no conflicts generated")
	}
}
