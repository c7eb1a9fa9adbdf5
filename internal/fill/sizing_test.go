package fill

import (
	"math/rand"
	"slices"
	"testing"

	"dummyfill/internal/geom"
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
