package synth

import (
	"fmt"
	"math"
	"math/rand"

	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
	"dummyfill/internal/layout"
)

// PerturbECO applies an engineering-change-order style edit to a
// synth-generated layout: a localized patch covering roughly frac of the
// fill windows is picked, every wire lying strictly inside the patch is
// jittered by a few DBU, and the feasible fill regions of the affected
// layers are re-extracted. The perturbation is built so that incremental
// re-fill invalidates only the patch:
//
//   - Only wires whose keepout expansion (plus the maximum jitter) lies
//     inside the patch move, so no window outside the patch sees a
//     different wire clip or free region — those windows hash to the same
//     fill-cache key and replay.
//   - Jitter is pure translation (wire areas are preserved) and the patch
//     placement avoids the windows that pin the density planner's
//     candidate range (the global max-lower / min-upper windows). That
//     keeps the planned target densities bit-identical for many edits,
//     but not for all: the edit still changes free regions and the
//     planning weights, which can shift a target. On design b a 2% edit
//     shifted a target, and so missed the cache in every window, for 4
//     of 12 seeds. Callers that need cache hits must check the outcome
//     (Health.CacheHits) rather than assume it.
//
// Free regions are re-derived with the same extractor Generate uses, so
// the untouched-window guarantee holds for synth layouts (whose
// FillRegions came from that extractor); for foreign layouts the edit is
// still valid but untouched windows may not replay.
//
// The same (layout, frac, seed) always yields the same perturbed layout.
// It returns the perturbed copy (the input is not modified) and the
// number of wires moved.
func PerturbECO(lay *layout.Layout, frac float64, seed int64) (*layout.Layout, int, error) {
	if frac <= 0 || frac > 1 {
		return nil, 0, fmt.Errorf("synth: eco fraction %v outside (0, 1]", frac)
	}
	g, err := lay.Grid()
	if err != nil {
		return nil, 0, err
	}
	nx, ny := g.NX, g.NY
	target := frac * float64(nx*ny)
	pw := int(math.Round(math.Sqrt(target)))
	if pw < 1 {
		pw = 1
	}
	if pw > nx {
		pw = nx
	}
	ph := int(math.Round(target / float64(pw)))
	if ph < 1 {
		ph = 1
	}
	if ph > ny {
		ph = ny
	}

	rng := rand.New(rand.NewSource(seed))
	hot := hotWindows(lay, g)
	i0, j0 := placePatch(g, pw, ph, hot, rng)
	lo := g.Window(i0, j0)
	hi := g.Window(i0+pw-1, j0+ph-1)
	patch := geom.R(lo.XL, lo.YL, hi.XH, hi.YH)

	// A wire may move only if its keepout halo stays inside the patch for
	// every possible shift; then windows outside the patch see exactly the
	// same geometry before and after.
	maxShift := 2 * lay.Rules.MinSpace
	if maxShift < 1 {
		maxShift = 1
	}
	inner := patch.Expand(-(lay.Rules.MinSpace + maxShift))

	eco := &layout.Layout{
		Name:   lay.Name,
		Die:    lay.Die,
		Window: lay.Window,
		Rules:  lay.Rules,
		Layers: make([]*layout.Layer, len(lay.Layers)),
	}
	changed := 0
	for li, layer := range lay.Layers {
		wires := make([]geom.Rect, len(layer.Wires))
		copy(wires, layer.Wires)
		mutated := false
		if !inner.Empty() {
			for wi, wr := range wires {
				if !inner.ContainsRect(wr) {
					continue
				}
				dx := rng.Int63n(2*maxShift+1) - maxShift
				dy := rng.Int63n(2*maxShift+1) - maxShift
				if dx == 0 && dy == 0 {
					continue
				}
				wires[wi] = wr.Translate(dx, dy)
				changed++
				mutated = true
			}
		}
		nl := &layout.Layer{Wires: wires}
		if mutated {
			// Re-extract window by window, exactly as Generate does: the
			// windows whose wires did not move reproduce their original
			// free pieces bit-for-bit, in the same order.
			nl.FillRegions = freeRegions(g, wires, lay.Rules, li%2 == 1)
		} else {
			nl.FillRegions = append([]geom.Rect(nil), layer.FillRegions...)
		}
		eco.Layers[li] = nl
	}
	if err := eco.Validate(); err != nil {
		return nil, 0, fmt.Errorf("synth: eco perturbation produced invalid layout: %v", err)
	}
	return eco, changed, nil
}

// hotWindows flags the windows that pin the density planner's candidate
// range on any layer: those at (or within tolerance of) the layer's
// maximum wire density or minimum achievable density. Moving wires there
// would shift the planner's search grid and drift the target densities,
// staling every cached window instead of just the patch.
func hotWindows(lay *layout.Layout, g *grid.Grid) []bool {
	const tol = 0.02
	nw := g.NumWindows()
	hot := make([]bool, nw)
	upper := make([]float64, nw)
	for li := range lay.Layers {
		wd := lay.WireDensityMap(g, li)
		fa := lay.FillRegionAreaMap(g, li)
		maxLower, minUpper := math.Inf(-1), math.Inf(1)
		for k := 0; k < nw; k++ {
			aw := float64(g.Window(k%g.NX, k/g.NX).Area())
			upper[k] = wd.V[k]
			if aw > 0 {
				upper[k] += fa.V[k] / aw
			}
			if wd.V[k] > maxLower {
				maxLower = wd.V[k]
			}
			if upper[k] < minUpper {
				minUpper = upper[k]
			}
		}
		for k := 0; k < nw; k++ {
			if wd.V[k] > maxLower-tol || upper[k] < minUpper+tol {
				hot[k] = true
			}
		}
	}
	return hot
}

// placePatch picks a pw×ph window-block origin avoiding hot windows: a
// bounded number of seeded random placements are scored by how many hot
// windows they cover and the first fully-cold one wins (fewest-hot
// otherwise). Deterministic for a given rng state.
func placePatch(g *grid.Grid, pw, ph int, hot []bool, rng *rand.Rand) (i0, j0 int) {
	bestI, bestJ, bestScore := 0, 0, math.MaxInt
	for try := 0; try < 128; try++ {
		ci, cj := 0, 0
		if g.NX > pw {
			ci = rng.Intn(g.NX - pw + 1)
		}
		if g.NY > ph {
			cj = rng.Intn(g.NY - ph + 1)
		}
		score := 0
		for j := cj; j < cj+ph; j++ {
			for i := ci; i < ci+pw; i++ {
				if hot[j*g.NX+i] {
					score++
				}
			}
		}
		if score < bestScore {
			bestI, bestJ, bestScore = ci, cj, score
		}
		if bestScore == 0 {
			break
		}
	}
	return bestI, bestJ
}
