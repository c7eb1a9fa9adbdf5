package density

import (
	"fmt"
	"math"

	"dummyfill/internal/grid"
)

// LayerBounds carries the per-window density bounds of one layer used in
// target density planning: Lower is the existing wire density l(i,j) and
// Upper the achievable density u(i,j) given the feasible fill regions.
type LayerBounds struct {
	Lower, Upper *grid.Map
}

// PlanWeights are the density-score coefficients used as the planning
// objective (the α/β of the variation, line-hotspot and outlier-hotspot
// components of Eqn. 3/4; overlay is deliberately ignored at this stage,
// as in §3.1).
type PlanWeights struct {
	AlphaVar, BetaVar         float64
	AlphaLine, BetaLine       float64
	AlphaOutlier, BetaOutlier float64
}

// F is Eqn. (4): f(x) = max(0, 1 − x/β), the contest's per-metric score.
// A non-positive β yields 0. Planning optimizes it and package score
// reports it.
func F(x, beta float64) float64 {
	if beta <= 0 {
		return 0
	}
	s := 1 - x/beta
	if s < 0 {
		return 0
	}
	return s
}

// Plan is the result of target density planning.
type Plan struct {
	Td    []float64 // one target density per layer
	Score float64   // density score of the realized plan
}

// PlanTargets finds per-layer target densities maximizing the density
// score (§3.1). Case I: when every window of a layer can reach the
// layer's maximum wire density, that value is optimal for the layer
// (perfectly uniform). Case II: otherwise candidate targets between
// max l(k,n) and min u(k,n) are searched with `steps` steps — jointly
// across layers when the combination count is small, by coordinate
// descent otherwise.
func PlanTargets(bounds []LayerBounds, w PlanWeights, steps int) (*Plan, error) {
	nl := len(bounds)
	if nl == 0 {
		return nil, fmt.Errorf("density: no layers to plan")
	}
	if steps < 2 {
		steps = 2
	}
	cands := make([][]float64, nl)
	for l, b := range bounds {
		maxLower := math.Inf(-1)
		minUpper := math.Inf(1)
		for k, lo := range b.Lower.V {
			up := b.Upper.V[k]
			if lo > up+1e-12 {
				return nil, fmt.Errorf("density: layer %d window %d has lower %.4f > upper %.4f", l, k, lo, up)
			}
			if lo > maxLower {
				maxLower = lo
			}
			if up < minUpper {
				minUpper = up
			}
		}
		if maxLower <= minUpper {
			// Case I: td = max wire density is reachable everywhere; the
			// realized map is perfectly uniform and no search can do
			// better, but we still include it among candidates so Case II
			// layers can trade off against it in the joint search.
			cands[l] = []float64{maxLower}
			continue
		}
		// Case II: sweep the contested band.
		lo, hi := minUpper, maxLower
		cs := make([]float64, 0, steps+1)
		for s := 0; s <= steps; s++ {
			cs = append(cs, lo+(hi-lo)*float64(s)/float64(steps))
		}
		cands[l] = cs
	}

	// Memoize the per-(layer, candidate) realized-map metrics once: the
	// density score decomposes into per-layer sums (Σσ, Σline, Σoh), so a
	// combination's score is three array sums instead of nl map
	// realizations and metric passes. The search below then evaluates tens
	// of thousands of combinations over a few dozen precomputed triples,
	// with float accumulation in the same layer order as DensityScore —
	// the chosen plan is bit-identical to the unmemoized search.
	mets := make([][]Metrics, nl)
	var buf grid.Map
	for l, b := range bounds {
		mets[l] = make([]Metrics, len(cands[l]))
		for ci, c := range cands[l] {
			realizeInto(&buf, b, c)
			mets[l][ci] = Measure(&buf)
		}
	}
	evalIdx := func(idx []int) float64 {
		var sumSigma, sumLine, sumOut float64
		for l := 0; l < nl; l++ {
			m := mets[l][idx[l]]
			sumSigma += m.Sigma
			sumLine += m.Line
			sumOut += m.Outlier
		}
		return w.AlphaVar*F(sumSigma, w.BetaVar) +
			w.AlphaLine*F(sumLine, w.BetaLine) +
			w.AlphaOutlier*F(sumSigma*sumOut, w.BetaOutlier)
	}

	combos := 1
	for _, cs := range cands {
		combos *= len(cs)
		if combos > 1<<16 {
			break
		}
	}

	best := &Plan{Td: make([]float64, nl), Score: math.Inf(-1)}
	idx := make([]int, nl)
	if combos <= 1<<16 {
		// Exhaustive joint search.
		var rec func(l int)
		rec = func(l int) {
			if l == nl {
				if s := evalIdx(idx); s > best.Score {
					best.Score = s
					for l, ci := range idx {
						best.Td[l] = cands[l][ci]
					}
				}
				return
			}
			for ci := range cands[l] {
				idx[l] = ci
				rec(l + 1)
			}
		}
		rec(0)
	} else {
		// Coordinate descent from the per-layer midpoints.
		for l := range idx {
			idx[l] = len(cands[l]) / 2
		}
		cur := evalIdx(idx)
		for pass := 0; pass < 8; pass++ {
			improved := false
			for l := 0; l < nl; l++ {
				bestC, bestS := idx[l], cur
				for ci := range cands[l] {
					idx[l] = ci
					if s := evalIdx(idx); s > bestS {
						bestC, bestS = ci, s
					}
				}
				idx[l] = bestC
				if bestS > cur {
					cur = bestS
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		best.Score = cur
		for l, ci := range idx {
			best.Td[l] = cands[l][ci]
		}
	}
	return best, nil
}

// realizeInto is Realize into a reused map buffer (same clamping, no
// allocation once dst has grown to the layer's window count).
func realizeInto(dst *grid.Map, b LayerBounds, td float64) {
	dst.G = b.Lower.G
	n := len(b.Lower.V)
	if cap(dst.V) < n {
		dst.V = make([]float64, n)
	}
	dst.V = dst.V[:n]
	for k, l := range b.Lower.V {
		u := b.Upper.V[k]
		switch {
		case td < l:
			dst.V[k] = l
		case td > u:
			dst.V[k] = u
		default:
			dst.V[k] = td
		}
	}
}
