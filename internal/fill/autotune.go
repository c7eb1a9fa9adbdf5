package fill

import (
	"fmt"

	"dummyfill/internal/gdsii"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
	"dummyfill/internal/score"
)

// AutoTuneLambda runs the engine at several candidate overfill factors λ
// and returns the options whose solution scores the best Testcase Quality
// under the given coefficients (runtime/memory excluded — they are
// environment noise at tuning time). The paper treats λ as a free
// parameter ("λ is a parameter to control how many fills to generate");
// this helper picks it empirically per design.
func AutoTuneLambda(lay *layout.Layout, c score.Coefficients, base Options, candidates []float64) (Options, *Result, error) {
	if len(candidates) == 0 {
		candidates = []float64{1.0, 1.15, 1.3, 1.5}
	}
	var bestOpts Options
	var bestRes *Result
	bestQ := -1.0
	for _, lambda := range candidates {
		if lambda < 1 {
			return Options{}, nil, fmt.Errorf("fill: candidate λ %v < 1", lambda)
		}
		opts := base
		opts.Lambda = lambda
		e, err := New(lay, opts)
		if err != nil {
			return Options{}, nil, err
		}
		res, err := e.Run()
		if err != nil {
			return Options{}, nil, err
		}
		sz, err := gdsii.DeckSize(layio.SolutionDeck, lay, &res.Solution)
		if err != nil {
			return Options{}, nil, err
		}
		raw, err := score.Measure(lay, &res.Solution, sz, 0, 0)
		if err != nil {
			return Options{}, nil, err
		}
		rep := score.Score(raw, c)
		if rep.Quality > bestQ {
			bestQ = rep.Quality
			bestOpts = opts
			bestRes = res
		}
	}
	return bestOpts, bestRes, nil
}
