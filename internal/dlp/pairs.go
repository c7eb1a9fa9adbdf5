package dlp

import (
	"context"
	"errors"
	"fmt"
	"slices"
)

// ErrNotPairs is returned by the NewPairs solver for a problem that is not
// a set of independent pairs. The problem may still be solvable: a caller
// falls back to a general solver.
var ErrNotPairs = errors.New("dlp: problem is not a set of independent pairs")

// pairsSolver solves the independent-pairs shape in closed form, reusing
// one solution buffer across calls. It is not safe for concurrent use.
type pairsSolver struct{ x []int64 }

// NewPairs returns an exact O(n) PSolver for problems made of independent
// pairs: an even variable count, and constraint k is
// x[2k+1] − x[2k] ≥ B with C[2k] == −C[2k+1]. This is the fill engine's
// sizing LP once candidates are legal from birth: the low and high edge
// of each cell, a minimum-width row, and a cost on the width. Any other
// shape returns an error wrapping ErrNotPairs and no solution. The
// returned slice is reused by the next call; callers that retain it must
// copy.
//
// Per pair, a positive width cost keeps the low edge as low as the bounds
// allow and shrinks the width to its minimum; any other cost keeps the
// full extent [Lo[2k], Hi[2k+1]]. In a sizing LP the only degenerate
// choice is where a shrinking cell sits, and keeping its low edge is the
// vertex the dual min-cost flow with SSP returns, so the two solvers give
// identical solutions there. On other pair problems SSP may return a
// different optimum.
func NewPairs() PSolver { return new(pairsSolver).solve }

// solve is the PSolver of s. The returned slice is reused by the next call.
func (s *pairsSolver) solve(ctx context.Context, p *Problem) ([]int64, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	n := len(p.C)
	if n%2 != 0 || len(p.Cons) != n/2 {
		return nil, 0, fmt.Errorf("%w: %d variables, %d constraints", ErrNotPairs, n, len(p.Cons))
	}
	for k, c := range p.Cons {
		if a, b := 2*k, 2*k+1; c.I != b || c.J != a || p.C[a] != -p.C[b] {
			return nil, 0, fmt.Errorf("%w: constraint %d is %+v with costs %d, %d", ErrNotPairs, k, c, p.C[a], p.C[b])
		}
	}
	if err := p.validate(); err != nil {
		return nil, 0, err
	}
	s.x = slices.Grow(s.x[:0], n)[:n]
	x := s.x
	var obj int64
	for k, c := range p.Cons {
		a, b := 2*k, 2*k+1
		if p.C[b] > 0 {
			x[a] = max(p.Lo[a], min(p.Hi[a], p.Lo[b]-c.B))
			x[b] = max(p.Lo[b], x[a]+c.B)
		} else {
			x[a], x[b] = p.Lo[a], p.Hi[b]
		}
		if x[b] > p.Hi[b] || x[b]-x[a] < c.B {
			return nil, 0, fmt.Errorf("%w: pair %d cannot reach width %d within its bounds", ErrInfeasible, k, c.B)
		}
		obj += p.C[b] * (x[b] - x[a])
	}
	return x, obj, nil
}
