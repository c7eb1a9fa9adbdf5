package dlp

import (
	"context"

	"dummyfill/internal/mcf"
)

// WarmSolver solves a sequence of related difference-constraint problems,
// reusing one min-cost-flow graph arena and carrying node potentials from
// solve to solve. The alternating-direction sizing loop (§3.3) produces
// exactly this workload: consecutive passes solve near-identical LPs, so
// the previous pass's dual solution is usually still feasible — the solver
// then skips the Bellman-Ford initialization and goes straight to Dijkstra
// augmentation over reduced costs, and in steady state performs no
// allocations beyond the returned solution buffer.
//
// The warm-start contract: Solve may be called with problems of any shape;
// carried potentials are validated in O(m) against the new instance and
// silently discarded when stale (different variable count or no longer
// dual-feasible), so warm starting is a pure optimization — results are
// bit-for-bit the optima of each instance in isolation. The returned
// solution slice is reused by the next Solve call; callers that retain it
// must copy.
//
// A WarmSolver is not safe for concurrent use; give each worker its own.
type WarmSolver struct {
	g      mcf.Graph
	ws     mcf.Workspace
	res    mcf.Result
	x      []int64
	warmed bool
	lastN  int
}

// NewWarmSolver returns an empty warm-startable solver.
func NewWarmSolver() *WarmSolver { return &WarmSolver{} }

// NewWarmSSP returns a PSolver backed by a fresh WarmSolver — the factory
// used by the fill engine to give each window worker its own reusable
// solver state.
func NewWarmSSP() PSolver { return NewWarmSolver().Solve }

// Solve optimizes p exactly like Problem.Solve, but through the reusable
// arena, honouring cancellation mid-solve. The returned slice is valid
// until the next Solve call.
func (s *WarmSolver) Solve(ctx context.Context, p *Problem) ([]int64, int64, error) {
	if err := p.validate(); err != nil {
		return nil, 0, err
	}
	n := len(p.C)
	p.buildDual(&s.g)

	warm := s.warmed && s.lastN == n+1
	err := s.ws.SolveSSP(ctx, &s.g, warm, &s.res)
	if err != nil {
		s.warmed = false
		return nil, 0, dualErr(err)
	}
	s.warmed = true
	s.lastN = n + 1

	if cap(s.x) < n {
		s.x = make([]int64, n)
	}
	s.x = s.x[:n]
	obj, err := p.readPrimal(s.res.Potential, s.x)
	if err != nil {
		return nil, 0, err
	}
	return s.x, obj, nil
}

// Reset drops the carried warm-start state (potentials stay allocated but
// are revalidated from scratch on the next Solve).
func (s *WarmSolver) Reset() { s.warmed = false }
