// Package dlp solves integer linear programs with only differential
// constraints and variable bounds (Eqn. 14 of the paper):
//
//	min  Σ c_i·x_i
//	s.t. x_i − x_j ≥ b_ij   for (i,j) ∈ E
//	     l_i ≤ x_i ≤ u_i
//	     x integral
//
// by transforming to a dual min-cost-flow problem (Eqn. 15/16 and Fig. 6
// of the paper) and reading the solution off the optimal node potentials.
// The constraint matrix is totally unimodular, so the LP optimum is
// integral and the ILP is solved exactly.
package dlp

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"dummyfill/internal/mcf"
)

// Constraint encodes x[I] − x[J] ≥ B.
type Constraint struct {
	I, J int
	B    int64
}

// Problem is a differential-constraint LP instance. All three slices C,
// Lo, Hi must have the same length (the variable count).
type Problem struct {
	C      []int64
	Lo, Hi []int64
	Cons   []Constraint
}

// NewProblem returns a problem with n variables, zero costs and bounds
// [0, hi] for all variables.
func NewProblem(n int, hi int64) *Problem {
	p := &Problem{
		C:  make([]int64, n),
		Lo: make([]int64, n),
		Hi: make([]int64, n),
	}
	for i := range p.Hi {
		p.Hi[i] = hi
	}
	return p
}

// N returns the variable count.
func (p *Problem) N() int { return len(p.C) }

// Reset reinitializes p to n variables with zero costs, zero bounds and no
// constraints, reusing the underlying storage — the counterpart of
// NewProblem(n, 0) for callers that rebuild a problem every pass.
func (p *Problem) Reset(n int) {
	if cap(p.C) < n {
		p.C = make([]int64, n)
		p.Lo = make([]int64, n)
		p.Hi = make([]int64, n)
	} else {
		p.C = p.C[:n]
		p.Lo = p.Lo[:n]
		p.Hi = p.Hi[:n]
		for i := 0; i < n; i++ {
			p.C[i], p.Lo[i], p.Hi[i] = 0, 0, 0
		}
	}
	p.Cons = p.Cons[:0]
}

// AddConstraint appends x_i − x_j ≥ b.
func (p *Problem) AddConstraint(i, j int, b int64) {
	p.Cons = append(p.Cons, Constraint{i, j, b})
}

// ErrInfeasible is returned when the constraint system admits no solution
// within the bounds.
var ErrInfeasible = errors.New("dlp: infeasible constraint system")

// validate checks structural sanity.
func (p *Problem) validate() error {
	n := len(p.C)
	if len(p.Lo) != n || len(p.Hi) != n {
		return fmt.Errorf("dlp: inconsistent lengths C=%d Lo=%d Hi=%d", n, len(p.Lo), len(p.Hi))
	}
	for i := 0; i < n; i++ {
		if p.Lo[i] > p.Hi[i] {
			return fmt.Errorf("%w: variable %d has empty bound range [%d,%d]", ErrInfeasible, i, p.Lo[i], p.Hi[i])
		}
	}
	for _, c := range p.Cons {
		if c.I < 0 || c.I >= n || c.J < 0 || c.J >= n {
			return fmt.Errorf("dlp: constraint references variable out of range: %+v", c)
		}
		if c.I == c.J {
			return fmt.Errorf("dlp: self-referential constraint on variable %d", c.I)
		}
	}
	return nil
}

// PSolver solves a whole difference-constraint problem. The three
// implementations — dual min-cost flow via SSP or network simplex, and a
// dense general-purpose simplex — are interchangeable (the constraint
// matrix is totally unimodular, so all return integral optima) and exist
// so the engine can be benchmarked per backend, reproducing the paper's
// §3.3.3 dual-MCF-beats-LP claim end to end.
//
// The context propagates cancellation into the solve: the SSP backend
// checks it mid-augmentation, the one-shot backends check it up front. A
// cancelled solve returns an error unwrapping to ctx.Err().
type PSolver func(ctx context.Context, p *Problem) ([]int64, int64, error)

// sspSolver solves through the dual min-cost flow with successive shortest
// paths, reusing one graph arena, one mcf.Workspace and one solution
// buffer across calls. Only storage is reused: every solve starts from
// its own problem, so a result never depends on the solves before it.
// An sspSolver is not safe for concurrent use.
type sspSolver struct {
	g   mcf.Graph
	ws  mcf.Workspace
	res mcf.Result
	x   []int64
}

// solve is the PSolver of s. The returned slice is reused by the next call.
func (s *sspSolver) solve(ctx context.Context, p *Problem) ([]int64, int64, error) {
	if err := p.validate(); err != nil {
		return nil, 0, err
	}
	p.buildDual(&s.g)
	if err := s.ws.SolveSSP(ctx, &s.g, &s.res); err != nil {
		return nil, 0, dualErr(err)
	}
	s.x = slices.Grow(s.x[:0], len(p.C))[:len(p.C)]
	obj, err := p.readPrimal(s.res.Potential, s.x)
	if err != nil {
		return nil, 0, err
	}
	return s.x, obj, nil
}

// NewWarmSSP returns an SSP PSolver with its own reusable arena — the
// factory the fill engine calls to give each window worker a solver that
// sizes thousands of LPs without steady-state allocation. The returned
// slice is reused by the next call; callers that retain it must copy.
//
// The solver keeps no warm start: consecutive sizing LPs alternate
// between the H and V axes, and every bound arc's cost is a coordinate,
// so the previous solve's potentials are never dual-feasible for the
// next. "Warm" in the name is historical; it stays because the fill
// cache fingerprints the factory symbol.
func NewWarmSSP() PSolver { return new(sspSolver).solve }

// ViaSSP solves p once through the dual min-cost flow with successive
// shortest paths. Cancellation is honoured mid-solve.
func ViaSSP(ctx context.Context, p *Problem) ([]int64, int64, error) {
	return new(sspSolver).solve(ctx, p)
}

// ViaNetworkSimplex solves through the dual min-cost flow with network
// simplex (the LEMON-style solver the paper used). The underlying solver
// is one-shot, so cancellation is only checked before it starts.
func ViaNetworkSimplex(ctx context.Context, p *Problem) ([]int64, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if err := p.validate(); err != nil {
		return nil, 0, err
	}
	var g mcf.Graph
	p.buildDual(&g)
	res, err := g.SolveNetworkSimplex()
	if err != nil {
		return nil, 0, dualErr(err)
	}
	x := make([]int64, len(p.C))
	obj, err := p.readPrimal(res.Potential, x)
	if err != nil {
		return nil, 0, err
	}
	return x, obj, nil
}

// buildDual resets g to the Eqn. 15/16 dual of p: one flow node per
// variable plus a reference node 0 pinned at x=0, so node i+1 is variable
// i. Each constraint x_i − x_j ≥ b becomes an uncapacitated arc j→i with
// cost −b; bounds become constraints against the reference node. Node
// supplies are −c_i (the reference node absorbs +Σc_i so supplies
// balance). Optimal node potentials y of the flow problem are
// dual-optimal for the LP, and x_i = y_i − y_0.
func (p *Problem) buildDual(g *mcf.Graph) {
	n := len(p.C)
	g.Reset(n + 1)

	var sumC int64
	for i, c := range p.C {
		g.SetSupply(i+1, -c)
		sumC += c
	}
	g.SetSupply(0, sumC)

	for _, c := range p.Cons {
		// x_I − x_J ≥ B  →  arc J→I, cost −B. Endpoints are in range by
		// validate; a failure here is surfaced by the solver via Graph.Err.
		g.AddArc(c.J+1, c.I+1, mcf.InfCap, -c.B)
	}
	for i := 0; i < n; i++ {
		// x_i − x_0 ≥ Lo[i]  →  arc 0→i, cost −Lo[i].
		g.AddArc(0, i+1, mcf.InfCap, -p.Lo[i])
		// x_0 − x_i ≥ −Hi[i] →  arc i→0, cost Hi[i].
		g.AddArc(i+1, 0, mcf.InfCap, p.Hi[i])
	}
}

// dualErr maps a failed dual solve to the LP's error taxonomy.
func dualErr(err error) error {
	if errors.Is(err, mcf.ErrUnbounded) || errors.Is(err, mcf.ErrInfeasible) {
		// An unbounded dual (negative residual cycle) means the primal
		// difference constraints are inconsistent with the bounds.
		return fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return err
}

// readPrimal fills x (length N) with x_i = y_i − y_0 from the optimal
// node potentials y, checks it against p, and returns the objective.
func (p *Problem) readPrimal(potential, x []int64) (int64, error) {
	y0 := potential[0]
	var obj int64
	for i := range x {
		x[i] = potential[i+1] - y0
		obj += p.C[i] * x[i]
	}
	if err := p.Check(x); err != nil {
		return 0, fmt.Errorf("dlp: internal error, solver produced invalid solution: %v", err)
	}
	return obj, nil
}

// Check verifies that x satisfies all bounds and constraints.
func (p *Problem) Check(x []int64) error {
	if len(x) != len(p.C) {
		return fmt.Errorf("dlp: solution length %d, want %d", len(x), len(p.C))
	}
	for i := range x {
		if x[i] < p.Lo[i] || x[i] > p.Hi[i] {
			return fmt.Errorf("dlp: x[%d]=%d outside [%d,%d]", i, x[i], p.Lo[i], p.Hi[i])
		}
	}
	for _, c := range p.Cons {
		if x[c.I]-x[c.J] < c.B {
			return fmt.Errorf("dlp: constraint x[%d]-x[%d] >= %d violated (%d-%d)", c.I, c.J, c.B, x[c.I], x[c.J])
		}
	}
	return nil
}

// Objective returns Σ c_i x_i.
func (p *Problem) Objective(x []int64) int64 {
	var obj int64
	for i, c := range p.C {
		obj += c * x[i]
	}
	return obj
}
