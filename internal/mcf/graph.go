// Package mcf implements minimum-cost flow on directed graphs with node
// supplies, arc capacities and (possibly negative) arc costs. It provides
// two independent solvers — successive shortest paths (SPFA-based, robust
// to negative costs, run through a reusable Workspace) and network simplex
// (the algorithm family used by LEMON, which the paper relied on).
//
// It is the substrate for the dual min-cost-flow formulation (Eqn. 15/16
// of the paper) used to size dummy fills.
package mcf

import (
	"errors"
	"fmt"
	"math"
)

// InfCap is the capacity used for uncapacitated arcs. It is large enough
// to never bind yet leaves headroom against overflow in cost arithmetic.
const InfCap int64 = math.MaxInt64 / 8

// Arc is a directed arc with capacity and per-unit cost.
type Arc struct {
	From, To  int
	Cap, Cost int64
}

// Graph is a min-cost-flow problem instance. Node supplies must balance
// (sum to zero) for a feasible flow to exist. The zero value is an empty
// graph; size it with Reset.
type Graph struct {
	supply []int64
	arcs   []Arc
	err    error // first construction error; sticky until Reset
}

// N returns the node count.
func (g *Graph) N() int { return len(g.supply) }

// M returns the arc count.
func (g *Graph) M() int { return len(g.arcs) }

// Reset reinitializes g to n nodes with zero supplies and no arcs,
// reusing the underlying storage. It lets a caller that rebuilds similar
// problems repeatedly (e.g. one per sizing pass) keep a graph arena alive
// instead of allocating a fresh Graph each time.
func (g *Graph) Reset(n int) {
	if cap(g.supply) < n {
		g.supply = make([]int64, n)
	} else {
		g.supply = g.supply[:n]
		for i := range g.supply {
			g.supply[i] = 0
		}
	}
	g.arcs = g.arcs[:0]
	g.err = nil
}

// SetSupply sets the supply of node i (negative = demand).
func (g *Graph) SetSupply(i int, s int64) { g.supply[i] = s }

// AddArc appends an arc and returns its id. Capacity must be >= 0 and
// both endpoints must be existing nodes; a malformed arc is rejected with
// an error wrapping ErrBadArc instead of being stored. The error is also
// recorded on the graph (see Err), so callers building many arcs may
// ignore the per-call error and check once before solving — the solvers
// refuse to run a graph with a recorded construction error. That sticky
// record is why the errsink annotation below holds: a dropped per-call
// error is never lost, it resurfaces from the first Solve attempt.
//
//filllint:errsink
func (g *Graph) AddArc(from, to int, cap, cost int64) (int, error) {
	if from < 0 || from >= len(g.supply) || to < 0 || to >= len(g.supply) {
		return -1, g.fail(&SolverError{Op: "addarc", Err: fmt.Errorf("%w: endpoint out of range (%d,%d) with %d nodes", ErrBadArc, from, to, len(g.supply))})
	}
	if cap < 0 {
		return -1, g.fail(&SolverError{Op: "addarc", Err: fmt.Errorf("%w: negative capacity %d on (%d,%d)", ErrBadArc, cap, from, to)})
	}
	g.arcs = append(g.arcs, Arc{from, to, cap, cost})
	return len(g.arcs) - 1, nil
}

// fail records the first construction error and returns err unchanged.
func (g *Graph) fail(err error) error {
	if g.err == nil {
		g.err = err
	}
	return err
}

// Err returns the first construction error recorded on the graph (nil if
// the graph is well-formed).
func (g *Graph) Err() error { return g.err }

// Arc returns the i-th arc.
func (g *Graph) Arc(i int) Arc { return g.arcs[i] }

// Result holds a min-cost-flow solution.
type Result struct {
	// Flow[i] is the flow on arc i.
	Flow []int64
	// Potential[i] is an optimal node potential (dual variable) such that
	// reduced costs Cost - Pot[from] + Pot[to] are >= 0 on residual arcs.
	Potential []int64
	// Cost is the total cost sum(Flow[i]*Cost[i]).
	Cost int64
}

// Errors returned by the solvers. Together with SolverError they form the
// failure taxonomy callers dispatch on: ErrBadArc is a construction bug in
// the caller, ErrUnbalanced/ErrInfeasible/ErrUnbounded describe the
// instance, and anything else is an internal solver failure.
var (
	ErrUnbalanced = errors.New("mcf: node supplies do not sum to zero")
	ErrInfeasible = errors.New("mcf: no feasible flow")
	ErrUnbounded  = errors.New("mcf: negative-cost cycle with unbounded capacity")
	ErrBadArc     = errors.New("mcf: invalid arc")
)

// SolverError wraps a min-cost-flow failure with the operation that
// produced it. It unwraps to one of the sentinel errors above (or to a
// context error when a solve was cancelled), so errors.Is dispatch works
// through it.
type SolverError struct {
	Op  string // "addarc", "ssp", "netsimplex", "cyclecancel"
	Err error
}

func (e *SolverError) Error() string { return fmt.Sprintf("mcf: %s: %v", e.Op, e.Err) }
func (e *SolverError) Unwrap() error { return e.Err }

// checkSolvable verifies the graph carries no construction error and that
// supplies sum to zero.
func (g *Graph) checkSolvable() error {
	if g.err != nil {
		return g.err
	}
	var s int64
	for _, v := range g.supply {
		s += v
	}
	if s != 0 {
		return fmt.Errorf("%w (sum=%d)", ErrUnbalanced, s)
	}
	return nil
}
