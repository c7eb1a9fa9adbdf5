package mcf

import (
	"context"
	"fmt"
)

// solveSSP runs the successive-shortest-path solver on g with a fresh
// workspace — the one-shot form the tests compare against the other
// solvers.
func (g *Graph) solveSSP() (*Result, error) {
	var ws Workspace
	out := &Result{}
	if err := ws.SolveSSP(context.Background(), g, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Validate checks that res is a feasible flow for g and returns its cost.
// It verifies capacity bounds and flow conservation.
func (g *Graph) Validate(res *Result) (int64, error) {
	if len(res.Flow) != len(g.arcs) {
		return 0, fmt.Errorf("mcf: flow vector length %d, want %d", len(res.Flow), len(g.arcs))
	}
	imb := make([]int64, len(g.supply))
	copy(imb, g.supply)
	var cost int64
	for i, a := range g.arcs {
		f := res.Flow[i]
		if f < 0 || f > a.Cap {
			return 0, fmt.Errorf("mcf: arc %d flow %d outside [0,%d]", i, f, a.Cap)
		}
		imb[a.From] -= f
		imb[a.To] += f
		cost += f * a.Cost
	}
	for i, v := range imb {
		if v != 0 {
			return 0, fmt.Errorf("mcf: node %d conservation violated by %d", i, v)
		}
	}
	return cost, nil
}

// VerifyOptimal checks complementary slackness of res against its own
// potentials: every residual arc must have non-negative reduced cost.
func (g *Graph) VerifyOptimal(res *Result) error {
	if len(res.Potential) != len(g.supply) {
		return fmt.Errorf("mcf: potential vector length %d, want %d", len(res.Potential), len(g.supply))
	}
	for i, a := range g.arcs {
		rc := a.Cost - res.Potential[a.From] + res.Potential[a.To]
		if res.Flow[i] < a.Cap && rc < 0 {
			return fmt.Errorf("mcf: arc %d (%d->%d) has residual capacity and reduced cost %d < 0", i, a.From, a.To, rc)
		}
		if res.Flow[i] > 0 && rc > 0 {
			return fmt.Errorf("mcf: arc %d (%d->%d) carries flow with reduced cost %d > 0", i, a.From, a.To, rc)
		}
	}
	return nil
}
