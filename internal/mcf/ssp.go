package mcf

import "context"

// SolveSSP solves the min-cost flow problem with the successive shortest
// path algorithm. It is a convenience wrapper over Workspace.SolveSSP with
// a fresh workspace and no warm start: node potentials are initialized
// once with SPFA (queue-based Bellman-Ford, so negative arc costs need no
// pre-transformation), negative residual cycles are cancelled (or reported
// as ErrUnbounded when uncapacitated), and every augmentation then runs
// Dijkstra over reduced costs.
//
// Callers solving many related instances should hold a Workspace and call
// its SolveSSP directly: the arena and potentials carry over, making the
// steady-state solve allocation-free and often Bellman-Ford-free.
func (g *Graph) SolveSSP() (*Result, error) {
	var ws Workspace
	out := &Result{}
	if err := ws.SolveSSP(context.Background(), g, false, out); err != nil {
		return nil, err
	}
	return out, nil
}
