package mcf

import (
	"errors"
	"testing"
)

// TestAddArcRejectsMalformedArcs checks the construction API returns
// errors (never panics) for out-of-range endpoints and negative
// capacities, records the first error stickily, and that every solver
// refuses to run a graph with a recorded construction error.
func TestAddArcRejectsMalformedArcs(t *testing.T) {
	g := NewGraph(2)
	if _, err := g.AddArc(0, 5, 1, 0); !errors.Is(err, ErrBadArc) {
		t.Fatalf("out-of-range endpoint: err = %v, want ErrBadArc", err)
	}
	if _, err := g.AddArc(-1, 0, 1, 0); !errors.Is(err, ErrBadArc) {
		t.Fatalf("negative endpoint: err = %v, want ErrBadArc", err)
	}
	if _, err := g.AddArc(0, 1, -3, 0); !errors.Is(err, ErrBadArc) {
		t.Fatalf("negative capacity: err = %v, want ErrBadArc", err)
	}
	if g.M() != 0 {
		t.Fatalf("malformed arcs were stored: M() = %d", g.M())
	}
	if err := g.Err(); !errors.Is(err, ErrBadArc) {
		t.Fatalf("sticky Err() = %v, want ErrBadArc", err)
	}
	var se *SolverError
	if !errors.As(g.Err(), &se) || se.Op != "addarc" {
		t.Fatalf("Err() = %#v, want *SolverError{Op: addarc}", g.Err())
	}

	for _, solver := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"ssp", g.solveSSP},
		{"netsimplex", g.SolveNetworkSimplex},
		{"cyclecancel", g.SolveCycleCanceling},
	} {
		if _, err := solver.run(); !errors.Is(err, ErrBadArc) {
			t.Fatalf("%s on poisoned graph: err = %v, want ErrBadArc", solver.name, err)
		}
	}

	// Reset clears the sticky error and the graph becomes usable again.
	g.Reset(2)
	if g.Err() != nil {
		t.Fatalf("Err() after Reset = %v, want nil", g.Err())
	}
	if id, err := g.AddArc(0, 1, 1, 0); err != nil || id != 0 {
		t.Fatalf("AddArc after Reset = (%d, %v), want (0, nil)", id, err)
	}
	g.SetSupply(0, 1)
	g.SetSupply(1, -1)
	if _, err := g.solveSSP(); err != nil {
		t.Fatalf("solve after Reset: %v", err)
	}
}
