package dlp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// bruteForce exhaustively searches integer assignments for tiny problems.
func bruteForce(p *Problem) ([]int64, int64, bool) {
	n := p.N()
	x := make([]int64, n)
	best := make([]int64, n)
	var bestObj int64 = math.MaxInt64
	found := false
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if p.Check(x) != nil {
				return
			}
			obj := p.Objective(x)
			if !found || obj < bestObj {
				found = true
				bestObj = obj
				copy(best, x)
			}
			return
		}
		for v := p.Lo[i]; v <= p.Hi[i]; v++ {
			x[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return best, bestObj, found
}

func TestPaperFig6Example(t *testing.T) {
	// min x1 + 2x2 + 3x3 + 4x4, x1-x2 >= 5, x4-x3 >= 6, 0 <= x <= 10.
	// The paper's solution (Fig. 6(b)) is x = (5, 0, 0, 6) with value 29.
	p := NewProblem(4, 10)
	p.C = []int64{1, 2, 3, 4}
	p.AddConstraint(0, 1, 5)
	p.AddConstraint(3, 2, 6)
	for _, solver := range []struct {
		name string
		s    PSolver
	}{{"SSP", ViaSSP}, {"NetworkSimplex", ViaNetworkSimplex}} {
		t.Run(solver.name, func(t *testing.T) {
			x, obj, err := solver.s(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			want := []int64{5, 0, 0, 6}
			for i := range want {
				if x[i] != want[i] {
					t.Fatalf("x = %v, want %v", x, want)
				}
			}
			if obj != 29 {
				t.Fatalf("objective = %d, want 29", obj)
			}
		})
	}
}

func TestUnconstrainedGoesToBound(t *testing.T) {
	p := NewProblem(3, 100)
	p.C = []int64{1, -1, 0}
	x, obj, err := ViaSSP(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 {
		t.Fatalf("positive-cost variable should sit at lower bound, got %d", x[0])
	}
	if x[1] != 100 {
		t.Fatalf("negative-cost variable should sit at upper bound, got %d", x[1])
	}
	if obj != -100 {
		t.Fatalf("objective = %d, want -100", obj)
	}
}

func TestNonzeroLowerBounds(t *testing.T) {
	p := NewProblem(2, 50)
	p.C = []int64{3, 1}
	p.Lo = []int64{7, 2}
	x, obj, err := ViaSSP(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 7 || x[1] != 2 {
		t.Fatalf("x = %v, want [7 2]", x)
	}
	if obj != 23 {
		t.Fatalf("objective = %d, want 23", obj)
	}
}

func TestNegativeBoundsRange(t *testing.T) {
	p := NewProblem(2, 0)
	p.Lo = []int64{-10, -10}
	p.Hi = []int64{10, 10}
	p.C = []int64{1, -1}
	p.AddConstraint(1, 0, 5) // x1 - x0 >= 5
	x, obj, err := ViaSSP(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(x); err != nil {
		t.Fatal(err)
	}
	// Optimal: x0 = -10, x1 = 10 (constraint slack), obj = -20.
	if obj != -20 {
		t.Fatalf("objective = %d (x=%v), want -20", obj, x)
	}
}

func TestInfeasibleConstraintVsBounds(t *testing.T) {
	p := NewProblem(2, 3)
	p.AddConstraint(0, 1, 10) // x0 - x1 >= 10 impossible within [0,3]
	_, _, err := ViaSSP(context.Background(), p)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestInfeasibleCycle(t *testing.T) {
	p := NewProblem(2, 100)
	p.AddConstraint(0, 1, 5)
	p.AddConstraint(1, 0, 5) // x0-x1>=5 and x1-x0>=5: impossible
	_, _, err := ViaSSP(context.Background(), p)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestEmptyBoundRange(t *testing.T) {
	p := NewProblem(1, 10)
	p.Lo[0] = 20
	_, _, err := ViaSSP(context.Background(), p)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestChainOfConstraints(t *testing.T) {
	// x0 >= x1 + 2 >= x2 + 4 >= x3 + 6, all in [0,10], min x0 - x3:
	// forces x0 - x3 >= 6, optimum = 6.
	p := NewProblem(4, 10)
	p.C = []int64{1, 0, 0, -1}
	p.AddConstraint(0, 1, 2)
	p.AddConstraint(1, 2, 2)
	p.AddConstraint(2, 3, 2)
	x, obj, err := ViaSSP(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if obj != 6 {
		t.Fatalf("objective = %d (x=%v), want 6", obj, x)
	}
}

func TestRandomVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for it := 0; it < 300; it++ {
		n := 1 + rng.Intn(4)
		p := NewProblem(n, int64(2+rng.Intn(4)))
		for i := 0; i < n; i++ {
			p.C[i] = int64(rng.Intn(11) - 5)
			p.Lo[i] = int64(rng.Intn(2))
		}
		nc := rng.Intn(4)
		for k := 0; k < nc; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			p.AddConstraint(i, j, int64(rng.Intn(7)-3))
		}
		wantX, wantObj, feasible := bruteForce(p)
		x, obj, err := ViaSSP(context.Background(), p)
		if !feasible {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("it %d: brute says infeasible, solver says %v (x=%v)", it, err, x)
			}
			continue
		}
		if err != nil {
			t.Fatalf("it %d: brute found %v obj %d but solver errored: %v", it, wantX, wantObj, err)
		}
		if obj != wantObj {
			t.Fatalf("it %d: obj %d (x=%v), brute %d (x=%v), problem %+v", it, obj, x, wantObj, wantX, p)
		}
	}
}

func TestRandomSolverAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for it := 0; it < 100; it++ {
		n := 2 + rng.Intn(20)
		p := NewProblem(n, int64(10+rng.Intn(100)))
		for i := 0; i < n; i++ {
			p.C[i] = int64(rng.Intn(201) - 100)
			p.Lo[i] = int64(rng.Intn(5))
		}
		for k := 0; k < rng.Intn(3*n); k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			p.AddConstraint(i, j, int64(rng.Intn(21)-10))
		}
		_, o1, e1 := ViaSSP(context.Background(), p)
		_, o2, e2 := ViaNetworkSimplex(context.Background(), p)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("it %d: disagreement: %v vs %v", it, e1, e2)
		}
		if e1 == nil && o1 != o2 {
			t.Fatalf("it %d: objective mismatch %d vs %d", it, o1, o2)
		}
	}
}

func TestCheckRejects(t *testing.T) {
	p := NewProblem(2, 10)
	p.AddConstraint(0, 1, 5)
	if err := p.Check([]int64{2, 0}); err == nil {
		t.Fatal("violated constraint must fail Check")
	}
	if err := p.Check([]int64{11, 0}); err == nil {
		t.Fatal("out-of-bounds value must fail Check")
	}
	if err := p.Check([]int64{5}); err == nil {
		t.Fatal("wrong length must fail Check")
	}
	if err := p.Check([]int64{7, 1}); err != nil {
		t.Fatalf("valid solution rejected: %v", err)
	}
}

func TestValidateBadProblem(t *testing.T) {
	p := &Problem{C: []int64{1}, Lo: []int64{0, 0}, Hi: []int64{5}}
	if _, _, err := ViaSSP(context.Background(), p); err == nil {
		t.Fatal("inconsistent slice lengths must error")
	}
	p2 := NewProblem(2, 10)
	p2.AddConstraint(0, 0, 1)
	if _, _, err := ViaSSP(context.Background(), p2); err == nil {
		t.Fatal("self-referential constraint must error")
	}
	p3 := NewProblem(2, 10)
	p3.AddConstraint(0, 5, 1)
	if _, _, err := ViaSSP(context.Background(), p3); err == nil {
		t.Fatal("out-of-range constraint must error")
	}
}

func BenchmarkDualMCFChain100(b *testing.B) {
	// A 100-variable chain like a row of fills with spacing constraints.
	n := 100
	p := NewProblem(n, 1000)
	for i := 0; i < n; i++ {
		p.C[i] = int64(i%7 + 1)
	}
	for i := 0; i+1 < n; i++ {
		p.AddConstraint(i+1, i, 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ViaSSP(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}
