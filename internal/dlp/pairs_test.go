package dlp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// randomPairs builds a random independent-pairs problem with np pairs.
// Half the pairs are shaped like a sizing cell (both edges inside one
// extent, width row between the minimum and the full extent); the rest
// have arbitrary bounds. Costs are often zero, bounds are often pinned
// (Lo == Hi), and width rows are often tight or one past tight, so the
// degenerate and infeasible cases all occur.
func randomPairs(rng *rand.Rand, np int) *Problem {
	p := NewProblem(2*np, 0)
	for k := 0; k < np; k++ {
		a, b := 2*k, 2*k+1
		if rng.Intn(2) == 0 {
			lo := int64(rng.Intn(40) - 20)
			dim := int64(rng.Intn(12))
			minDim := int64(rng.Intn(int(dim) + 1))
			p.Lo[a], p.Hi[a] = lo, lo+dim-minDim
			p.Lo[b], p.Hi[b] = lo+minDim, lo+dim
		} else {
			for _, v := range []int{a, b} {
				p.Lo[v] = int64(rng.Intn(30) - 15)
				p.Hi[v] = p.Lo[v] + int64(rng.Intn(3)*rng.Intn(8))
			}
		}
		maxWidth := p.Hi[b] - p.Lo[a]
		switch rng.Intn(4) {
		case 0:
			p.AddConstraint(b, a, maxWidth) // tight
		case 1:
			p.AddConstraint(b, a, maxWidth+int64(rng.Intn(2))) // tight or infeasible
		default:
			p.AddConstraint(b, a, int64(rng.Intn(25)-10))
		}
		c := int64(rng.Intn(7) - 3)
		if rng.Intn(3) == 0 {
			c = 0
		}
		p.C[b], p.C[a] = c, -c
	}
	return p
}

// TestPairsMatchesDualMCF checks the closed form against both dual
// min-cost-flow solvers on random pair problems: every solution passes
// Check and has the optimal objective, and every infeasible instance is
// reported as ErrInfeasible by all three solvers. One reused NewPairs
// solver runs the whole stream, so its buffer reuse is covered too.
func TestPairsMatchesDualMCF(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pairs := NewPairs()
	ctx := context.Background()
	var feasible, infeasible int
	for it := 0; it < 2000; it++ {
		p := randomPairs(rng, 1+rng.Intn(8))
		x, obj, err := pairs(ctx, p)
		_, sspObj, sspErr := ViaSSP(ctx, p)
		_, nsObj, nsErr := ViaNetworkSimplex(ctx, p)
		if errors.Is(sspErr, ErrInfeasible) {
			infeasible++
			if !errors.Is(err, ErrInfeasible) || !errors.Is(nsErr, ErrInfeasible) {
				t.Fatalf("it %d: SSP says infeasible, pairs err=%v, network simplex err=%v; problem %+v", it, err, nsErr, p)
			}
			continue
		}
		if sspErr != nil || nsErr != nil || err != nil {
			t.Fatalf("it %d: ssp err=%v, network simplex err=%v, pairs err=%v; problem %+v", it, sspErr, nsErr, err, p)
		}
		feasible++
		if cerr := p.Check(x); cerr != nil {
			t.Fatalf("it %d: pairs solution %v fails Check: %v", it, x, cerr)
		}
		if got := p.Objective(x); got != obj {
			t.Fatalf("it %d: pairs reports objective %d, its x gives %d", it, obj, got)
		}
		if obj != sspObj || obj != nsObj {
			t.Fatalf("it %d: objective pairs=%d ssp=%d network simplex=%d; problem %+v", it, obj, sspObj, nsObj, p)
		}
	}
	if feasible < 200 || infeasible < 200 {
		t.Fatalf("generator too one-sided: %d feasible, %d infeasible", feasible, infeasible)
	}
}

// TestPairsRejectsMalformed checks that every problem outside the
// independent-pairs shape returns ErrNotPairs and no solution, even when
// it is feasible and a general solver would answer it.
func TestPairsRejectsMalformed(t *testing.T) {
	base := func() *Problem {
		p := NewProblem(6, 20)
		for k := 0; k < 3; k++ {
			p.AddConstraint(2*k+1, 2*k, 4)
			p.C[2*k+1], p.C[2*k] = int64(k+1), -int64(k+1)
		}
		return p
	}
	if _, _, err := NewPairs()(context.Background(), base()); err != nil {
		t.Fatalf("well-formed base problem rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Problem)
	}{
		{"odd N", func(p *Problem) {
			p.C, p.Lo, p.Hi = append(p.C, 0), append(p.Lo, 0), append(p.Hi, 20)
		}},
		{"missing constraint", func(p *Problem) { p.Cons = p.Cons[:2] }},
		{"extra constraint", func(p *Problem) { p.AddConstraint(5, 4, 1) }},
		{"swapped I and J", func(p *Problem) { p.Cons[1].I, p.Cons[1].J = p.Cons[1].J, p.Cons[1].I }},
		{"cross-pair constraint", func(p *Problem) { p.Cons[2] = Constraint{I: 5, J: 2, B: 4} }},
		{"C[a] != -C[b]", func(p *Problem) { p.C[2] = 5 }},
	} {
		p := base()
		tc.mutate(p)
		x, _, err := NewPairs()(context.Background(), p)
		if !errors.Is(err, ErrNotPairs) {
			t.Errorf("%s: err = %v, want ErrNotPairs", tc.name, err)
		}
		if x != nil {
			t.Errorf("%s: returned a solution %v alongside the error", tc.name, x)
		}
	}
}
