package dlp

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestShiftInvariance: adding a constant c to all bounds of a
// difference-constraint problem shifts the optimal objective by c·Σcost
// (the constraints only see differences, so the optimal point shifts
// rigidly).
func TestShiftInvariance(t *testing.T) {
	f := func(seed int64, shiftQ uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		p := NewProblem(n, int64(4+rng.Intn(8)))
		var sumC int64
		for i := 0; i < n; i++ {
			p.C[i] = int64(rng.Intn(9) - 4)
			sumC += p.C[i]
		}
		for k := 0; k < rng.Intn(n); k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				p.AddConstraint(i, j, int64(rng.Intn(5)-2))
			}
		}
		_, obj1, err1 := ViaSSP(context.Background(), p)

		shift := int64(shiftQ%17) - 8
		q := NewProblem(n, 0)
		copy(q.C, p.C)
		for i := 0; i < n; i++ {
			q.Lo[i] = p.Lo[i] + shift
			q.Hi[i] = p.Hi[i] + shift
		}
		q.Cons = append(q.Cons, p.Cons...)
		_, obj2, err2 := ViaSSP(context.Background(), q)

		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return obj2 == obj1+shift*sumC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCostScaling: multiplying every cost by a positive constant scales
// the optimal objective by the same constant (the argmin set is
// unchanged).
func TestCostScaling(t *testing.T) {
	f := func(seed int64, kQ uint8) bool {
		k := int64(kQ%5) + 1
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		p := NewProblem(n, int64(3+rng.Intn(6)))
		for i := 0; i < n; i++ {
			p.C[i] = int64(rng.Intn(9) - 4)
		}
		for c := 0; c < rng.Intn(n); c++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				p.AddConstraint(i, j, int64(rng.Intn(5)-2))
			}
		}
		_, obj1, err1 := ViaSSP(context.Background(), p)

		q := NewProblem(n, 0)
		copy(q.Lo, p.Lo)
		copy(q.Hi, p.Hi)
		for i := range q.C {
			q.C[i] = k * p.C[i]
		}
		q.Cons = append(q.Cons, p.Cons...)
		_, obj2, err2 := ViaSSP(context.Background(), q)

		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return obj2 == k*obj1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestTighteningBoundsNeverImproves: shrinking the feasible box can only
// keep the optimum equal or make it worse (larger).
func TestTighteningBoundsNeverImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for it := 0; it < 100; it++ {
		n := 2 + rng.Intn(5)
		p := NewProblem(n, int64(6+rng.Intn(6)))
		for i := 0; i < n; i++ {
			p.C[i] = int64(rng.Intn(9) - 4)
		}
		for c := 0; c < rng.Intn(n); c++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				p.AddConstraint(i, j, int64(rng.Intn(5)-2))
			}
		}
		_, obj1, err1 := ViaSSP(context.Background(), p)
		if err1 != nil {
			continue
		}
		q := NewProblem(n, 0)
		copy(q.C, p.C)
		q.Cons = append(q.Cons, p.Cons...)
		for i := 0; i < n; i++ {
			q.Lo[i] = p.Lo[i] + int64(rng.Intn(2))
			q.Hi[i] = p.Hi[i] - int64(rng.Intn(2))
		}
		_, obj2, err2 := ViaSSP(context.Background(), q)
		if err2 != nil {
			continue // tightening made it infeasible: fine
		}
		if obj2 < obj1 {
			t.Fatalf("it %d: tightening improved the optimum: %d < %d", it, obj2, obj1)
		}
	}
}
