package dlp

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// randomProblem builds a random feasible-or-not difference-constraint
// instance shaped like a sizing pass.
func randomProblem(rng *rand.Rand, n int) *Problem {
	p := NewProblem(n, 0)
	for i := 0; i < n; i++ {
		lo := int64(rng.Intn(50))
		p.Lo[i] = lo
		p.Hi[i] = lo + int64(rng.Intn(100))
		p.C[i] = int64(rng.Intn(41) - 20)
	}
	for k := 0; k < n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		p.AddConstraint(i, j, int64(rng.Intn(30)-15))
	}
	return p
}

// TestWarmMatchesCold runs one reused NewWarmSSP solver and the cold
// (one-shot) ViaSSP over a stream of random instances that mixes
// feasible, infeasible and cancelled solves, plus re-solves of the
// previous instance with perturbed costs (the shape of the alternating
// sizing loop). Both must return bit-identical solutions, objectives and
// verdicts: no state may cross solves through the reused arena.
func TestWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reused := NewWarmSSP()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var solved, infeasible, aborted int
	var p *Problem
	for it := 0; it < 400; it++ {
		ctx := context.Background()
		switch r := rng.Intn(10); {
		case r == 0:
			// Large enough to reach the solver's mid-solve
			// cancellation check, so the reused arena is left
			// half-written.
			p = randomProblem(rng, 150)
			for i := range p.C {
				p.C[i] = 1 + int64(rng.Intn(20))
			}
			ctx = cancelled
		case r < 4 && p != nil:
			for i := range p.C {
				p.C[i] += int64(rng.Intn(5) - 2)
			}
		default:
			p = randomProblem(rng, 2+rng.Intn(12))
		}
		xr, objR, errR := reused(ctx, p)
		xo, objO, errO := ViaSSP(ctx, p)
		if (errR == nil) != (errO == nil) || (errR != nil && errR.Error() != errO.Error()) {
			t.Fatalf("it %d: verdict mismatch reused=%v one-shot=%v", it, errR, errO)
		}
		switch {
		case errors.Is(errR, context.Canceled):
			aborted++
			continue
		case ctx == cancelled:
			t.Fatalf("it %d: cancelled solve returned %v", it, errR)
		case errors.Is(errR, ErrInfeasible):
			infeasible++
			continue
		case errR != nil:
			t.Fatalf("it %d: unexpected error %v", it, errR)
		}
		solved++
		if objR != objO || !slices.Equal(xr, xo) {
			t.Fatalf("it %d: reused x=%v obj=%d, one-shot x=%v obj=%d", it, xr, objR, xo, objO)
		}
		if err := p.Check(xr); err != nil {
			t.Fatalf("it %d: solution invalid: %v", it, err)
		}
	}
	if solved == 0 || infeasible == 0 || aborted == 0 {
		t.Fatalf("stream missed a verdict: solved=%d infeasible=%d cancelled=%d", solved, infeasible, aborted)
	}
}

// TestWarmSequenceReusesState mimics the alternating-direction sizing
// loop: repeated solves of one instance with slightly perturbed costs
// through one reused NewWarmSSP solver must each return exactly what a
// cold ViaSSP returns for that pass.
func TestWarmSequenceReusesState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	reused := NewWarmSSP()
	ctx := context.Background()
	// Costs do not change feasibility, so start from a feasible instance
	// and every pass must solve.
	base := randomProblem(rng, 20)
	for _, _, err := ViaSSP(ctx, base); err != nil; _, _, err = ViaSSP(ctx, base) {
		base = randomProblem(rng, 20)
	}
	for pass := 0; pass < 10; pass++ {
		for i := range base.C {
			base.C[i] += int64(rng.Intn(5) - 2)
		}
		xr, objR, errR := reused(ctx, base)
		xo, objO, errO := ViaSSP(ctx, base)
		if errR != nil || errO != nil {
			t.Fatalf("pass %d: feasible instance failed: reused=%v cold=%v", pass, errR, errO)
		}
		if objR != objO || !slices.Equal(xr, xo) {
			t.Fatalf("pass %d: reused x=%v obj=%d, cold x=%v obj=%d", pass, xr, objR, xo, objO)
		}
		if err := base.Check(xr); err != nil {
			t.Fatalf("pass %d: solution invalid: %v", pass, err)
		}
	}
}

// TestSolveAfterInfeasible checks a reused solver recovers cleanly after
// an infeasible instance: a worker's solver keeps sizing later windows
// after one fails.
func TestSolveAfterInfeasible(t *testing.T) {
	s := NewWarmSSP()
	bad := NewProblem(2, 10)
	bad.AddConstraint(0, 1, 5)
	bad.AddConstraint(1, 0, 5) // x0-x1 >= 5 and x1-x0 >= 5: impossible
	if _, _, err := s(context.Background(), bad); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	good := NewProblem(2, 10)
	good.C = []int64{1, 1}
	good.AddConstraint(0, 1, 3)
	x, obj, err := s(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	if obj != 3 || x[0]-x[1] < 3 {
		t.Fatalf("bad recovery solution x=%v obj=%d", x, obj)
	}
}

// TestProblemReset verifies Reset matches NewProblem semantics.
func TestProblemReset(t *testing.T) {
	p := NewProblem(3, 7)
	p.C[0] = 5
	p.AddConstraint(0, 1, 2)
	p.Reset(2)
	if p.N() != 2 || len(p.Cons) != 0 {
		t.Fatalf("reset left n=%d cons=%d", p.N(), len(p.Cons))
	}
	for i := 0; i < 2; i++ {
		if p.C[i] != 0 || p.Lo[i] != 0 || p.Hi[i] != 0 {
			t.Fatalf("reset left non-zero state at %d", i)
		}
	}
	// Growing beyond previous capacity must work too.
	p.Reset(64)
	if p.N() != 64 {
		t.Fatalf("reset grow failed: n=%d", p.N())
	}
}

// BenchmarkArenaVsOneShot compares the reused-arena solver the engine
// gives each worker against one-shot ViaSSP on a sizing-shaped LP
// re-solved with perturbed costs. Run with -benchmem: the arena rows must
// report 0 allocs/op.
func BenchmarkArenaVsOneShot(b *testing.B) {
	build := func(n int) *Problem {
		p := NewProblem(2*n, 0)
		for i := 0; i < n; i++ {
			lo := int64(i * 110)
			hi := lo + 100
			p.Lo[2*i], p.Hi[2*i] = lo, hi-8
			p.Lo[2*i+1], p.Hi[2*i+1] = lo+8, hi
			p.C[2*i+1] = int64(50 + i%17)
			p.C[2*i] = -p.C[2*i+1]
			p.AddConstraint(2*i+1, 2*i, 8)
			if i > 0 {
				p.AddConstraint(2*i, 2*(i-1)+1, 10)
			}
		}
		return p
	}
	for _, n := range []int{50, 200} {
		p := build(n)
		b.Run("OneShot/n="+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.C[2*(i%n)+1]++ // perturb like an overlay-cost drift
				if _, _, err := ViaSSP(context.Background(), p); err != nil {
					b.Fatal(err)
				}
			}
		})
		p = build(n)
		b.Run("Arena/n="+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			s := NewWarmSSP()
			for i := 0; i < b.N; i++ {
				p.C[2*(i%n)+1]++
				if _, _, err := s(context.Background(), p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
