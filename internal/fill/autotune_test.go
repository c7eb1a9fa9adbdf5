package fill

import (
	"testing"

	"dummyfill/internal/gdsii"
	"dummyfill/internal/layio"
	"dummyfill/internal/score"
	"dummyfill/internal/synth"
)

func TestAutoTuneLambdaPicksBest(t *testing.T) {
	lay := tinyLayout(t)
	sp := synth.DesignTiny()
	c, err := synth.Coefficients(sp, lay)
	if err != nil {
		t.Fatal(err)
	}
	opts, res, err := AutoTuneLambda(lay, c, DefaultOptions(), []float64{1.0, 1.3})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Lambda != 1.0 && opts.Lambda != 1.3 {
		t.Fatalf("tuned λ = %v not among candidates", opts.Lambda)
	}
	if res == nil || len(res.Solution.Fills) == 0 {
		t.Fatal("no result returned")
	}
	// The tuned result must be at least as good as both candidates
	// individually (it IS one of them).
	for _, lambda := range []float64{1.0, 1.3} {
		o := DefaultOptions()
		o.Lambda = lambda
		e, err := New(lay, o)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		sz, err := gdsii.DeckSize(layio.SolutionDeck, lay, &r.Solution)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := score.Measure(lay, &r.Solution, sz, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		q := score.Score(raw, c).Quality

		szB, _ := gdsii.DeckSize(layio.SolutionDeck, lay, &res.Solution)
		rawB, err := score.Measure(lay, &res.Solution, szB, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if best := score.Score(rawB, c).Quality; best+1e-9 < q {
			t.Fatalf("tuned quality %.4f below candidate λ=%v quality %.4f", best, lambda, q)
		}
	}
}

func TestAutoTuneLambdaRejectsBadCandidates(t *testing.T) {
	lay := tinyLayout(t)
	if _, _, err := AutoTuneLambda(lay, score.Coefficients{}, DefaultOptions(), []float64{0.5}); err == nil {
		t.Fatal("λ < 1 candidate must error")
	}
}

func TestMaxAspectShapesFills(t *testing.T) {
	lay := tinyLayout(t)
	opts := DefaultOptions()
	opts.MaxAspect = 2
	e, err := New(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Measure the aspect distribution: the constrained run must have a
	// lower mean aspect than the unconstrained one (exact enforcement is
	// impossible for cells that are already thin — fills only shrink).
	meanAspect := func(r *Result) float64 {
		var s float64
		for _, f := range r.Solution.Fills {
			w, h := float64(f.Rect.W()), float64(f.Rect.H())
			a := w / h
			if a < 1 {
				a = 1 / a
			}
			s += a
		}
		return s / float64(len(r.Solution.Fills))
	}
	e2, err := New(lay, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if meanAspect(res) >= meanAspect(base) {
		t.Fatalf("MaxAspect did not reduce mean aspect: %.2f vs %.2f",
			meanAspect(res), meanAspect(base))
	}
}
