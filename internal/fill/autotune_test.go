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
