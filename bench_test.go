// Benchmark harness regenerating the paper's tables and figures (see
// DESIGN.md §4 for the experiment index):
//
//	BenchmarkTable2_*       — benchmark statistics (Table 2)
//	BenchmarkTable3_*       — method comparison (Table 3); custom metrics
//	                          quality/score/fills are attached per run
//	BenchmarkFig6_*         — the dual min-cost-flow worked example
//	BenchmarkAblation_*     — design-choice studies: dual MCF vs. dense
//	                          simplex, SSP vs. network simplex, λ sweep,
//	                          window-size sweep
//
// Run `go test -bench=. -benchmem` (design m takes minutes per pass), or
// restrict with e.g. `-bench 'Table3/s'`.
package dummyfill_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	dummyfill "dummyfill"
	"dummyfill/internal/dlp"
	"dummyfill/internal/lps"
	"dummyfill/internal/mcf"
	"dummyfill/internal/synth"
)

// BenchmarkTable2_Statistics regenerates the benchmark-statistics table:
// design generation + coefficient calibration for each design.
func BenchmarkTable2_Statistics(b *testing.B) {
	for _, name := range []string{"s", "b", "m"} {
		b.Run(name, func(b *testing.B) {
			skipLargeInShort(b, name)
			for i := 0; i < b.N; i++ {
				lay, coeffs, err := dummyfill.GenerateBenchmark(name)
				if err != nil {
					b.Fatal(err)
				}
				if coeffs.BetaOverlay <= 0 {
					b.Fatal("calibration failed")
				}
				b.ReportMetric(float64(lay.NumShapes()), "shapes")
			}
		})
	}
}

// BenchmarkTable3_Comparison regenerates the method-comparison table: one
// sub-benchmark per (design, method) with quality/score/fills attached.
func BenchmarkTable3_Comparison(b *testing.B) {
	for _, name := range []string{"s", "b", "m"} {
		if testing.Short() && name == "m" {
			continue // skip before the minutes-long generation/calibration
		}
		lay, coeffs, err := dummyfill.GenerateBenchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range dummyfill.AllMethods(dummyfill.DefaultOptions()) {
			b.Run(name+"/"+m.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rep, sol, err := dummyfill.RunMethod(m, lay, coeffs)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(rep.Quality, "quality")
					b.ReportMetric(rep.Total, "score")
					b.ReportMetric(float64(len(sol.Fills)), "fills")
				}
			})
		}
	}
}

// BenchmarkFig6_DualMCF solves the paper's worked example (min x1+2x2+3x3+
// 4x4, x1−x2≥5, x4−x3≥6, 0≤x≤10 → x = 5,0,0,6) through both min-cost-flow
// solvers.
func BenchmarkFig6_DualMCF(b *testing.B) {
	build := func() *dlp.Problem {
		p := dlp.NewProblem(4, 10)
		p.C = []int64{1, 2, 3, 4}
		p.AddConstraint(0, 1, 5)
		p.AddConstraint(3, 2, 6)
		return p
	}
	for _, s := range []struct {
		name   string
		solver dlp.PSolver
	}{{"SSP", dlp.ViaSSP}, {"NetworkSimplex", dlp.ViaNetworkSimplex}} {
		b.Run(s.name, func(b *testing.B) {
			p := build()
			for i := 0; i < b.N; i++ {
				x, obj, err := s.solver(context.Background(), p)
				if err != nil {
					b.Fatal(err)
				}
				if obj != 29 || x[0] != 5 {
					b.Fatalf("wrong solution: %v obj %d", x, obj)
				}
			}
		})
	}
}

// skipLargeInShort skips the minutes-long design "m" passes under
// `go test -short` so CI stays fast.
func skipLargeInShort(b *testing.B, design string) {
	b.Helper()
	if testing.Short() && design == "m" {
		b.Skip("design m skipped in -short mode")
	}
}

// sizingLP builds a difference-constraint LP shaped like one per-window
// sizing pass: n fills in a row, spacing chains plus width bounds.
func sizingLP(n int) *dlp.Problem {
	p := dlp.NewProblem(2*n, 0)
	for i := 0; i < n; i++ {
		lo := int64(i * 110)
		hi := lo + 100
		p.Lo[2*i], p.Hi[2*i] = lo, hi-8
		p.Lo[2*i+1], p.Hi[2*i+1] = lo+8, hi
		p.C[2*i+1] = int64(50 + i%17)
		p.C[2*i] = -p.C[2*i+1]
		p.AddConstraint(2*i+1, 2*i, 8) // min width
		if i > 0 {
			p.AddConstraint(2*i, 2*(i-1)+1, 10) // spacing to the left fill
		}
	}
	return p
}

// BenchmarkAblation_MCFvsSimplex is the paper's §3.3.3 claim: the dual
// min-cost-flow formulation beats a general LP solver on the relaxed
// sizing problem (whose constraint matrix is totally unimodular, so the
// LP/ILP optima coincide).
func BenchmarkAblation_MCFvsSimplex(b *testing.B) {
	for _, n := range []int{25, 50, 100, 200} {
		p := sizingLP(n)
		b.Run(fmt.Sprintf("DualMCF/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := dlp.ViaSSP(context.Background(), p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Simplex/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lp := lps.NewProblem()
				for v := 0; v < p.N(); v++ {
					lp.AddVar(float64(p.C[v]), float64(p.Lo[v]), float64(p.Hi[v]))
				}
				for _, c := range p.Cons {
					lp.AddConstraint(map[int]float64{c.I: 1, c.J: -1}, lps.GE, float64(c.B))
				}
				if _, err := lp.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_SSPvsNetworkSimplex compares the two min-cost-flow
// solvers on random balanced instances.
func BenchmarkAblation_SSPvsNetworkSimplex(b *testing.B) {
	build := func(n, m int) *mcf.Graph {
		rng := rand.New(rand.NewSource(9))
		g := mcf.NewGraph(n)
		perm := rng.Perm(n)
		for i := 0; i+1 < n; i++ {
			g.AddArc(perm[i], perm[i+1], 1000, int64(rng.Intn(20)))
			g.AddArc(perm[i+1], perm[i], 1000, int64(rng.Intn(20)))
		}
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddArc(u, v, int64(1+rng.Intn(50)), int64(rng.Intn(30)))
			}
		}
		var tot int64
		for i := 0; i < n-1; i++ {
			s := int64(rng.Intn(11) - 5)
			g.SetSupply(i, s)
			tot += s
		}
		g.SetSupply(n-1, -tot)
		return g
	}
	for _, sz := range []struct{ n, m int }{{100, 400}, {400, 1600}} {
		g := build(sz.n, sz.m)
		b.Run(fmt.Sprintf("SSP/n=%d", sz.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var ws mcf.Workspace // one-shot, like SolveNetworkSimplex below
				if err := ws.SolveSSP(context.Background(), g, &mcf.Result{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("NetworkSimplex/n=%d", sz.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.SolveNetworkSimplex(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Lambda sweeps the candidate overfill factor λ (Alg. 1)
// on design s, attaching the resulting quality.
func BenchmarkAblation_Lambda(b *testing.B) {
	lay, coeffs, err := dummyfill.GenerateBenchmark("s")
	if err != nil {
		b.Fatal(err)
	}
	for _, lambda := range []float64{1.0, 1.15, 1.5, 2.0} {
		b.Run(fmt.Sprintf("lambda=%.2f", lambda), func(b *testing.B) {
			opts := dummyfill.DefaultOptions()
			opts.Lambda = lambda
			for i := 0; i < b.N; i++ {
				rep, sol, err := dummyfill.RunMethod(dummyfill.Ours(opts), lay, coeffs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Quality, "quality")
				b.ReportMetric(float64(len(sol.Fills)), "fills")
			}
		})
	}
}

// BenchmarkAblation_WindowSize sweeps the density-analysis window size on
// the tiny design (runtime vs. uniformity resolution trade-off).
func BenchmarkAblation_WindowSize(b *testing.B) {
	sp := synth.DesignTiny()
	for _, win := range []int64{250, 500, 1000} {
		b.Run(fmt.Sprintf("w=%d", win), func(b *testing.B) {
			lay, err := synth.Generate(sp)
			if err != nil {
				b.Fatal(err)
			}
			lay.Window = win
			for i := 0; i < b.N; i++ {
				res, err := dummyfill.Insert(lay, dummyfill.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(res.Solution.Fills)), "fills")
			}
		})
	}
}

// BenchmarkFileFormat_GDSvsOASIS compares the solution encoding cost of
// the two interchange formats the paper names, per method — showing that
// shape count dominates GDSII size while OASIS modal compression flattens
// the gap (the "file size" discussion of §1 and §4).
func BenchmarkFileFormat_GDSvsOASIS(b *testing.B) {
	lay, _, err := dummyfill.GenerateBenchmark("s")
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range dummyfill.AllMethods(dummyfill.DefaultOptions()) {
		sol, _, err := m.Run(context.Background(), lay)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := dummyfill.GDSSize(lay, sol)
				if err != nil {
					b.Fatal(err)
				}
				o, err := dummyfill.OASISSize(lay, sol)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(g), "gds_bytes")
				b.ReportMetric(float64(o), "oasis_bytes")
				b.ReportMetric(float64(len(sol.Fills)), "fills")
			}
		})
	}
}

// BenchmarkAblation_Eta sweeps the overlay weight η in the sizing
// objective (Eqn. 9a) on design s, attaching overlay score and quality.
func BenchmarkAblation_Eta(b *testing.B) {
	lay, coeffs, err := dummyfill.GenerateBenchmark("s")
	if err != nil {
		b.Fatal(err)
	}
	for _, eta := range []int64{0, 1, 4, 16} {
		b.Run(fmt.Sprintf("eta=%d", eta), func(b *testing.B) {
			opts := dummyfill.DefaultOptions()
			opts.Eta = eta
			for i := 0; i < b.N; i++ {
				rep, _, err := dummyfill.RunMethod(dummyfill.Ours(opts), lay, coeffs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Overlay, "overlay")
				b.ReportMetric(rep.Quality, "quality")
			}
		})
	}
}

// BenchmarkCMP_PlanarityImprovement quantifies the paper's motivation:
// worst-layer post-CMP height range before vs. after fill.
func BenchmarkCMP_PlanarityImprovement(b *testing.B) {
	lay, _, err := dummyfill.GenerateBenchmark("s")
	if err != nil {
		b.Fatal(err)
	}
	params := dummyfill.DefaultCMPParams()
	for i := 0; i < b.N; i++ {
		before, err := dummyfill.SimulateCMP(lay, nil, params)
		if err != nil {
			b.Fatal(err)
		}
		res, err := dummyfill.Insert(lay, dummyfill.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		after, err := dummyfill.SimulateCMP(lay, &res.Solution, params)
		if err != nil {
			b.Fatal(err)
		}
		var wb, wa float64
		for li := range before {
			if before[li].Range > wb {
				wb = before[li].Range
			}
			if after[li].Range > wa {
				wa = after[li].Range
			}
		}
		b.ReportMetric(wb/wa, "improvement")
	}
}

// BenchmarkAblation_Solver runs the full engine with each LP backend —
// the end-to-end version of the §3.3.3 speedup claim.
func BenchmarkAblation_Solver(b *testing.B) {
	lay, _, err := dummyfill.GenerateBenchmark("tiny")
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []struct {
		name   string
		solver dlp.PSolver // nil keeps the default warm-started factory
	}{
		{"WarmSSP", nil},
		{"SSP", dlp.ViaSSP},
		{"NetworkSimplex", dlp.ViaNetworkSimplex},
		{"Simplex", dlp.ViaSimplexLP},
	} {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := dummyfill.DefaultOptions()
			if s.solver != nil {
				opts.NewSolver = func() dlp.PSolver { return s.solver }
			}
			for i := 0; i < b.N; i++ {
				if _, err := dummyfill.Insert(lay, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
