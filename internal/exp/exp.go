// Package exp runs the paper's experiments as a library: structured rows
// for Table 2 (benchmark statistics), Table 3 (method comparison), the
// Fig. 6 worked example and the CMP-motivation study, plus text / CSV /
// Markdown renderers. cmd/repro is a thin wrapper around this package so
// the experiment logic itself is unit-tested.
package exp

import (
	"context"
	"fmt"

	"dummyfill/internal/baseline"
	"dummyfill/internal/cmppad"
	"dummyfill/internal/dlp"
	"dummyfill/internal/fill"
	"dummyfill/internal/gdsii"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
	"dummyfill/internal/score"
	"dummyfill/internal/synth"
)

// Table2Row is one design's statistics and coefficients.
type Table2Row struct {
	Design    string
	Shapes    int
	Layers    int
	FileSizeB int64
	Coeffs    score.Coefficients
}

// Table2 generates the designs and calibrates their coefficients.
func Table2(designs []string) ([]Table2Row, error) {
	var out []Table2Row
	for _, n := range designs {
		sp, err := synth.ByName(n)
		if err != nil {
			return nil, err
		}
		lay, err := synth.Generate(sp)
		if err != nil {
			return nil, err
		}
		c, err := synth.Coefficients(sp, lay)
		if err != nil {
			return nil, err
		}
		sz, err := gdsii.DeckSize(layio.LayoutDeck, lay, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, Table2Row{
			Design: sp.Name, Shapes: lay.NumShapes(), Layers: len(lay.Layers),
			FileSizeB: sz, Coeffs: c,
		})
	}
	return out, nil
}

// Table3Row is one (design, method) evaluation. Health is set only for
// the engine method ("ours"); the baselines have no degradation modes.
type Table3Row struct {
	Design string
	Method string
	Report *score.Report
	Fills  int
	Health *fill.Health
}

// Method is a named fill runner. The baselines ignore the context and
// return a nil health report.
type Method struct {
	Name string
	Run  func(ctx context.Context, lay *layout.Layout) (*layout.Solution, *fill.Health, error)
}

// Methods returns the paper's engine plus the four baselines.
func Methods(opts fill.Options) []Method {
	ours := Method{Name: "ours", Run: func(ctx context.Context, lay *layout.Layout) (*layout.Solution, *fill.Health, error) {
		e, err := fill.New(lay, opts)
		if err != nil {
			return nil, nil, err
		}
		res, err := e.RunContext(ctx)
		if err != nil {
			return nil, nil, err
		}
		return &res.Solution, &res.Health, nil
	}}
	out := []Method{ours}
	for _, f := range []baseline.Filler{
		baseline.TileLP{},
		baseline.MonteCarlo{Seed: 42},
		baseline.CouplingConstrained{},
		baseline.Greedy{},
	} {
		f := f
		out = append(out, Method{Name: f.Name(), Run: func(ctx context.Context, lay *layout.Layout) (*layout.Solution, *fill.Health, error) {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			sol, err := f.Fill(lay)
			return sol, nil, err
		}})
	}
	return out
}

// MeasureFn runs a workload and reports (seconds, peak MiB). The harness
// supplies a sampler; tests can supply a stub.
type MeasureFn func(func() error) (float64, float64, error)

// Table3 runs every method on every design. measure supplies the
// runtime/memory instrumentation (pass a stub returning zeros to skip).
func Table3(designs []string, opts fill.Options, measure MeasureFn) ([]Table3Row, error) {
	return Table3Ctx(context.Background(), designs, opts, measure)
}

// Design is one ready-to-run evaluation input: a layout plus its
// calibrated score coefficients. Table3Ctx builds these from the
// synthetic suite; callers with external layouts (ingested GDSII/OASIS/
// text files) construct their own.
type Design struct {
	Name   string
	Lay    *layout.Layout
	Coeffs score.Coefficients
}

// Table3Ctx is Table3 under a context: cancellation aborts between (and,
// for the engine, inside) method runs.
func Table3Ctx(ctx context.Context, designs []string, opts fill.Options, measure MeasureFn) ([]Table3Row, error) {
	ds := make([]Design, 0, len(designs))
	for _, n := range designs {
		sp, err := synth.ByName(n)
		if err != nil {
			return nil, err
		}
		lay, err := synth.Generate(sp)
		if err != nil {
			return nil, err
		}
		coeffs, err := synth.Coefficients(sp, lay)
		if err != nil {
			return nil, err
		}
		ds = append(ds, Design{Name: n, Lay: lay, Coeffs: coeffs})
	}
	return Table3Designs(ctx, ds, opts, measure)
}

// Table3Designs runs every method on every pre-built design.
func Table3Designs(ctx context.Context, designs []Design, opts fill.Options, measure MeasureFn) ([]Table3Row, error) {
	var out []Table3Row
	for _, d := range designs {
		n, lay, coeffs := d.Name, d.Lay, d.Coeffs
		for _, m := range Methods(opts) {
			var sol *layout.Solution
			var health *fill.Health
			sec, mem, err := measure(func() error {
				var err error
				sol, health, err = m.Run(ctx, lay)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("design %s method %s: %w", n, m.Name, err)
			}
			sz, err := gdsii.DeckSize(layio.SolutionDeck, lay, sol)
			if err != nil {
				return nil, err
			}
			raw, err := score.Measure(lay, sol, sz, sec, mem)
			if err != nil {
				return nil, err
			}
			out = append(out, Table3Row{
				Design: n, Method: m.Name,
				Report: score.Score(raw, coeffs), Fills: len(sol.Fills),
				Health: health,
			})
		}
	}
	return out, nil
}

// Fig6Result is one solver's answer to the worked example.
type Fig6Result struct {
	Solver    string
	X         []int64
	Objective int64
}

// Fig6 solves the paper's worked example with both dual-MCF backends.
func Fig6() ([]Fig6Result, error) {
	build := func() *dlp.Problem {
		p := dlp.NewProblem(4, 10)
		p.C = []int64{1, 2, 3, 4}
		p.AddConstraint(0, 1, 5)
		p.AddConstraint(3, 2, 6)
		return p
	}
	var out []Fig6Result
	for _, s := range []struct {
		name string
		sv   dlp.PSolver
	}{{"SSP", dlp.ViaSSP}, {"NetworkSimplex", dlp.ViaNetworkSimplex}} {
		x, obj, err := s.sv(context.Background(), build())
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6Result{Solver: s.name, X: x, Objective: obj})
	}
	return out, nil
}

// CMPRow is one (design, layer) planarity comparison.
type CMPRow struct {
	Design      string
	Layer       int
	RangeBefore float64
	RangeAfter  float64
	Improvement float64
}

// CMP runs the planarity motivation study.
func CMP(designs []string, opts fill.Options, params cmppad.Params) ([]CMPRow, error) {
	var out []CMPRow
	for _, n := range designs {
		sp, err := synth.ByName(n)
		if err != nil {
			return nil, err
		}
		lay, err := synth.Generate(sp)
		if err != nil {
			return nil, err
		}
		e, err := fill.New(lay, opts)
		if err != nil {
			return nil, err
		}
		res, err := e.Run()
		if err != nil {
			return nil, err
		}
		_, _, _, before, err := score.MeasureDensity(lay, &layout.Solution{})
		if err != nil {
			return nil, err
		}
		_, _, _, after, err := score.MeasureDensity(lay, &res.Solution)
		if err != nil {
			return nil, err
		}
		for li := range lay.Layers {
			pb, err := cmppad.Evaluate(before[li], params)
			if err != nil {
				return nil, err
			}
			pa, err := cmppad.Evaluate(after[li], params)
			if err != nil {
				return nil, err
			}
			imp := 0.0
			if pa.Range > 0 {
				imp = pb.Range / pa.Range
			}
			out = append(out, CMPRow{
				Design: n, Layer: li,
				RangeBefore: pb.Range, RangeAfter: pa.Range, Improvement: imp,
			})
		}
	}
	return out, nil
}
