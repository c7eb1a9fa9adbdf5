package fill

import (
	"context"
	"errors"
	"fmt"

	"dummyfill/internal/dlp"
	"dummyfill/internal/faultinject"
)

// panicError wraps a recovered panic from a sizing attempt so the fallback
// chain can treat a crashing solver like any other tier failure.
type panicError struct{ val any }

func (p *panicError) Error() string { return fmt.Sprintf("fill: sizing panicked: %v", p.val) }

// attemptSize runs one solver tier over a window with panic isolation: a
// panicking solver, or corrupted intermediate state tripping an internal
// invariant, becomes an error instead of taking down the whole run.
func (e *Engine) attemptSize(ctx context.Context, w *window, targets []int64, sc *sizeScratch, solve dlp.PSolver) (cs []cell, err error) {
	defer func() {
		if r := recover(); r != nil {
			cs, err = nil, &panicError{r}
		}
	}()
	return sizeWindowWith(ctx, w, e.lay, targets, e.opts, sc, solve)
}

// panicSolver stands in for a solver that crashes — the injected
// counterpart of an internal solver bug — to exercise recover isolation.
func panicSolver(context.Context, *dlp.Problem) ([]int64, int64, error) {
	panic("faultinject: injected solver panic")
}

// corruptSolver wraps a solver so its solution is corrupted before the
// engine sees it, exercising the post-solve validation in sizingPass.
func corruptSolver(base dlp.PSolver) dlp.PSolver {
	return func(ctx context.Context, p *dlp.Problem) ([]int64, int64, error) {
		x, obj, err := base(ctx, p)
		if err != nil || len(x) == 0 {
			return x, obj, err
		}
		x[0] = p.Hi[0] + 1 // out of bounds: must be rejected, never applied
		return x, obj, err
	}
}

// sizeWindowResilient sizes one window through the solver fallback chain —
// the worker's solver → one-shot SSP → dense simplex → no-shrink
// degradation — with per-window panic isolation. Only context
// cancellation propagates as an error; every other failure degrades the
// window and is accounted in hc.
// Decisions are keyed by the window index k, never by worker identity, so
// results and health counters are identical for any Workers setting.
//
// cacheable reports whether the result is safe to persist in the fill
// cache: only a first-tier solve with no recovered panic qualifies.
// Fallback-tier outcomes depend on which tier failed, not on window
// content alone, so they may not become sticky through the cache.
func (e *Engine) sizeWindowResilient(ctx context.Context, k int, w *window, targets []int64, sc *sizeScratch, hc *healthCollector) (cells []cell, cacheable bool, err error) {
	inj := e.opts.Inject
	key := uint64(k)

	tiers := [...]struct {
		site  faultinject.Site
		solve dlp.PSolver
	}{
		{faultinject.SiteWarmSolve, sc.solver()},
		{faultinject.SiteColdSolve, dlp.ViaSSP},
		{faultinject.SiteSimplexSolve, dlp.ViaSimplexLP},
	}
	for t, tier := range tiers {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		if inj.Hit(tier.site, key) {
			continue // injected tier failure: fall through to the next tier
		}
		solve := tier.solve
		if t == 0 {
			// Crash and corruption faults target the first tier only, so
			// the chain below it stays available to recover.
			if inj.Hit(faultinject.SitePanic, key) {
				solve = panicSolver
			} else if inj.Hit(faultinject.SiteCorrupt, key) {
				solve = corruptSolver(solve)
			}
		}
		cs, err := e.attemptSize(ctx, w, targets, sc, solve)
		if err == nil {
			hc.sized.Add(1)
			switch t {
			case 1:
				hc.cold.Add(1)
			case 2:
				hc.simplex.Add(1)
			}
			return cs, t == 0, nil
		}
		var pe *panicError
		if errors.As(err, &pe) {
			hc.recovered.Add(1)
			if t == 0 {
				// Whatever state the panic left in the solver is suspect;
				// give this scratch a fresh one for later windows.
				sc.solve = e.opts.NewSolver()
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, false, cerr // hard abort: cancellation is not degradable
		}
	}

	hc.degraded.Add(1)
	return e.noShrinkCells(w, targets, sc), false, nil
}

// noShrinkCells is the terminal degradation: emit the window's selected
// candidates unshrunk, pruned down to the target areas. Candidates are
// legal from birth (the tiling pitch includes the spacing rule and
// window-border pieces are inset by half of it), so the result stays
// DRC-clean — the window just forgoes density/overlay optimization. The
// returned slice aliases scratch storage.
func (e *Engine) noShrinkCells(w *window, targets []int64, sc *sizeScratch) []cell {
	if len(w.sel) == 0 {
		return nil
	}
	cells := append(sc.cells[:0], w.sel...)
	sc.cells = cells
	cells = pruneSurplusScratch(cells, targets, len(e.lay.Layers), sc)

	// Defensive legalization: even if the candidate set was corrupted,
	// never emit a spacing conflict or a sub-minimum shape. Conflicts keep
	// the higher-quality cell (ties keep the earlier one) — deterministic
	// because candidate order is window-owned.
	rules := e.lay.Rules
	drop := growBool(sc.drop, len(cells))
	sc.drop = drop
	for i := 0; i < len(cells); i++ {
		if drop[i] {
			continue
		}
		for j := i + 1; j < len(cells); j++ {
			if drop[j] || cells[i].layer != cells[j].layer {
				continue
			}
			gx, gy := cells[i].rect.Gap(cells[j].rect)
			if gx < rules.MinSpace && gy < rules.MinSpace {
				if cells[j].quality <= cells[i].quality {
					drop[j] = true
				} else {
					drop[i] = true
					break
				}
			}
		}
	}
	out := cells[:0]
	for i, c := range cells {
		if drop[i] {
			continue
		}
		r := c.rect
		if r.W() >= rules.MinWidth && r.H() >= rules.MinWidth && r.Area() >= rules.MinArea {
			out = append(out, c)
		}
	}
	return out
}
