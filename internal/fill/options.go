// Package fill implements the paper's dummy fill insertion framework
// (Fig. 3): window-level target density planning, candidate fill
// generation with overlay awareness (Alg. 1), and fill sizing via
// alternating-direction dual min-cost flow (§3.3).
package fill

import (
	"time"

	"dummyfill/internal/dlp"
	"dummyfill/internal/faultinject"
	"dummyfill/internal/fillcache"
	"dummyfill/internal/layout"
)

// Options tune the engine. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// Mode selects the fill-mode strategy. ModeRect (also the empty
	// string) is the paper's continuous mode: rectangles tiled from free
	// space, shrunk continuously by the sizing LP. ModeSite is filler-cell
	// placement: candidates snap to the layout's placement rows/sites and
	// widths come from the discrete SiteLib master library; it requires
	// Layout.Sites. Both modes share the planner, reorder buffer and
	// emitters, so the byte-identical determinism contract holds for each.
	Mode string
	// SitePad is the site-mode padding constraint, in sites: fillers keep
	// at least SitePad empty sites between themselves and any placed cell
	// or wire on the same row (OpenROAD's filler padding). Ignored by
	// ModeRect.
	SitePad int
	// SiteLib is the site-mode filler master library (nil = the
	// power-of-two DefaultFillLib). Ignored by ModeRect.
	SiteLib *layout.FillLib
	// Lambda is the candidate overfill factor λ ≥ 1 of Alg. 1: candidates
	// are generated until each window reaches λ·(target density).
	Lambda float64
	// Eta is the overlay weight η in the sizing objective (Eqn. 9a).
	Eta int64
	// NewSolver supplies a fresh solver per worker for the per-direction
	// difference-constraint LPs, letting a solver reuse its buffers
	// across the windows a worker sizes without any cross-worker sharing.
	// DefaultOptions uses dlp.NewWarmSSP, the dual min-cost-flow solver
	// with a reusable arena (it keeps no state between solves despite
	// its name). For ablation studies, a
	// closure returning a stateless solver such as dlp.ViaSSP,
	// dlp.ViaNetworkSimplex or the dense-simplex dlp.ViaSimplexLP is a
	// drop-in choice. The fill cache keys entries on the factory's
	// function symbol, so a cached run must not vary solvers through one
	// shared closure.
	NewSolver func() dlp.PSolver
	// Workers bounds window-level parallelism (0 = GOMAXPROCS).
	Workers int
	// Budget is a soft per-run time budget (0 = unlimited). When it
	// expires mid-run, remaining windows skip LP sizing and emit their
	// candidates unshrunk — still DRC-clean — and the run completes with
	// Result.Health.BudgetExceeded set instead of failing. Contrast with
	// cancelling the RunContext context, which aborts the run with no
	// Result. Negative values are rejected by New: a negative budget is
	// always a caller bug (an elapsed deadline subtraction gone wrong),
	// and silently treating it as unlimited would invert the intent.
	Budget time.Duration
	// Inject enables deterministic fault injection at the engine's solver
	// and sizing sites — a test harness for the degradation paths. Nil
	// (the default) injects nothing.
	Inject *faultinject.Injector
	// Cache enables the persistent content-addressed window cache for
	// incremental (ECO) re-fill: windows whose content and plan targets
	// match a previous run skip candidate generation and sizing and
	// replay the stored fills, byte-identical to a cold run (DESIGN.md
	// §13). Nil (the default) disables caching. The cache is best-effort:
	// corrupt or unwritable entries cost time, never correctness, and
	// are counted in Health.CacheErrors. Runs that inject engine-level
	// faults bypass the cache so fault patterns stay deterministic.
	Cache *fillcache.Cache
}

// Fixed engine parameters. gamma and maxSizingPasses shape window fills
// and are covered by engineCacheVersion, so changing either needs a
// version bump; planSteps acts only through the plan targets, which
// cache entries validate directly.
const (
	// gamma is the γ weight of the candidate quality score (Eqn. 8); the
	// paper's experiments use γ = 1.
	gamma = 1
	// planSteps is the search resolution of Case-II target density
	// planning (§3.1).
	planSteps = 24
	// maxSizingPasses bounds the alternating H/V sizing iterations.
	maxSizingPasses = 6
)

// DefaultOptions returns the parameters used in the paper's experiments
// where stated (η = 1) and sensible defaults elsewhere.
func DefaultOptions() Options {
	return Options{
		Lambda:    1.15,
		Eta:       1,
		NewSolver: dlp.NewWarmSSP,
	}
}
