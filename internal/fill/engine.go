package fill

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"

	"dummyfill/internal/density"
	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
	"dummyfill/internal/layout"
	"dummyfill/internal/score"
)

// Engine runs the full fill insertion flow of Fig. 3 over a layout.
type Engine struct {
	lay  *layout.Layout
	opts Options
	g    *grid.Grid
	mode fillMode
}

// Result is the outcome of a full engine run.
type Result struct {
	Solution layout.Solution
	// FirstTargets and Targets are the per-layer target densities from the
	// two planning rounds (before and after candidate generation).
	FirstTargets []float64
	Targets      []float64
	// Candidates is the number of candidate fills selected by Alg. 1
	// before sizing and pruning.
	Candidates int
	// Windows is the number of grid windows processed.
	Windows int
	// Health reports how gracefully the run completed: solver fallback
	// counts, degraded/skipped windows, recovered panics, budget use.
	Health Health
}

// New validates the layout and constructs an engine. A layout beyond one
// of the grid's caps, such as more windows × layers than
// grid.MaxWindowLayers, fails with an error wrapping grid.ErrLimit (which
// is layio.ErrLimit) before anything is allocated per window.
func New(lay *layout.Layout, opts Options) (*Engine, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	if !(opts.Lambda >= 1) || math.IsInf(opts.Lambda, 1) {
		return nil, fmt.Errorf("fill: Lambda must be finite and >= 1, got %v", opts.Lambda)
	}
	if opts.NewSolver == nil {
		return nil, fmt.Errorf("fill: Options.NewSolver is required (use DefaultOptions)")
	}
	if opts.Budget < 0 {
		return nil, fmt.Errorf("fill: Budget must be >= 0 (0 = unlimited), got %v", opts.Budget)
	}
	g, err := lay.Grid()
	if err != nil {
		return nil, err
	}
	e := &Engine{lay: lay, opts: opts, g: g}
	if e.mode, err = newFillMode(e); err != nil {
		return nil, err
	}
	return e, nil
}

// Run executes the flow: prepare windows → density planning → candidate
// generation (Alg. 1) → density re-planning → alternating-direction LP
// sizing → solution assembly. It is RunContext without cancellation.
func (e *Engine) Run() (*Result, error) { return e.RunContext(context.Background()) }

// RunContext is Run under a context. Cancellation is a hard abort: the
// run stops at the next phase boundary, window claim or solver stride and
// returns the context's error with no partial Result. For graceful
// time-limited runs use Options.Budget instead, which degrades remaining
// windows and still returns a complete, DRC-clean solution.
//
// The result is deterministic regardless of Workers: every parallel stage
// writes only window-owned state, fault and fallback decisions are keyed
// by window index, and the sized fills are released to the solution in
// canonical window order (then canonically sorted) no matter how workers
// were scheduled.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	sink := &solutionSink{fills: make([]layout.Fill, 0)}
	res, err := e.runPipeline(ctx, sink)
	if err != nil {
		return nil, err
	}
	sortFills(sink.fills)
	res.Solution = layout.Solution{Fills: sink.fills}
	return res, nil
}

// sortFills orders fills by (layer, YL, XL, YH, XH) — a canonical order
// independent of worker scheduling and window traversal.
func sortFills(fills []layout.Fill) {
	slices.SortFunc(fills, func(a, b layout.Fill) int {
		return cmp.Or(cmp.Compare(a.Layer, b.Layer),
			cmp.Compare(a.Rect.YL, b.Rect.YL), cmp.Compare(a.Rect.XL, b.Rect.XL),
			cmp.Compare(a.Rect.YH, b.Rect.YH), cmp.Compare(a.Rect.XH, b.Rect.XH))
	})
}

// planWeights derives planning weights from contest α weights with
// layout-scale βs: planning only needs relative weighting, so βs are set
// from the unfilled layout's metrics (worst case) to keep all three terms
// in range. wd are the prep-derived wire density maps.
func (e *Engine) planWeights(wd []*grid.Map) density.PlanWeights {
	c := score.ContestAlphas()
	// Baseline metrics of the unfilled layout.
	var sumSigma, sumLine, sumOut float64
	for _, m := range wd {
		met := density.Measure(m)
		sumSigma += met.Sigma
		sumLine += met.Line
		sumOut += met.Outlier
	}
	w := density.PlanWeights{
		AlphaVar: c.AlphaVar, BetaVar: sumSigma,
		AlphaLine: c.AlphaLine, BetaLine: sumLine,
		AlphaOutlier: c.AlphaOutlier, BetaOutlier: sumSigma * sumOut,
	}
	// Guard against perfectly uniform inputs.
	if w.BetaVar <= 0 {
		w.BetaVar = 1
	}
	if w.BetaLine <= 0 {
		w.BetaLine = 1
	}
	if w.BetaOutlier <= 0 {
		w.BetaOutlier = 1
	}
	return w
}

// prepareWindows clips fill regions and wires into windows: each window
// layer ends up with its inset free pieces and the disjoint union slabs
// (plus exact union area) of its wires. Candidate cells are not
// materialized here — selection tiles them on demand from the free pieces.
//
// grid.Bin groups each layer's shapes by window in input order, then
// one task per (layer, window-row) stripe runs on the worker pool, each
// exclusively owning the (window, layer) states of its row, so the
// prepared windows are identical to a serial run. A non-nil error is
// only ever the context's cancellation error.
func (e *Engine) prepareWindows(ctx context.Context) ([]window, error) {
	nw := e.g.NumWindows()
	nl := len(e.lay.Layers)
	nx, ny := e.g.NX, e.g.NY
	wins := make([]window, nw)
	layerStore := make([]winLayer, nw*nl)
	for k := range wins {
		wins[k] = window{rect: e.g.Window(k%nx, k/nx), layers: layerStore[k*nl : (k+1)*nl : (k+1)*nl]}
	}
	freeBins := make([]grid.Bins, nl)
	wireBins := make([]grid.Bins, nl)
	for li, layer := range e.lay.Layers {
		freeBins[li] = e.g.Bin(layer.FillRegions, 0)
		wireBins[li] = e.g.Bin(layer.Wires, 0)
	}

	// Free-region pieces (and hence the cells tiled from them) may abut:
	// Difference-slab decomposition splits regions into touching slabs and
	// window clipping cuts regions at window borders. The mode's clipFree
	// applies its legality margin to every window-clipped piece (rect mode
	// insets by half the minimum spacing; site mode shrinks by the padding
	// keepout) so cells placed in it are pairwise legal from birth —
	// including across window boundaries, which per-window sizing could
	// not repair.
	//
	// A window's wires are its bin: 4 bytes per incidence in one array
	// per layer. Later stages re-clip from the indices into the worker's
	// scratch on demand, so no clipped wire geometry is retained across
	// the run; here the clips only feed the exact union area.

	// Stripe tasks: task t covers layer t/ny, window row t%ny.
	err := e.parallelFor(ctx, nl*ny, "prep", func(_ context.Context, t int, sc *scratch) error {
		li, j := t/ny, t%ny
		layer := e.lay.Layers[li]
		clips := sc.key.clips
		for k := j * nx; k < (j+1)*nx; k++ {
			w := &wins[k]
			wl := &w.layers[li]
			if fb := freeBins[li].Window(k); len(fb) > 0 {
				wl.free = make([]geom.Rect, 0, len(fb))
				for _, si := range fb {
					if clip := e.mode.clipFree(layer.FillRegions[si], w.rect); !clip.Empty() {
						wl.free = append(wl.free, clip)
					}
				}
			}
			if wl.wires = wireBins[li].Window(k); len(wl.wires) > 0 {
				clips = clips[:0]
				for _, si := range wl.wires {
					clips = append(clips, layer.Wires[si].Intersect(w.rect))
				}
				wl.wireArea = geom.UnionArea(clips)
			}
		}
		sc.key.clips = clips
		return nil
	})
	if err != nil {
		return nil, err
	}
	return wins, nil
}

// windowTargets converts the per-layer target densities into per-window
// target fill areas, clamped to what the window selected (Eqn. 5). The
// returned slice aliases scratch storage.
func (e *Engine) windowTargets(w *window, td []float64, sc *sizeScratch) []int64 {
	out := growI64(sc.targets, len(w.layers))
	sc.targets = out
	aw := float64(w.rect.Area())
	for l := range out {
		wl := &w.layers[l]
		out[l] = min(max(int64(td[l]*aw)-wl.wireArea, 0), wl.selArea)
	}
	return out
}

// workerCount resolves the worker-pool size for n independent tasks.
func (e *Engine) workerCount(n int) int {
	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// scratch is one pool worker's reusable state. parallelFor declares one
// per worker goroutine and passes it to every task that worker claims,
// so a task owns its scratch outright and buffers carry over from task to
// task without locking. Every member starts at its zero value and grows
// on first use: the key hasher and the sizing solver are created only by
// a worker that keys or sizes a window.
type scratch struct {
	cand candScratch
	key  keyScratch
	size sizeScratch
}

// parallelFor runs fn(ctx, k, sc) for every task k in [0,n) across the
// worker pool, where sc is the scratch of the worker running the task,
// so one call creates at most min(Workers, n) scratches. Workers claim
// tasks in ascending index order, every worker under the pprof label
// {"stage": stage} so CPU profiles attribute samples to pipeline stages.
// One worker runs the same pool with a single goroutine.
// The first error cancels the run promptly and is returned: the pool's
// derived context is cancelled immediately, so in-flight siblings
// blocked inside a task observe ctx.Done() without waiting for a task
// boundary, and no new task is claimed after a failure. Cancellation of
// the parent context likewise stops the pool and returns its error.
func (e *Engine) parallelFor(ctx context.Context, n int, stage string, fn func(ctx context.Context, k int, sc *scratch) error) error {
	labels := pprof.Labels("stage", stage)
	workers := e.workerCount(n)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		firstErr error
		once     sync.Once
		wg       sync.WaitGroup
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			pprof.Do(wctx, labels, func(ctx context.Context) {
				for ctx.Err() == nil {
					k := int(next.Add(1)) - 1
					if k >= n {
						return
					}
					if err := fn(ctx, k, &sc); err != nil {
						once.Do(func() { firstErr = err })
						cancel()
						return
					}
				}
			})
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
