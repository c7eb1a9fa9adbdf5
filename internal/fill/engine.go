package fill

import (
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

// New validates the layout and constructs an engine.
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
	cmp64 := func(a, b int64) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	slices.SortFunc(fills, func(a, b layout.Fill) int {
		if a.Layer != b.Layer {
			return a.Layer - b.Layer
		}
		if c := cmp64(a.Rect.YL, b.Rect.YL); c != 0 {
			return c
		}
		if c := cmp64(a.Rect.XL, b.Rect.XL); c != 0 {
			return c
		}
		if c := cmp64(a.Rect.YH, b.Rect.YH); c != 0 {
			return c
		}
		return cmp64(a.Rect.XH, b.Rect.XH)
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

// prepScratch is the per-task scratch of the parallel window preparation.
type prepScratch struct {
	clips [][]geom.Rect
	cnt   []int32
}

var prepPool = sync.Pool{New: func() any { return new(prepScratch) }}

// prepareWindows clips fill regions and wires into windows: each window
// layer ends up with its inset free pieces and the disjoint union slabs
// (plus exact union area) of its wires. Candidate cells are not
// materialized here — selection tiles them on demand from the free pieces.
//
// The work is sharded per (layer, window-row) stripe: a serial binning
// pass assigns each shape to the rows it overlaps, then stripe tasks run
// on the worker pool, each exclusively owning the (window, layer) states
// of its row. Appends follow input shape order, so the prepared windows
// are identical to a serial run. A non-nil error is only ever the
// context's cancellation error.
func (e *Engine) prepareWindows(ctx context.Context) ([]*window, error) {
	nw := e.g.NumWindows()
	nl := len(e.lay.Layers)
	nx, ny := e.g.NX, e.g.NY
	wins := make([]*window, nw)
	winStore := make([]window, nw)
	layerStore := make([]winLayer, nw*nl)
	for k := 0; k < nw; k++ {
		i, j := k%nx, k/nx
		winStore[k] = window{rect: e.g.Window(i, j), layers: layerStore[k*nl : (k+1)*nl : (k+1)*nl]}
		wins[k] = &winStore[k]
	}

	// Serial binning: per layer, the fill-region and wire indices hitting
	// each window row. Index arithmetic only — no clipping yet.
	type rowBins struct {
		free, wire [][]int32
	}
	bins := make([]rowBins, nl)
	for li := range e.lay.Layers {
		layer := e.lay.Layers[li]
		bins[li].free = make([][]int32, ny)
		bins[li].wire = make([][]int32, ny)
		for si, fr := range layer.FillRegions {
			if _, j0, _, j1, ok := e.g.CellRange(fr); ok {
				for j := j0; j <= j1; j++ {
					bins[li].free[j] = append(bins[li].free[j], int32(si))
				}
			}
		}
		for si, wr := range layer.Wires {
			if _, j0, _, j1, ok := e.g.CellRange(wr); ok {
				for j := j0; j <= j1; j++ {
					bins[li].wire[j] = append(bins[li].wire[j], int32(si))
				}
			}
		}
	}

	// Free-region pieces (and hence the cells tiled from them) may abut:
	// Difference-slab decomposition splits regions into touching slabs and
	// window clipping cuts regions at window borders. The mode's clipFree
	// applies its legality margin to every window-clipped piece (rect mode
	// insets by half the minimum spacing; site mode shrinks by the padding
	// keepout) so cells placed in it are pairwise legal from birth —
	// including across window boundaries, which per-window sizing could
	// not repair.

	// Stripe tasks: task t covers layer t/ny, window row t%ny.
	err := e.parallelFor(ctx, nl*ny, "prep", func(_ context.Context, t int) error {
		li, j := t/ny, t%ny
		layer := e.lay.Layers[li]
		sc := prepPool.Get().(*prepScratch)
		defer prepPool.Put(sc)
		if cap(sc.clips) < nx {
			sc.clips = make([][]geom.Rect, nx)
		}
		clips := sc.clips[:nx]
		if cap(sc.cnt) < nx {
			sc.cnt = make([]int32, nx)
		}
		cnt := sc.cnt[:nx]
		for i := range cnt {
			cnt[i] = 0
		}

		// Free regions: count per window, then fill exact-capacity buckets.
		for _, si := range bins[li].free[j] {
			if i0, _, i1, _, ok := e.g.CellRange(layer.FillRegions[si]); ok {
				for i := i0; i <= i1; i++ {
					cnt[i]++
				}
			}
		}
		for i := 0; i < nx; i++ {
			if cnt[i] > 0 {
				wins[j*nx+i].layers[li].free = make([]geom.Rect, 0, cnt[i])
			}
		}
		for _, si := range bins[li].free[j] {
			fr := layer.FillRegions[si]
			i0, _, i1, _, ok := e.g.CellRange(fr)
			if !ok {
				continue
			}
			for i := i0; i <= i1; i++ {
				clip := e.mode.clipFree(fr, wins[j*nx+i].rect)
				if clip.Empty() {
					continue
				}
				wl := &wins[j*nx+i].layers[li]
				wl.free = append(wl.free, clip)
			}
		}

		// Wires: record per-window incident wire indices (4 bytes each,
		// retained until the window is emitted) and compute the exact
		// union wire area from per-column clip buckets. Later stages
		// re-clip from the indices into pooled scratch on demand — no
		// stage rescans the layout's full wire list, and no clipped wire
		// geometry is retained across the run.
		for i := range cnt {
			cnt[i] = 0
		}
		for _, si := range bins[li].wire[j] {
			if i0, _, i1, _, ok := e.g.CellRange(layer.Wires[si]); ok {
				for i := i0; i <= i1; i++ {
					cnt[i]++
				}
			}
		}
		for i := 0; i < nx; i++ {
			if cnt[i] > 0 {
				wins[j*nx+i].layers[li].wires = make([]int32, 0, cnt[i])
			}
		}
		for _, si := range bins[li].wire[j] {
			wr := layer.Wires[si]
			i0, _, i1, _, ok := e.g.CellRange(wr)
			if !ok {
				continue
			}
			for i := i0; i <= i1; i++ {
				if c := wr.Intersect(wins[j*nx+i].rect); !c.Empty() {
					wl := &wins[j*nx+i].layers[li]
					wl.wires = append(wl.wires, int32(si))
					clips[i] = append(clips[i], c)
				}
			}
		}
		for i := 0; i < nx; i++ {
			if len(clips[i]) > 0 {
				wins[j*nx+i].layers[li].wireArea = geom.UnionArea(clips[i])
				clips[i] = clips[i][:0]
			}
		}
		sc.clips = clips
		return nil
	})
	if err != nil {
		return nil, err
	}
	return wins, nil
}

// windowTargets converts the per-layer target densities into per-window
// target fill areas, clamped to what the window can hold (Eqn. 5). The
// returned slice aliases scratch storage.
func (e *Engine) windowTargets(w *window, td []float64, sc *sizeScratch) []int64 {
	nl := len(w.layers)
	out := growI64(sc.targets, nl)
	sc.targets = out
	selArea := growI64(sc.selArea, nl)
	sc.selArea = selArea
	for _, c := range w.sel {
		selArea[c.layer] += c.rect.Area()
	}
	aw := float64(w.rect.Area())
	for l := 0; l < nl; l++ {
		want := int64(td[l]*aw) - w.layers[l].wireArea
		if want < 0 {
			want = 0
		}
		if want > selArea[l] {
			want = selArea[l]
		}
		out[l] = want
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

// parallelFor runs fn(ctx, idx) for every idx in [0,n) across the worker
// pool. See parallelForWorkers.
func (e *Engine) parallelFor(ctx context.Context, n int, stage string, fn func(ctx context.Context, idx int) error) error {
	return e.parallelForWorkers(ctx, n, stage, func() func(context.Context, int) error { return fn })
}

// parallelForWorkers runs the tasks [0,n) across the worker pool. Each
// worker goroutine calls newWorker once and runs every task it claims
// through the returned function, so per-worker state lives in its
// closure. Workers claim tasks in ascending index order, every worker
// under the pprof label {"stage": stage} so CPU profiles attribute
// samples to pipeline stages. One worker runs the same pool with a
// single goroutine.
// The first error cancels the run promptly and is returned: the pool's
// derived context is cancelled immediately, so in-flight siblings
// blocked inside a task observe ctx.Done() without waiting for a task
// boundary, and no new task is claimed after a failure. Cancellation of
// the parent context likewise stops the pool and returns its error.
func (e *Engine) parallelForWorkers(ctx context.Context, n int, stage string, newWorker func() func(ctx context.Context, idx int) error) error {
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
			fn := newWorker()
			pprof.Do(wctx, labels, func(ctx context.Context) {
				for ctx.Err() == nil {
					idx := int(next.Add(1)) - 1
					if idx >= n {
						return
					}
					if err := fn(ctx, idx); err != nil {
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
