package fill

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"dummyfill/internal/density"
	"dummyfill/internal/faultinject"
	"dummyfill/internal/grid"
	"dummyfill/internal/layout"
)

// Sink consumes sized fills as windows complete. EmitWindow is called at
// most once per window, in strictly increasing window index order (the
// canonical row-major grid order), from a single goroutine at a time, and
// only with a non-empty fill slice the sink may retain. A sink error
// aborts the run.
type Sink interface {
	EmitWindow(k int, fills []layout.Fill) error
}

// SinkFunc adapts a function to a Sink.
type SinkFunc func(k int, fills []layout.Fill) error

// EmitWindow calls f.
func (f SinkFunc) EmitWindow(k int, fills []layout.Fill) error { return f(k, fills) }

// solutionSink accumulates emitted fills for Solution assembly.
type solutionSink struct {
	fills []layout.Fill
}

func (s *solutionSink) EmitWindow(_ int, fills []layout.Fill) error {
	s.fills = append(s.fills, fills...)
	return nil
}

// RunStream runs the flow like RunContext but streams each window's sized
// fills to sink in canonical window order instead of assembling them into
// Result.Solution (which is left empty). Fills arrive grouped by window —
// ordered by window index, not globally sorted — which is what the
// streaming GDSII/OASIS writers need to emit shapes with bounded memory.
// The emitted fill set is identical to RunContext's for any Workers
// setting.
func (e *Engine) RunStream(ctx context.Context, sink Sink) (*Result, error) {
	return e.runPipeline(ctx, sink)
}

// runPipeline is the shared streaming pipeline behind RunContext and
// RunStream:
//
//	prep (stream) → plan 1 → candgen (stream) → plan 2 → size+emit (stream)
//
// Each density-planning round (DESIGN.md §11) assembles the per-window
// bounds in one serial pass and runs a single global target search over
// them. Sizing and emission then go through one bounded reorder ring that
// releases windows in canonical order. No stage materializes all
// candidate cells or all sized fills at once.
func (e *Engine) runPipeline(ctx context.Context, sink Sink) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	//filllint:allow nodeterm -- Options.Budget is a documented wall-clock soft deadline; fill geometry stays schedule-independent
	start := time.Now()
	wins, err := e.prepareWindows(ctx)
	if err != nil {
		return nil, err
	}
	hc := &healthCollector{}

	// Planning round 1: bounds from tileable candidate area.
	bounds, wd, err := e.assembleBounds(ctx, wins, false, "plan1", nil)
	if err != nil {
		return nil, err
	}
	pw := e.planWeights(wd)
	plan1, err := density.PlanTargets(bounds, pw, e.opts.PlanSteps)
	if err != nil {
		return nil, err
	}
	e.applyMinDensity(plan1.Td)

	// Cache lookup (nil when Options.Cache is off or bypassed): windows
	// whose content and round-1 targets match a stored entry skip
	// candidate generation; whether their fills replay too is decided
	// after round 2 (DESIGN.md §13).
	cst, err := e.cacheLookup(ctx, wins, plan1.Td, hc)
	if err != nil {
		return nil, err
	}

	// Candidate generation under plan-1 guidance. The free pieces are
	// consumed here: once a window's candidates are selected, only the
	// selection and the wire slabs are still needed downstream. Cache-hit
	// windows keep their free pieces for now — if round 2 drifts from the
	// entry they rerun candgen late in cacheResolve.
	err = e.parallelFor(ctx, len(wins), "candgen", func(_ context.Context, k int) error {
		w := wins[k]
		if cst.selValid(k) {
			return nil
		}
		e.mode.selectCandidates(w, plan1.Td)
		for li := range w.layers {
			w.layers[li].free = nil
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	numCand := 0
	for k, w := range wins {
		if cst.selValid(k) {
			numCand += cst.entries[k].NumSel
		} else {
			numCand += len(w.sel)
		}
	}

	// Planning round 2: bounds restricted to what was actually selected
	// (§3 — "another round of density planning is performed due to the
	// inconsistency between candidate fills and initial plans").
	bounds2, _, err := e.assembleBounds(ctx, wins, true, "plan2", cst)
	if err != nil {
		return nil, err
	}
	plan2, err := density.PlanTargets(bounds2, pw, e.opts.PlanSteps)
	if err != nil {
		return nil, err
	}
	e.applyMinDensity(plan2.Td)
	// Cache resolve: decide replay vs stale now that round-2 targets are
	// known; stale windows rerun candgen here.
	if err := e.cacheResolve(ctx, wins, cst, plan2.Td, hc); err != nil {
		return nil, err
	}
	uppers := make([]*grid.Map, len(bounds2))
	for i := range bounds2 {
		uppers[i] = bounds2[i].Upper
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if err := e.sizeAndEmit(ctx, wins, plan2.Td, sink, hc, start, cst); err != nil {
		return nil, err
	}

	return &Result{
		FirstTargets: plan1.Td,
		Targets:      plan2.Td,
		Candidates:   numCand,
		UpperBounds:  uppers,
		Windows:      len(wins),
		//filllint:allow nodeterm -- Health reports observed wall-clock spend; it never feeds back into geometry
		Health: hc.health(len(wins), e.opts.Budget, time.Since(start)),
	}, nil
}

// assembleBounds builds the global per-layer planning bounds in one
// serial pass over the windows. When selected is false the upper bound
// uses the closed-form tileable area of the free pieces (round 1) and the
// per-layer wire-density maps are returned too; when true it uses the
// area of the selected candidates (round 2, wd nil). In round 2 a
// cache-hit window has no selection — its per-layer selected area comes
// from the cache entry, which recorded exactly what candgen would have
// produced, so the assembled bounds (and hence the round-2 plan) are
// bit-identical to a cold run's.
func (e *Engine) assembleBounds(ctx context.Context, wins []*window, selected bool, stage string, cst *cacheState) ([]density.LayerBounds, []*grid.Map, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	nl := len(e.lay.Layers)
	bounds := make([]density.LayerBounds, nl)
	for li := 0; li < nl; li++ {
		bounds[li] = density.LayerBounds{Lower: grid.NewMap(e.g), Upper: grid.NewMap(e.g)}
	}
	var wd []*grid.Map
	if !selected {
		wd = make([]*grid.Map, nl)
		for li := 0; li < nl; li++ {
			wd[li] = grid.NewMap(e.g)
		}
	}
	pprof.Do(ctx, pprof.Labels("stage", stage), func(context.Context) {
		selArea := make([]int64, nl)
		for k, w := range wins {
			aw := float64(w.rect.Area())
			if aw == 0 {
				continue
			}
			if selected {
				if cst.selValid(k) {
					copy(selArea, cst.entries[k].SelArea)
				} else {
					for li := range selArea {
						selArea[li] = 0
					}
					for _, c := range w.sel {
						selArea[c.layer] += c.rect.Area()
					}
				}
			}
			for li := 0; li < nl; li++ {
				wl := w.layers[li]
				var fillable int64
				if selected {
					fillable = selArea[li]
				} else {
					// Closed-form tileable area per free piece — no cell
					// materialization.
					for _, fr := range wl.free {
						fillable += e.mode.fillableArea(fr)
					}
				}
				bounds[li].Lower.V[k] = float64(wl.wireArea) / aw
				bounds[li].Upper.V[k] = float64(wl.wireArea+fillable) / aw
				if wd != nil {
					wd[li].V[k] = float64(wl.wireArea) / aw
				}
			}
		}
	})
	return bounds, wd, nil
}

// produceWindow sizes window k through the mode's sizing step and
// converts the surviving cells to fills. A nil fill slice (window skipped
// or everything shrunk away) still counts as produced and must be
// released to advance the emission frontier.
//
// The soft budget gates every mode alike. Wall-clock expiry is sticky:
// once over budget, every remaining window skips sizing and emits its
// unshrunk candidates (noShrinkCells), so the run finishes promptly. The
// injected variant is window-keyed (not sticky) to keep fault patterns
// deterministic across schedules. A degraded window depends on the clock
// or on the injector, not on window content alone, so it is never cached.
//
// With an active cache, replay windows return their stored fills without
// touching the solver, and every cleanly computed window (including
// empty ones — "nothing to place here" is a result too) is written back.
func (e *Engine) produceWindow(ctx context.Context, k int, wins []*window, td []float64, sc *sizeScratch, hc *healthCollector, start time.Time, cst *cacheState) ([]layout.Fill, error) {
	w := wins[k]
	if cst.replay(k) {
		return cst.replayFills(k, w, hc), nil
	}
	if len(w.sel) == 0 {
		hc.skipped.Add(1)
		cst.store(k, w, nil, true, hc)
		return nil, nil
	}
	targets := e.windowTargets(w, td, sc)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	//filllint:allow nodeterm -- Options.Budget degradation is intentionally wall-clock; documented in DESIGN.md §7
	if e.opts.Budget > 0 && !hc.budgetExceeded.Load() && time.Since(start) > e.opts.Budget {
		hc.budgetExceeded.Store(true)
	}
	var (
		cs        []cell
		cacheable bool
		err       error
	)
	if (e.opts.Budget > 0 && hc.budgetExceeded.Load()) || e.opts.Inject.Hit(faultinject.SiteBudget, uint64(k)) {
		hc.degraded.Add(1)
		cs = e.noShrinkCells(w, targets, sc)
	} else if cs, cacheable, err = e.mode.sizeWindow(ctx, k, w, targets, sc, hc); err != nil {
		return nil, err
	}
	var fills []layout.Fill
	if len(cs) > 0 {
		fills = make([]layout.Fill, len(cs))
		for i, c := range cs {
			fills[i] = layout.Fill{Layer: c.layer, Rect: c.rect}
		}
	}
	cst.store(k, w, fills, cacheable, hc)
	return fills, nil
}

// sizeAndEmit is the fused final stage: each window is sized through the
// resilient fallback chain and its fills released to the sink in
// canonical window order via a bounded reorder buffer. A window's
// retained state (selection, wire slabs) is dropped at release, so the
// number of windows resident between claim and emit is bounded by the
// buffer capacity regardless of run size. Workers claim windows in
// ascending order, which guarantees the worker holding the smallest
// in-flight window always finds buffer space — the stage cannot deadlock.
// One worker runs the same pool; its ring releases each window as soon as
// it is delivered.
//
// Each worker owns one lazily-initialized sizing scratch for its whole
// lifetime (its buffers and solver arena are reused from window to
// window), so the run creates exactly min(Workers, windows) scratches.
func (e *Engine) sizeAndEmit(ctx context.Context, wins []*window, td []float64, sink Sink, hc *healthCollector, start time.Time, cst *cacheState) error {
	nw := len(wins)
	if nw == 0 {
		return nil
	}

	produce := func(ctx context.Context, k int, sc *sizeScratch) ([]layout.Fill, error) {
		return e.produceWindow(ctx, k, wins, td, sc, hc, start, cst)
	}
	release := func(k int, fills []layout.Fill) error {
		w := wins[k]
		w.sel = nil
		for li := range w.layers {
			w.layers[li].wires = nil
		}
		if len(fills) == 0 {
			return nil
		}
		// The ring releases every window buffered behind the one just
		// delivered in one cascade; stop it as soon as the run is
		// cancelled (for instance by the sink itself) rather than emit
		// the rest of the buffer.
		if err := ctx.Err(); err != nil {
			return err
		}
		return sink.EmitWindow(k, fills)
	}

	workers := e.workerCount(nw)
	// Buffer capacity: enough slack that workers rarely stall on an
	// out-of-order slow window, small enough to bound resident windows.
	capacity := 2 * workers
	if capacity < 4 {
		capacity = 4
	}
	if capacity > nw {
		capacity = nw
	}
	rb := newReorderBuffer(capacity, release)

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Abort watcher: wakes workers blocked on a full buffer when the run
	// is cancelled (or a sibling failed and cancelled wctx).
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		<-wctx.Done()
		rb.abort(context.Cause(wctx))
	}()

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
			sc := newSizeScratch(e.opts)
			pprof.Do(wctx, pprof.Labels("stage", "size-emit"), func(ctx context.Context) {
				for ctx.Err() == nil {
					k := int(next.Add(1)) - 1
					if k >= nw {
						return
					}
					fills, err := produce(ctx, k, sc)
					if err == nil {
						err = rb.deliver(k, fills)
					}
					if err != nil {
						once.Do(func() { firstErr = err })
						cancel()
						return
					}
				}
			})
		}()
	}
	wg.Wait()
	cancel()
	<-watcherDone
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	hc.notePeak(rb.peak)
	return nil
}

// reorderBuffer releases out-of-order window results in canonical window
// index order through a bounded ring. deliver(k, …) blocks while k is
// more than the capacity ahead of the oldest unreleased window; the
// release callback runs under the buffer lock, serialized in strictly
// increasing k. Safe against deadlock as long as window indices are
// claimed in ascending order across the delivering goroutines: the
// goroutine holding the smallest in-flight index always has k == base.
type reorderBuffer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	ring    [][]layout.Fill
	filled  []bool
	base    int // next window index to release
	err     error
	release func(k int, fills []layout.Fill) error
	peak    int // max windows in flight (claimed, not yet released)
}

func newReorderBuffer(capacity int, release func(k int, fills []layout.Fill) error) *reorderBuffer {
	rb := &reorderBuffer{
		ring:    make([][]layout.Fill, capacity),
		filled:  make([]bool, capacity),
		release: release,
	}
	rb.cond = sync.NewCond(&rb.mu)
	return rb
}

// deliver hands window k's fills (possibly nil) to the buffer, blocking
// while the ring has no slot for k. Every claimed window must be
// delivered exactly once; nil fills still advance the release frontier.
func (rb *reorderBuffer) deliver(k int, fills []layout.Fill) error {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	n := len(rb.ring)
	for rb.err == nil && k >= rb.base+n {
		rb.cond.Wait()
	}
	if rb.err != nil {
		return rb.err
	}
	if inFlight := k + 1 - rb.base; inFlight > rb.peak {
		rb.peak = inFlight
	}
	rb.ring[k%n] = fills
	rb.filled[k%n] = true
	if k != rb.base {
		return nil
	}
	for rb.filled[rb.base%n] {
		fills := rb.ring[rb.base%n]
		rb.ring[rb.base%n] = nil
		rb.filled[rb.base%n] = false
		if err := rb.release(rb.base, fills); err != nil {
			rb.failLocked(err)
			return err
		}
		rb.base++
	}
	rb.cond.Broadcast()
	return nil
}

// abort fails the buffer, waking all blocked deliverers.
func (rb *reorderBuffer) abort(err error) {
	if err == nil {
		err = context.Canceled
	}
	rb.mu.Lock()
	rb.failLocked(err)
	rb.mu.Unlock()
}

func (rb *reorderBuffer) failLocked(err error) {
	if rb.err == nil {
		rb.err = err
	}
	rb.cond.Broadcast()
}
