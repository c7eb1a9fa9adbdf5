package fill

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dummyfill/internal/drc"
	"dummyfill/internal/faultinject"
	"dummyfill/internal/layout"
)

// runWith runs the engine on gradientLayout with the given knobs.
func runWith(t *testing.T, workers int, mutate func(*Options)) *Result {
	t.Helper()
	lay := gradientLayout()
	opts := DefaultOptions()
	opts.Workers = workers
	if mutate != nil {
		mutate(&opts)
	}
	e, err := New(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if vs := drc.Check(lay, &res.Solution, true); len(vs) != 0 {
		t.Fatalf("%d DRC violations, first: %v", len(vs), vs[0])
	}
	return res
}

// sameFills asserts two solutions are geometrically identical.
func sameFills(t *testing.T, a, b []layout.Fill, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d fills vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: fill %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// checkInvariants asserts the Health counter identities.
func checkInvariants(t *testing.T, h Health) {
	t.Helper()
	if h.Sized+h.Skipped+h.Degraded != h.Windows {
		t.Fatalf("health counters inconsistent: %s", h)
	}
	if h.FallbackCold+h.FallbackSimplex > h.Sized {
		t.Fatalf("more fallbacks than sized windows: %s", h)
	}
}

// expectedHits counts the windows in [0, windows) whose fault at site
// would fire — the deterministic ground truth for the health counters.
func expectedHits(in *faultinject.Injector, site faultinject.Site, windows int) int {
	n := 0
	for k := 0; k < windows; k++ {
		if in.Would(site, uint64(k)) {
			n++
		}
	}
	return n
}

// TestHealthyRunReportsHealthy checks the no-fault baseline: every window
// sized or skipped, nothing degraded, and the Health line renders.
func TestHealthyRunReportsHealthy(t *testing.T) {
	res := runWith(t, 4, nil)
	h := res.Health
	checkInvariants(t, h)
	if !h.Healthy() {
		t.Fatalf("no faults injected but unhealthy: %s", h)
	}
	if h.Windows != 16 || h.Sized == 0 {
		t.Fatalf("unexpected counts: %s", h)
	}
	if h.String() == "" || h.Elapsed <= 0 {
		t.Fatalf("bad render: %q", h.String())
	}
}

// TestWarmFailureFallsBackCold forces the first solver tier (the
// worker's own solver, fault site SiteWarmSolve) to fail on ~25% of
// windows. The run must complete DRC-clean, produce identical fills for
// Workers=1 and Workers=4, and report the exact deterministic count of
// fallbacks to the one-shot SSP tier.
func TestWarmFailureFallsBackCold(t *testing.T) {
	mkInj := func() *faultinject.Injector {
		return faultinject.New(42).WithRate(faultinject.SiteWarmSolve, 0.25)
	}
	baseline := runWith(t, 1, nil)
	var ref *Result
	for _, workers := range []int{1, 4} {
		inj := mkInj()
		res := runWith(t, workers, func(o *Options) { o.Inject = inj })
		h := res.Health
		checkInvariants(t, h)
		if h.Skipped != baseline.Health.Skipped {
			t.Fatalf("workers=%d: skipped drifted: %s", workers, h)
		}
		// Every faulted, non-skipped window must land exactly on the cold
		// tier; the layout has candidates in all 16 windows, so the
		// expected count is the raw injector prediction.
		want := expectedHits(inj, faultinject.SiteWarmSolve, h.Windows)
		if h.Skipped != 0 {
			t.Fatalf("workers=%d: test assumes no skipped windows, got %s", workers, h)
		}
		if want == 0 {
			t.Fatal("seed produced no faults; pick another seed")
		}
		if h.FallbackCold != want {
			t.Fatalf("workers=%d: FallbackCold = %d, want %d (%s)", workers, h.FallbackCold, want, h)
		}
		if h.Degraded != 0 || h.Recovered != 0 {
			t.Fatalf("workers=%d: unexpected degradation: %s", workers, h)
		}
		if got := inj.Hits(faultinject.SiteWarmSolve); int(got) != want {
			t.Fatalf("workers=%d: injector counted %d hits, want %d", workers, got, want)
		}
		if ref == nil {
			ref = res
			continue
		}
		sameFills(t, ref.Solution.Fills, res.Solution.Fills, "workers=1 vs 4")
		if ref.Health.FallbackCold != h.FallbackCold {
			t.Fatalf("health not schedule-invariant: %s vs %s", ref.Health, h)
		}
	}
	// The cold tier solves the same LPs exactly, so the solution should
	// match the fault-free run bit for bit.
	sameFills(t, baseline.Solution.Fills, ref.Solution.Fills, "faulted vs fault-free")
}

// TestChainExhaustionDegradesNoShrink fails all three solver tiers on
// every window: the run must still complete with a DRC-clean, non-empty
// solution built from unshrunk candidates.
func TestChainExhaustionDegradesNoShrink(t *testing.T) {
	var ref *Result
	for _, workers := range []int{1, 4} {
		res := runWith(t, workers, func(o *Options) {
			o.Inject = faultinject.New(7).
				WithRate(faultinject.SiteWarmSolve, 1).
				WithRate(faultinject.SiteColdSolve, 1).
				WithRate(faultinject.SiteSimplexSolve, 1)
		})
		h := res.Health
		checkInvariants(t, h)
		if h.Degraded != h.Windows-h.Skipped || h.Sized != 0 {
			t.Fatalf("workers=%d: want full degradation, got %s", workers, h)
		}
		if len(res.Solution.Fills) == 0 {
			t.Fatal("degraded run emitted no fills at all")
		}
		if ref == nil {
			ref = res
			continue
		}
		sameFills(t, ref.Solution.Fills, res.Solution.Fills, "workers=1 vs 4 (degraded)")
	}
}

// TestPanicIsolation injects solver panics on ~25% of windows: each must
// be recovered, fall back to the cold tier, and leave the rest of the run
// untouched and deterministic.
func TestPanicIsolation(t *testing.T) {
	var ref *Result
	for _, workers := range []int{1, 4} {
		inj := faultinject.New(1234).WithRate(faultinject.SitePanic, 0.25)
		res := runWith(t, workers, func(o *Options) { o.Inject = inj })
		h := res.Health
		checkInvariants(t, h)
		want := expectedHits(inj, faultinject.SitePanic, h.Windows)
		if want == 0 {
			t.Fatal("seed produced no panics; pick another seed")
		}
		if h.Recovered != want || h.FallbackCold != want {
			t.Fatalf("workers=%d: recovered=%d cold=%d, want both %d (%s)",
				workers, h.Recovered, h.FallbackCold, want, h)
		}
		if h.Degraded != 0 {
			t.Fatalf("workers=%d: panics should fall back, not degrade: %s", workers, h)
		}
		if ref == nil {
			ref = res
			continue
		}
		sameFills(t, ref.Solution.Fills, res.Solution.Fills, "workers=1 vs 4 (panics)")
	}
}

// TestCorruptSolutionNeverApplied corrupts the first tier's solution
// vector on ~25% of windows. The engine-side validation must reject it —
// falling back to the one-shot tier — and no corrupted coordinate may
// reach the output.
func TestCorruptSolutionNeverApplied(t *testing.T) {
	inj := faultinject.New(99).WithRate(faultinject.SiteCorrupt, 0.25)
	res := runWith(t, 4, func(o *Options) { o.Inject = inj })
	h := res.Health
	checkInvariants(t, h)
	want := expectedHits(inj, faultinject.SiteCorrupt, h.Windows)
	if want == 0 {
		t.Fatal("seed produced no corruptions; pick another seed")
	}
	if h.FallbackCold != want {
		t.Fatalf("FallbackCold = %d, want %d (%s)", h.FallbackCold, want, h)
	}
	baseline := runWith(t, 4, nil)
	sameFills(t, baseline.Solution.Fills, res.Solution.Fills, "corrupted vs fault-free")
}

// TestBudgetDegradesRemainingWindows sets a 1 ns budget: every window is
// past the deadline, so the whole run degrades to unshrunk candidates but
// still completes DRC-clean with BudgetExceeded reported.
func TestBudgetDegradesRemainingWindows(t *testing.T) {
	res := runWith(t, 4, func(o *Options) { o.Budget = time.Nanosecond })
	h := res.Health
	checkInvariants(t, h)
	if !h.BudgetExceeded {
		t.Fatalf("1 ns budget not reported exceeded: %s", h)
	}
	if h.Degraded != h.Windows-h.Skipped {
		t.Fatalf("want all non-skipped windows degraded, got %s", h)
	}
	if h.Budget != time.Nanosecond {
		t.Fatalf("budget not echoed: %s", h)
	}
	if len(res.Solution.Fills) == 0 {
		t.Fatal("budget-degraded run emitted no fills")
	}
}

// TestInjectedBudgetIsWindowKeyed exercises SiteBudget: a deterministic
// subset of windows degrades as if the budget had expired there, without
// any wall-clock dependence, so the pattern is schedule-invariant.
func TestInjectedBudgetIsWindowKeyed(t *testing.T) {
	var ref *Result
	for _, workers := range []int{1, 4} {
		inj := faultinject.New(5).WithRate(faultinject.SiteBudget, 0.5)
		res := runWith(t, workers, func(o *Options) { o.Inject = inj })
		h := res.Health
		checkInvariants(t, h)
		want := expectedHits(inj, faultinject.SiteBudget, h.Windows)
		if want == 0 {
			t.Fatal("seed produced no budget faults; pick another seed")
		}
		if h.Degraded != want {
			t.Fatalf("workers=%d: Degraded = %d, want %d (%s)", workers, h.Degraded, want, h)
		}
		if h.BudgetExceeded {
			t.Fatalf("workers=%d: injected budget must not set the wall-clock flag: %s", workers, h)
		}
		if ref == nil {
			ref = res
			continue
		}
		sameFills(t, ref.Solution.Fills, res.Solution.Fills, "workers=1 vs 4 (budget)")
	}
}

// TestRunContextAlreadyCancelled checks a pre-cancelled context aborts
// before any work: context.Canceled, no partial Result.
func TestRunContextAlreadyCancelled(t *testing.T) {
	e, err := New(gradientLayout(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a partial Result")
	}
}

// countdownCtx is a context whose Err flips to Canceled after the first
// `after` calls — a deterministic way to cancel at the N-th check the
// engine performs, sweeping every phase boundary without timing races.
// Done is inherited from Background (never closes), so only explicit
// Err checks observe the cancellation; the engine must not rely on Done
// alone. Serial runs only (Workers=1 keeps the check sequence fixed).
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestRunContextCancelsAtEveryPhaseBoundary sweeps the cancellation point
// across all context checks of a serial run. Every prefix must abort with
// context.Canceled and no Result; once the sweep passes the total number
// of checks, the run completes normally.
func TestRunContextCancelsAtEveryPhaseBoundary(t *testing.T) {
	lay := gradientLayout()
	opts := DefaultOptions()
	opts.Workers = 1
	run := func(after int64) (*Result, error, int64) {
		e, err := New(lay, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &countdownCtx{Context: context.Background(), after: after}
		res, rerr := e.RunContext(ctx)
		return res, rerr, ctx.calls.Load()
	}

	// Probe the total number of Err checks in a full run.
	res, err, total := run(1 << 62)
	if err != nil || res == nil {
		t.Fatalf("probe run failed: %v", err)
	}
	if total < 10 {
		t.Fatalf("expected many context checks across phases, saw %d", total)
	}

	cancelled, completed := 0, 0
	for after := int64(0); after <= total+1; after += max(1, total/50) {
		res, err, _ := run(after)
		switch {
		case err == nil && res != nil:
			completed++
		case errors.Is(err, context.Canceled) && res == nil:
			cancelled++
		default:
			t.Fatalf("after=%d: res=%v err=%v — partial result or wrong error", after, res != nil, err)
		}
	}
	if cancelled == 0 || completed == 0 {
		t.Fatalf("sweep did not cover both outcomes: %d cancelled, %d completed", cancelled, completed)
	}
}

// TestRunContextCancelMidSizing cancels concurrently with a parallel run
// and checks the hard-abort contract under real scheduling: either the
// run finished before the cancel landed, or it aborts with the context
// error and no Result.
func TestRunContextCancelMidSizing(t *testing.T) {
	lay := gradientLayout()
	opts := DefaultOptions()
	opts.Workers = 4
	e, err := New(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	res, err := e.RunContext(ctx)
	if err == nil {
		if res == nil {
			t.Fatal("nil result with nil error")
		}
		return // run won the race; fine
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a partial Result")
	}
}

// TestRunsIdenticalAcrossWorkers runs the engine across worker counts —
// the serial path and the multi-worker reorder ring — and requires
// geometrically identical solutions plus consistent health everywhere.
func TestRunsIdenticalAcrossWorkers(t *testing.T) {
	ref := runWith(t, 1, nil)
	for _, workers := range []int{1, 2, 3, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		res := runWith(t, workers, nil)
		sameFills(t, ref.Solution.Fills, res.Solution.Fills, label)
		checkInvariants(t, res.Health)
	}
}

// TestResilienceAcrossWorkers checks fault degradation under parallel
// sizing: injected solver faults are window-keyed, so the degraded fill
// set and health counters must match the serial run exactly for every
// worker count.
func TestResilienceAcrossWorkers(t *testing.T) {
	mk := func(workers int) *Result {
		return runWith(t, workers, func(o *Options) {
			o.Inject = faultinject.New(42).
				WithRate(faultinject.SiteWarmSolve, 0.5).
				WithRate(faultinject.SiteColdSolve, 0.5)
		})
	}
	ref := mk(1)
	checkInvariants(t, ref.Health)
	if ref.Health.Healthy() {
		t.Fatal("faults injected but run reports healthy")
	}
	for _, workers := range []int{2, 4, 8} {
		res := mk(workers)
		label := fmt.Sprintf("workers=%d", workers)
		sameFills(t, ref.Solution.Fills, res.Solution.Fills, label)
		checkInvariants(t, res.Health)
		if res.Health.FallbackCold != ref.Health.FallbackCold ||
			res.Health.FallbackSimplex != ref.Health.FallbackSimplex ||
			res.Health.Degraded != ref.Health.Degraded {
			t.Fatalf("%s: health %s differs from serial %s", label, res.Health, ref.Health)
		}
	}
}
