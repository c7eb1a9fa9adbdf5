package fill

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Health reports how gracefully a run completed: how many windows were
// sized by which solver tier, how many degraded to unshrunk candidates,
// and whether the soft time budget expired. A fully healthy run has
// Sized+Skipped == Windows and all other counters zero.
//
// The per-window counters are deterministic for a given layout, options
// and fault seed — they count window-keyed decisions, not scheduling
// accidents — so they are safe to assert on across Workers settings.
// BudgetExceeded and Elapsed are wall-clock dependent.
type Health struct {
	// Windows is the number of grid windows processed.
	Windows int `json:"windows"`
	// Sized counts windows whose sizing LP converged on some solver tier.
	Sized int `json:"sized"`
	// Skipped counts windows with no selected candidates (nothing to size).
	Skipped int `json:"skipped,omitempty"`
	// FallbackCold counts sized windows that needed the one-shot SSP
	// tier after the worker's solver failed.
	FallbackCold int `json:"fallback_cold,omitempty"`
	// FallbackSimplex counts sized windows that fell through to the dense
	// simplex tier.
	FallbackSimplex int `json:"fallback_simplex,omitempty"`
	// Degraded counts windows that exhausted the solver chain (or hit the
	// budget) and emitted their candidates unshrunk.
	Degraded int `json:"degraded,omitempty"`
	// Recovered counts solver panics caught by per-window isolation.
	Recovered int `json:"recovered,omitempty"`
	// BudgetExceeded records that the soft budget expired mid-sizing.
	BudgetExceeded bool `json:"budget_exceeded,omitempty"`
	// Budget echoes Options.Budget (0 = unlimited).
	Budget time.Duration `json:"budget,omitempty"`
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration `json:"elapsed"`
	// PeakInFlight is the maximum number of windows resident in the
	// sizing→emit stage at once (claimed by a worker but not yet released
	// toward the sink). Like Elapsed it depends on worker scheduling, not
	// on the input alone.
	PeakInFlight int `json:"peak_in_flight,omitempty"`
	// CacheHits counts windows replayed verbatim from Options.Cache
	// (content and both plan rounds matched a stored entry). Zero when
	// the cache is nil or bypassed.
	CacheHits int `json:"cache_hits,omitempty"`
	// CacheMisses counts windows with no usable cache entry (absent,
	// corrupt, or solved under different round-1 targets); they computed
	// from scratch and were written back.
	CacheMisses int `json:"cache_misses,omitempty"`
	// CacheStale counts windows whose entry matched content and round-1
	// targets but not round-2: candidate generation was reused, sizing
	// reran, and the entry was overwritten.
	CacheStale int `json:"cache_stale,omitempty"`
	// CacheErrors counts corrupt/torn entry loads (organic or injected)
	// and failed write-backs. Each one degraded to a clean recompute;
	// like Elapsed it is environment-dependent, not deterministic.
	CacheErrors int `json:"cache_errors,omitempty"`
}

// Healthy reports whether every window was sized normally: no fallbacks,
// no degradation, no recovered panics, no budget expiry.
func (h Health) Healthy() bool {
	return h.FallbackCold == 0 && h.FallbackSimplex == 0 &&
		h.Degraded == 0 && h.Recovered == 0 && !h.BudgetExceeded
}

// String renders the report as one line, e.g.
//
//	windows=256 sized=250 skipped=4 cold=1 simplex=0 degraded=2 recovered=1 budget-exceeded elapsed=1.2s
func (h Health) String() string {
	s := fmt.Sprintf("windows=%d sized=%d skipped=%d cold=%d simplex=%d degraded=%d recovered=%d",
		h.Windows, h.Sized, h.Skipped, h.FallbackCold, h.FallbackSimplex, h.Degraded, h.Recovered)
	if h.BudgetExceeded {
		s += " budget-exceeded"
	}
	if h.CacheHits+h.CacheMisses+h.CacheStale+h.CacheErrors > 0 {
		s += fmt.Sprintf(" cache-hits=%d cache-misses=%d cache-stale=%d cache-errors=%d",
			h.CacheHits, h.CacheMisses, h.CacheStale, h.CacheErrors)
	}
	return s + fmt.Sprintf(" elapsed=%s", h.Elapsed.Round(time.Millisecond))
}

// healthCollector accumulates Health counters across window workers.
type healthCollector struct {
	sized, skipped, cold, simplex, degraded, recovered atomic.Int64
	peak                                               atomic.Int64
	cacheErrs                                          atomic.Int64
	budgetExceeded                                     atomic.Bool
	// The cache status counts are written only by the coordinating
	// pipeline goroutine, between parallel phases — no atomics needed.
	cacheHits   int
	cacheMisses int
	cacheStale  int
}

// notePeak records an observed in-flight peak (max wins).
func (hc *healthCollector) notePeak(p int) {
	for {
		cur := hc.peak.Load()
		if int64(p) <= cur || hc.peak.CompareAndSwap(cur, int64(p)) {
			return
		}
	}
}

// health snapshots the counters into a Health report.
func (hc *healthCollector) health(windows int, budget, elapsed time.Duration) Health {
	return Health{
		Windows:         windows,
		Sized:           int(hc.sized.Load()),
		Skipped:         int(hc.skipped.Load()),
		FallbackCold:    int(hc.cold.Load()),
		FallbackSimplex: int(hc.simplex.Load()),
		Degraded:        int(hc.degraded.Load()),
		Recovered:       int(hc.recovered.Load()),
		BudgetExceeded:  hc.budgetExceeded.Load(),
		Budget:          budget,
		Elapsed:         elapsed,
		PeakInFlight:    int(hc.peak.Load()),
		CacheHits:       hc.cacheHits,
		CacheMisses:     hc.cacheMisses,
		CacheStale:      hc.cacheStale,
		CacheErrors:     int(hc.cacheErrs.Load()),
	}
}
