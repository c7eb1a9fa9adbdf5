// Package faultinject provides deterministic, seed-driven fault injection
// for exercising the fill pipeline's degradation paths. An Injector decides
// purely from (seed, site, key) whether a fault fires, so runs are
// reproducible across worker counts and machines: the same seed and the
// same per-window keys produce the same faults no matter how windows are
// scheduled onto goroutines.
//
// The engine consults the injector at well-defined sites (before each
// solver tier, around window sizing, on intermediate results); tests set
// per-site rates to force solver failures, panics, corrupted solutions, or
// timeouts on a deterministic subset of windows and then assert the
// pipeline still produces a DRC-clean, deterministic result with an honest
// Health report.
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Site identifies a pipeline location where a fault can be injected.
type Site uint64

const (
	// SiteWarmSolve fails the per-worker first-tier solve
	// (Options.NewSolver), forcing the engine onto the one-shot SSP tier.
	SiteWarmSolve Site = iota + 1
	// SiteColdSolve fails the one-shot SSP solve, forcing the dense simplex.
	SiteColdSolve
	// SiteSimplexSolve fails the dense-simplex tier, exhausting the solver
	// chain and forcing no-shrink degradation.
	SiteSimplexSolve
	// SitePanic makes the sizing worker panic instead of returning an
	// error, exercising the per-window recover isolation.
	SitePanic
	// SiteCorrupt corrupts the solver's solution vector in-place before it
	// is applied, exercising the engine's post-solve Check validation.
	SiteCorrupt
	// SiteBudget simulates the run budget expiring at this window,
	// exercising deadline degradation without wall-clock dependence.
	SiteBudget
	// SiteServeIngest fails the serving layer's layout ingest for a job,
	// exercising the server's rejected-status path on a parse that would
	// otherwise succeed. Keyed by the job's content hash.
	SiteServeIngest
	// SiteServePanic panics inside the serving layer's job runner — above
	// the engine's own per-window isolation — exercising per-job recover
	// and the aborted-status path. Keyed by the job's content hash.
	SiteServePanic
	// SiteServeEmit fails the serving layer's response emission mid-way,
	// exercising downstream write-fault handling. Keyed by the job's
	// content hash.
	SiteServeEmit
	// SiteCacheLoad simulates a torn or corrupt fill-cache entry read:
	// the entry that was loaded is discarded as if its integrity check
	// had failed, forcing a clean recompute of the window. Keyed by the
	// window index. It exercises the cache's failure contract — a bad
	// entry may cost time, never correctness.
	SiteCacheLoad

	// siteMax is the highest valid site; the hit-counter array covers
	// [0, siteMax].
	siteMax = SiteCacheLoad
)

// String names the site for error messages and health reports.
func (s Site) String() string {
	switch s {
	case SiteWarmSolve:
		return "warm-solve"
	case SiteColdSolve:
		return "cold-solve"
	case SiteSimplexSolve:
		return "simplex-solve"
	case SitePanic:
		return "panic"
	case SiteCorrupt:
		return "corrupt"
	case SiteBudget:
		return "budget"
	case SiteServeIngest:
		return "serve-ingest"
	case SiteServePanic:
		return "serve-panic"
	case SiteServeEmit:
		return "serve-emit"
	case SiteCacheLoad:
		return "cache-load"
	default:
		return fmt.Sprintf("site(%d)", uint64(s))
	}
}

// ErrInjected is the sentinel wrapped by every injected solver failure, so
// tests and health accounting can tell injected faults from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Injector decides deterministically whether a fault fires at a given site
// for a given key. The zero value injects nothing; a nil *Injector is
// likewise inert, so the engine can hold one unconditionally.
//
// Rates are per-site probabilities in [0,1] discretised to 1/2^16. The
// decision hashes (seed, site, key) — it involves no global state, no
// time, and no call ordering, which is what keeps fault patterns identical
// across Workers=1 and Workers=N schedules.
type Injector struct {
	seed  uint64
	rates map[Site]uint32 // threshold in [0, 1<<16]
	hits  [siteMax + 1]atomic.Int64
}

// New returns an injector with the given seed and no active sites.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, rates: make(map[Site]uint32)}
}

// WithRate sets the firing probability for a site and returns the injector
// for chaining. Rates outside [0,1] are clamped. Not safe to call
// concurrently with Hit.
func (in *Injector) WithRate(site Site, rate float64) *Injector {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	in.rates[site] = uint32(rate * (1 << 16))
	return in
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-distributed 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hit reports whether the fault at site fires for key, and counts it when
// it does. Deterministic in (seed, site, key); safe for concurrent use.
func (in *Injector) Hit(site Site, key uint64) bool {
	if in == nil {
		return false
	}
	threshold, ok := in.rates[site]
	if !ok || threshold == 0 {
		return false
	}
	h := splitmix64(in.seed ^ splitmix64(uint64(site)<<32^key))
	if uint32(h&0xffff) >= threshold {
		return false
	}
	if site <= siteMax {
		in.hits[site].Add(1)
	}
	return true
}

// Would reports whether Hit(site, key) would fire, without counting it.
// Tests use it to precompute the expected fault set for a run.
func (in *Injector) Would(site Site, key uint64) bool {
	if in == nil {
		return false
	}
	threshold, ok := in.rates[site]
	if !ok || threshold == 0 {
		return false
	}
	h := splitmix64(in.seed ^ splitmix64(uint64(site)<<32^key))
	return uint32(h&0xffff) < threshold
}

// Fail returns an injected-fault error for site/key when the fault fires,
// nil otherwise — the common pattern at solver sites.
func (in *Injector) Fail(site Site, key uint64) error {
	if !in.Hit(site, key) {
		return nil
	}
	return fmt.Errorf("%w: %s at key %d", ErrInjected, site, key)
}

// ActiveAny reports whether any of the given sites has a non-zero rate.
// The fill cache uses it to disable itself while engine-level faults are
// being injected: those faults are keyed by window index, not window
// content, so replaying a cached (healthy) result would silently change
// the deterministic fault pattern a test asked for. Like WithRate it must
// not race with rate mutation, which the engine never does mid-run.
func (in *Injector) ActiveAny(sites ...Site) bool {
	if in == nil {
		return false
	}
	for _, s := range sites {
		if in.rates[s] > 0 {
			return true
		}
	}
	return false
}

// Hits returns how many times the fault at site has fired so far.
func (in *Injector) Hits(site Site) int64 {
	if in == nil || site > siteMax {
		return 0
	}
	return in.hits[site].Load()
}

// ResetCounters zeroes all hit counters (rates and seed are kept), so one
// injector can be reused across runs while asserting per-run counts.
func (in *Injector) ResetCounters() {
	if in == nil {
		return
	}
	for i := range in.hits {
		in.hits[i].Store(0)
	}
}
