package fill

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dummyfill/internal/faultinject"
	"dummyfill/internal/fillcache"
	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

func translateRects(rs []geom.Rect, dx, dy int64) []geom.Rect {
	out := make([]geom.Rect, len(rs))
	for i, r := range rs {
		out[i] = r.Translate(dx, dy)
	}
	return out
}

func translateFills(fs []layout.Fill, dx, dy int64) []layout.Fill {
	out := make([]layout.Fill, len(fs))
	for i, f := range fs {
		out[i] = layout.Fill{Layer: f.Layer, Rect: f.Rect.Translate(dx, dy)}
	}
	return out
}

// runCache runs the engine on lay with opts, failing the test on error.
func runCache(t *testing.T, lay *layout.Layout, opts Options) *Result {
	t.Helper()
	e, err := New(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func openCache(t *testing.T) *fillcache.Cache {
	t.Helper()
	c, err := fillcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheWarmMatchesCold is the core equivalence contract: a cold run
// that populates the cache and a warm run that replays from it produce
// identical solutions, targets and candidate counts, and the warm run's
// health accounts every window as a hit.
func TestCacheWarmMatchesCold(t *testing.T) {
	lay := tinyLayout(t)
	ref := runCache(t, lay, DefaultOptions()) // no cache at all

	cache := openCache(t)
	opts := DefaultOptions()
	opts.Cache = cache

	cold := runCache(t, lay, opts)
	sameFills(t, cold.Solution.Fills, ref.Solution.Fills, "cold-vs-uncached")
	if h := cold.Health; h.CacheHits != 0 || h.CacheMisses != h.Windows || h.CacheStale != 0 {
		t.Fatalf("cold cache counters: %+v", h)
	}

	for _, workers := range []int{1, 4} {
		warm := *&opts
		warm.Workers = workers
		res := runCache(t, lay, warm)
		sameFills(t, res.Solution.Fills, ref.Solution.Fills, "warm")
		h := res.Health
		if h.CacheHits != h.Windows || h.CacheMisses != 0 || h.CacheStale != 0 || h.CacheErrors != 0 {
			t.Fatalf("warm workers=%d cache counters: %+v", workers, h)
		}
		if res.Candidates != ref.Candidates {
			t.Fatalf("warm candidates %d, want %d", res.Candidates, ref.Candidates)
		}
		if !equalBits(res.FirstTargets, ref.FirstTargets) || !equalBits(res.Targets, ref.Targets) {
			t.Fatalf("warm plan targets drifted")
		}
		if h.Sized+h.Skipped != h.Windows {
			t.Fatalf("warm sized+skipped=%d windows=%d", h.Sized+h.Skipped, h.Windows)
		}
	}
}

// TestCacheStaleRecomputes drives the stale path: every entry's Td2 is
// moved one ULP away, so each window is a selection hit whose round-2
// targets drift. Candidate generation then reruns late, from a window
// whose selection summary was loaded from the entry, and must reproduce
// the uncached run exactly: fills, candidate count and both plans. The
// rerun overwrites every entry, so the next run replays every window.
func TestCacheStaleRecomputes(t *testing.T) {
	lay := tinyLayout(t)
	ref := runCache(t, lay, DefaultOptions())
	cache := openCache(t)
	opts := DefaultOptions()
	opts.Cache = cache
	runCache(t, lay, opts)

	e, err := New(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	wins, err := e.prepareWindows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fp := e.cacheFingerprint()
	var ks keyScratch
	keys := map[fillcache.Key]bool{}
	for k := range wins {
		keys[e.windowKey(fp, &wins[k], &ks)] = true
	}
	for _, workers := range []int{1, 4} {
		for key := range keys {
			ent, err := cache.Get(key)
			if err != nil || ent == nil {
				t.Fatalf("entry %v: %v, %v", key, ent, err)
			}
			for i, v := range ent.Td2 {
				ent.Td2[i] = math.Nextafter(v, math.Inf(1))
			}
			if err := cache.Put(key, ent); err != nil {
				t.Fatal(err)
			}
		}
		run := opts
		run.Workers = workers
		res := runCache(t, lay, run)
		sameFills(t, res.Solution.Fills, ref.Solution.Fills, "stale")
		if res.Candidates != ref.Candidates {
			t.Fatalf("workers=%d: stale candidates %d, want %d", workers, res.Candidates, ref.Candidates)
		}
		if !equalBits(res.FirstTargets, ref.FirstTargets) || !equalBits(res.Targets, ref.Targets) {
			t.Fatalf("workers=%d: stale plan targets drifted", workers)
		}
		if h := res.Health; h.CacheStale != h.Windows || h.CacheHits != 0 || h.CacheMisses != 0 || h.CacheErrors != 0 {
			t.Fatalf("workers=%d: stale cache counters: %+v", workers, h)
		}

		again := runCache(t, lay, run)
		sameFills(t, again.Solution.Fills, ref.Solution.Fills, "after-stale")
		if h := again.Health; h.CacheHits != h.Windows || h.CacheStale != 0 {
			t.Fatalf("workers=%d: run after the stale one is not all replays: %+v", workers, h)
		}
	}
}

// TestCacheCorruptEntriesRecompute flips and truncates real on-disk
// entries and asserts the warm run silently recomputes those windows:
// identical output, errors counted, nothing propagated.
func TestCacheCorruptEntriesRecompute(t *testing.T) {
	lay := tinyLayout(t)
	cache := openCache(t)
	opts := DefaultOptions()
	opts.Cache = cache
	cold := runCache(t, lay, opts)

	var files []string
	err := filepath.WalkDir(cache.Dir(), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".dfc" {
			files = append(files, path)
		}
		return err
	})
	if err != nil || len(files) < 3 {
		t.Fatalf("want >=3 entries, got %d (err %v)", len(files), err)
	}
	// Truncate one entry, bit-flip another, empty a third.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xff
	if err := os.WriteFile(files[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[2], nil, 0o644); err != nil {
		t.Fatal(err)
	}

	warm := runCache(t, lay, opts)
	sameFills(t, warm.Solution.Fills, cold.Solution.Fills, "corrupt-warm")
	h := warm.Health
	if h.CacheErrors < 3 {
		t.Fatalf("CacheErrors = %d, want >= 3", h.CacheErrors)
	}
	if h.CacheHits+h.CacheMisses+h.CacheStale != h.Windows {
		t.Fatalf("cache counters don't cover windows: %+v", h)
	}

	// The recomputed windows were written back: a third run is all hits.
	again := runCache(t, lay, opts)
	sameFills(t, again.Solution.Fills, cold.Solution.Fills, "healed-warm")
	if again.Health.CacheHits != again.Health.Windows || again.Health.CacheErrors != 0 {
		t.Fatalf("healed run counters: %+v", again.Health)
	}
}

// TestCacheInjectedTornLoad drives SiteCacheLoad: injected torn reads on
// a deterministic subset of windows must fall back to clean recomputes —
// byte-identical output, never a wrong fill or a panic.
func TestCacheInjectedTornLoad(t *testing.T) {
	lay := tinyLayout(t)
	cache := openCache(t)
	opts := DefaultOptions()
	opts.Cache = cache
	cold := runCache(t, lay, opts)

	inj := faultinject.New(42).WithRate(faultinject.SiteCacheLoad, 0.5)
	torn := opts
	torn.Inject = inj
	for _, workers := range []int{1, 4} {
		inj.ResetCounters()
		run := torn
		run.Workers = workers
		res := runCache(t, lay, run)
		sameFills(t, res.Solution.Fills, cold.Solution.Fills, "torn-load")
		h := res.Health
		fired := int(inj.Hits(faultinject.SiteCacheLoad))
		if fired == 0 {
			t.Fatal("injector never fired; rate too low for this design?")
		}
		if h.CacheErrors != fired {
			t.Fatalf("CacheErrors = %d, injector fired %d", h.CacheErrors, fired)
		}
		if h.CacheHits != h.Windows-fired {
			t.Fatalf("CacheHits = %d, want %d (windows %d - torn %d)",
				h.CacheHits, h.Windows-fired, h.Windows, fired)
		}
	}
}

// TestCacheBypassedUnderEngineFaults: engine-site faults are keyed by
// window index, not content — replaying cached healthy results would
// change the fault pattern a test requested, so the cache must stand
// aside entirely (no reads, no writes) and the faulted output must match
// the uncached faulted output.
func TestCacheBypassedUnderEngineFaults(t *testing.T) {
	lay := tinyLayout(t)
	cache := openCache(t)

	warmup := DefaultOptions()
	warmup.Cache = cache
	runCache(t, lay, warmup) // populate with healthy results

	faulted := DefaultOptions()
	faulted.Inject = faultinject.New(7).WithRate(faultinject.SitePanic, 0.3)
	ref := runCache(t, lay, faulted)
	if ref.Health.Recovered == 0 {
		t.Fatal("fault rate produced no panics; test is vacuous")
	}

	cached := faulted
	cached.Cache = cache
	before := cache.Stats()
	res := runCache(t, lay, cached)
	sameFills(t, res.Solution.Fills, ref.Solution.Fills, "faulted")
	h := res.Health
	if h.CacheHits != 0 || h.CacheMisses != 0 || h.CacheStale != 0 {
		t.Fatalf("cache used despite engine faults: %+v", h)
	}
	after := cache.Stats()
	if after != before {
		t.Fatalf("cache touched despite engine faults: %+v -> %+v", before, after)
	}
}

// TestCacheSkipsDegradedWindows: a run degraded by the wall-clock budget
// must not poison the cache — the degraded geometry never replays into a
// healthy run.
func TestCacheSkipsDegradedWindows(t *testing.T) {
	lay := tinyLayout(t)
	ref := runCache(t, lay, DefaultOptions())

	cache := openCache(t)
	degraded := DefaultOptions()
	degraded.Cache = cache
	degraded.Budget = time.Nanosecond // expires before the first window
	res := runCache(t, lay, degraded)
	if res.Health.Degraded == 0 {
		t.Fatal("budget did not degrade anything; test is vacuous")
	}

	healthy := DefaultOptions()
	healthy.Cache = cache
	out := runCache(t, lay, healthy)
	sameFills(t, out.Solution.Fills, ref.Solution.Fills, "post-degraded")
	// Only empty (skipped) windows may have been cached by the degraded
	// run; every degraded window must have missed.
	if h := out.Health; h.CacheHits > h.Skipped {
		t.Fatalf("degraded windows leaked into the cache: %+v", h)
	}
}

// TestCacheConcurrentWriters exercises concurrent write-back from
// parallel workers into one cache directory, then a parallel warm read.
// Meaningful mainly under -race (CI runs it there).
func TestCacheConcurrentWriters(t *testing.T) {
	lay := tinyLayout(t)
	ref := runCache(t, lay, DefaultOptions())
	cache := openCache(t)

	cold := DefaultOptions()
	cold.Cache = cache
	cold.Workers = 8
	res := runCache(t, lay, cold)
	sameFills(t, res.Solution.Fills, ref.Solution.Fills, "parallel-cold")

	warm := cold
	warm.Workers = 6
	res = runCache(t, lay, warm)
	sameFills(t, res.Solution.Fills, ref.Solution.Fills, "parallel-warm")
	if h := res.Health; h.CacheHits != h.Windows {
		t.Fatalf("parallel warm run not fully hit: %+v", h)
	}
}

// TestCachePositionIndependence: the cache key is window-relative, so a
// design translated to a different die origin replays the same entries.
func TestCachePositionIndependence(t *testing.T) {
	lay := tinyLayout(t)
	cache := openCache(t)
	opts := DefaultOptions()
	opts.Cache = cache
	runCache(t, lay, opts)

	const dx, dy = 100000, 60000
	moved := &layout.Layout{
		Name:   lay.Name,
		Die:    lay.Die.Translate(dx, dy),
		Window: lay.Window,
		Rules:  lay.Rules,
		Layers: make([]*layout.Layer, len(lay.Layers)),
	}
	for li, l := range lay.Layers {
		moved.Layers[li] = &layout.Layer{
			Wires:       translateRects(l.Wires, dx, dy),
			FillRegions: translateRects(l.FillRegions, dx, dy),
		}
	}
	res := runCache(t, lay, opts) // unmoved warm control
	if res.Health.CacheHits != res.Health.Windows {
		t.Fatalf("control warm run not fully hit: %+v", res.Health)
	}
	mres := runCache(t, moved, opts)
	if mres.Health.CacheHits != mres.Health.Windows {
		t.Fatalf("translated design missed the cache: %+v", mres.Health)
	}
	// And the fills are the originals, translated.
	want := translateFills(res.Solution.Fills, dx, dy)
	sameFills(t, mres.Solution.Fills, want, "translated")
}
