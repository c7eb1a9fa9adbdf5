package fill

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"

	"dummyfill/internal/faultinject"
	"dummyfill/internal/fillcache"
	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
	"dummyfill/internal/layout"
)

// This file threads the persistent content-addressed window cache
// (internal/fillcache) through the streaming pipeline.
//
// Caching leans on the determinism contract the golden-hash tests pin:
// a window's sized fills are a pure function of (window content, plan-1
// targets, plan-2 targets, engine options) — never of scheduling, worker
// identity, or solver state. So the cache keys on the content and
// the fingerprint alone, stores the plan targets inside the entry, and
// validates them bit-for-bit at use time:
//
//   - key miss, or Td1 drift ........ full recompute, entry overwritten
//   - Td1 match ("selection hit") ... candgen is skipped; the entry's
//     per-layer selected area feeds planning round 2 (it is exactly what
//     candgen would have produced, so round 2 sees identical bounds)
//   - Td1+Td2 match ("replay") ...... sizing is skipped too; the stored
//     fills are translated to the window's position and released into
//     the ordinary reorder/emitter path
//   - Td1 match, Td2 drift ("stale").. candgen reruns late from the
//     retained free pieces, sizing runs normally, entry is overwritten
//
// Storing targets instead of keying on them is what makes ECO loops
// cache well: plans are global, so keying on them would invalidate every
// window whenever any window changed.
//
// Interactions with the robustness machinery:
//   - engine-level fault injection (solver/budget sites) is keyed by
//     window index, not content; replaying healthy cached results would
//     silently defuse the requested fault pattern, so the cache disables
//     itself for the run when any such site is active. SiteCacheLoad is
//     the cache's own site and does not disable it.
//   - budget-degraded and no-shrink windows are never written back:
//     degradation is wall-clock (or fault) driven, not content-driven,
//     and must not become sticky through the cache. Only tier-0 (the
//     worker's own solver, no panic) results are stored.
//   - a corrupt, truncated or torn entry — organic or injected — counts
//     in Health.CacheErrors and falls back to a clean recompute.

// engineCacheVersion names the geometry-producing algorithm generation.
// Bump it whenever a change alters emitted fills for unchanged inputs
// (i.e. whenever the golden GDS hashes are re-recorded), so stale
// entries from older binaries can never replay into new runs.
const engineCacheVersion = "dummyfill/fill-engine/v1"

// cacheStatus is the per-window outcome of the lookup/resolve phases.
type cacheStatus uint8

const (
	cacheMiss   cacheStatus = iota // no usable entry: recompute + write back
	cacheSel                       // Td1 matched: selection known, Td2 pending
	cacheReplay                    // Td1+Td2 matched: replay stored fills
	cacheStale                     // Td2 drifted: rerun candgen + sizing, overwrite
)

// cacheState is the run-local cache bookkeeping: one key, status and
// (for hits) entry per window. It is created after planning round 1 and
// mutated only at phase boundaries or under window ownership, so the
// parallel stages need no locking beyond the error counter.
type cacheState struct {
	c        *fillcache.Cache
	inj      *faultinject.Injector
	keys     []fillcache.Key
	status   []cacheStatus
	entries  []*fillcache.Entry
	td1, td2 []float64
	errs     *healthCollector
}

// selValid reports whether window k's selection summary (SelArea,
// NumSel) may substitute for running candidate generation.
func (cs *cacheState) selValid(k int) bool {
	return cs != nil && cs.status[k] != cacheMiss
}

// replay reports whether window k's stored fills may be emitted as-is.
func (cs *cacheState) replay(k int) bool {
	return cs != nil && cs.status[k] == cacheReplay
}

// cacheActive decides whether this run uses the cache at all. See the
// file comment for why engine-level fault injection disables it.
func (e *Engine) cacheActive() bool {
	if e.opts.Cache == nil {
		return false
	}
	return !e.opts.Inject.ActiveAny(
		faultinject.SiteWarmSolve, faultinject.SiteColdSolve, faultinject.SiteSimplexSolve,
		faultinject.SitePanic, faultinject.SiteCorrupt, faultinject.SiteBudget,
	)
}

// solverID names the configured solver for the fingerprint. Different
// solvers may legitimately produce different (all-valid) solutions, so
// entries must not migrate between them. The runtime symbol name is
// stable across runs and builds of the same source.
func solverID(o Options) string {
	if f := runtime.FuncForPC(reflect.ValueOf(o.NewSolver).Pointer()); f != nil {
		return f.Name()
	}
	return "unknown-solver"
}

// cacheFingerprint hashes every run-level input that shapes per-window
// geometry besides the window content and the plan targets: engine
// version, DRC rules, and the sizing/selection options. PlanSteps and
// MinDensity are deliberately absent — they only act through the plan
// targets, which entries validate directly. Workers, Budget and Inject
// affect scheduling, wall-clock or fault patterns, never the fills of a
// healthy window.
func (e *Engine) cacheFingerprint() fillcache.Key {
	h := fillcache.NewHasher()
	h.String(engineCacheVersion)
	r := e.lay.Rules
	h.Int64(r.MinWidth)
	h.Int64(r.MinSpace)
	h.Int64(r.MinArea)
	h.Int64(r.MaxFillDim)
	o := e.opts
	h.Float64(o.Lambda)
	h.Float64(o.Gamma)
	h.Int64(o.Eta)
	h.Int64(int64(o.MaxSizingPasses))
	h.String(solverID(o))
	h.String(e.mode.cacheID())
	return h.Sum()
}

// keyScratch is the pooled per-worker scratch of the lookup stage.
type keyScratch struct {
	h     *fillcache.Hasher
	clips []geom.Rect
}

var keyPool = sync.Pool{New: func() any { return &keyScratch{h: fillcache.NewHasher()} }}

// windowKey hashes window w's content under the fingerprint prefix. All
// coordinates are window-relative, so identical windows anywhere on the
// die (or in other designs sharing the fingerprint) address one entry.
// The serialization order is fixed: window extent, then per layer the
// free pieces, the wire clips (in preparation index order — the same
// order every downstream consumer sees) and the union wire area.
func (e *Engine) windowKey(fp fillcache.Key, w *window, ks *keyScratch) fillcache.Key {
	h := ks.h
	h.Reset()
	h.Bytes(fp[:])
	ox, oy := w.rect.XL, w.rect.YL
	h.Int64(w.rect.XH - ox)
	h.Int64(w.rect.YH - oy)
	h.Int64(int64(len(w.layers)))
	for li := range w.layers {
		wl := &w.layers[li]
		h.Int64(int64(len(wl.free)))
		for _, fr := range wl.free {
			h.Rect(fr.Translate(-ox, -oy))
		}
		ks.clips = w.wireClips(ks.clips, e.lay, li)
		h.Int64(int64(len(ks.clips)))
		for _, c := range ks.clips {
			h.Rect(c.Translate(-ox, -oy))
		}
		h.Int64(wl.wireArea)
	}
	e.mode.windowKeyExtra(w, h)
	return h.Sum()
}

// equalBits compares target-density slices bit-for-bit: the cache's
// notion of "same plan" is exact reproduction, not numeric closeness.
func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// cacheLookup runs after planning round 1: it keys every window, loads
// candidate entries, and validates their Td1 against the fresh plan.
// Returns nil when the cache is inactive for this run.
func (e *Engine) cacheLookup(ctx context.Context, wins []*window, td1 []float64, hc *healthCollector) (*cacheState, error) {
	if !e.cacheActive() {
		return nil, nil
	}
	cs := &cacheState{
		c:       e.opts.Cache,
		inj:     e.opts.Inject,
		keys:    make([]fillcache.Key, len(wins)),
		status:  make([]cacheStatus, len(wins)),
		entries: make([]*fillcache.Entry, len(wins)),
		td1:     td1,
		errs:    hc,
	}
	fp := e.cacheFingerprint()
	err := e.parallelFor(ctx, len(wins), "cache", func(_ context.Context, k int) error {
		w := wins[k]
		ks := keyPool.Get().(*keyScratch)
		defer keyPool.Put(ks)
		cs.keys[k] = e.windowKey(fp, w, ks)
		ent, err := cs.c.Get(cs.keys[k])
		if err != nil {
			hc.cacheErrs.Add(1)
			return nil // corrupt entry: clean miss
		}
		if ent != nil && cs.inj.Hit(faultinject.SiteCacheLoad, uint64(k)) {
			// Injected torn read: discard the loaded entry exactly as the
			// integrity check would have.
			hc.cacheErrs.Add(1)
			ent = nil
		}
		if ent == nil || !equalBits(ent.Td1, td1) {
			return nil
		}
		cs.entries[k] = ent
		cs.status[k] = cacheSel
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cs, nil
}

// cacheResolve runs after planning round 2: selection hits whose Td2
// also matches become replays; the rest are stale and rerun candidate
// generation now (late, from the free pieces the candgen stage retained
// for them). Replay windows drop their free pieces here. The final
// status counts feed Health.
func (e *Engine) cacheResolve(ctx context.Context, wins []*window, cs *cacheState, td2 []float64, hc *healthCollector) error {
	if cs == nil {
		return nil
	}
	cs.td2 = td2
	var stale []int
	hits, misses := 0, 0
	for k, st := range cs.status {
		switch st {
		case cacheMiss:
			misses++
		case cacheSel:
			if equalBits(cs.entries[k].Td2, td2) {
				cs.status[k] = cacheReplay
				hits++
				w := wins[k]
				for li := range w.layers {
					w.layers[li].free = nil
				}
			} else {
				cs.status[k] = cacheStale
				stale = append(stale, k)
			}
		}
	}
	hc.cacheHits = hits
	hc.cacheMisses = misses
	hc.cacheStale = len(stale)
	if len(stale) == 0 {
		return nil
	}
	return e.parallelFor(ctx, len(stale), "candgen", func(_ context.Context, i int) error {
		w := wins[stale[i]]
		e.mode.selectCandidates(w, cs.td1)
		for li := range w.layers {
			w.layers[li].free = nil
		}
		return nil
	})
}

// replayFills translates window k's cached fills from window-relative to
// die coordinates, counting the window as sized (or skipped when the
// cached result is empty) so Health matches a cold run.
func (cs *cacheState) replayFills(k int, w *window, hc *healthCollector) []layout.Fill {
	ent := cs.entries[k]
	if len(ent.Fills) == 0 {
		hc.skipped.Add(1)
		return nil
	}
	hc.sized.Add(1)
	ox, oy := w.rect.XL, w.rect.YL
	fills := make([]layout.Fill, len(ent.Fills))
	for i, f := range ent.Fills {
		fills[i] = layout.Fill{Layer: f.Layer, Rect: f.Rect.Translate(ox, oy)}
	}
	return fills
}

// store writes window k's freshly computed result back. Called from the
// size+emit workers (window-owned state only; fillcache.Put is atomic
// and concurrency-safe). cacheable is false for degraded / fallback-tier
// windows, which must never enter the cache. Errors are best-effort:
// they count in Health.CacheErrors and the run proceeds.
func (cs *cacheState) store(k int, w *window, fills []layout.Fill, cacheable bool, hc *healthCollector) {
	if cs == nil || cs.status[k] == cacheReplay || !cacheable {
		return
	}
	nl := len(w.layers)
	ent := &fillcache.Entry{
		Td1:     cs.td1,
		Td2:     cs.td2,
		SelArea: make([]int64, nl),
		NumSel:  len(w.sel),
	}
	for _, c := range w.sel {
		ent.SelArea[c.layer] += c.rect.Area()
	}
	if len(fills) > 0 {
		ox, oy := w.rect.XL, w.rect.YL
		ent.Fills = make([]layout.Fill, len(fills))
		for i, f := range fills {
			ent.Fills[i] = layout.Fill{Layer: f.Layer, Rect: f.Rect.Translate(-ox, -oy)}
		}
	}
	if err := cs.c.Put(cs.keys[k], ent); err != nil {
		hc.cacheErrs.Add(1)
	}
}

// WindowDigest summarizes one window's cache-relevant content for
// `fillgen -diff`: Key is the full content address (what the cache
// actually keys on), and the three sub-digests attribute a difference to
// its cause. Interior covers wires lying entirely inside the window,
// Halo the clipped parts of wires crossing the window border (i.e.
// geometry reaching in from neighbours), Regions the free fill-region
// pieces. All coordinates are window-relative, like the cache key.
type WindowDigest struct {
	Key      fillcache.Key
	Interior fillcache.Key
	Halo     fillcache.Key
	Regions  fillcache.Key
}

// WindowDigests prepares lay's windows exactly as a run would and
// returns the per-window digests in canonical window order, plus the
// grid for index↔position mapping. opts must be the options the runs
// use: the full Key embeds the engine fingerprint, so digests predict
// cache invalidation exactly.
func WindowDigests(ctx context.Context, lay *layout.Layout, opts Options) (*grid.Grid, []WindowDigest, error) {
	e, err := New(lay, opts)
	if err != nil {
		return nil, nil, err
	}
	wins, err := e.prepareWindows(ctx)
	if err != nil {
		return nil, nil, err
	}
	fp := e.cacheFingerprint()
	ds := make([]WindowDigest, len(wins))
	err = e.parallelFor(ctx, len(wins), "digest", func(_ context.Context, k int) error {
		w := wins[k]
		ks := keyPool.Get().(*keyScratch)
		defer keyPool.Put(ks)
		ds[k].Key = e.windowKey(fp, w, ks)

		interior, halo, regions := fillcache.NewHasher(), fillcache.NewHasher(), fillcache.NewHasher()
		ox, oy := w.rect.XL, w.rect.YL
		for li := range w.layers {
			wl := &w.layers[li]
			interior.Int64(int64(li))
			halo.Int64(int64(li))
			regions.Int64(int64(li))
			for _, fr := range wl.free {
				regions.Rect(fr.Translate(-ox, -oy))
			}
			wires := lay.Layers[li].Wires
			for _, si := range wl.wires {
				wr := wires[si]
				c := wr.Intersect(w.rect)
				if c.Empty() {
					continue
				}
				if w.rect.ContainsRect(wr) {
					interior.Rect(c.Translate(-ox, -oy))
				} else {
					halo.Rect(c.Translate(-ox, -oy))
				}
			}
		}
		ds[k].Interior = interior.Sum()
		ds[k].Halo = halo.Sum()
		ds[k].Regions = regions.Sum()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return e.g, ds, nil
}
