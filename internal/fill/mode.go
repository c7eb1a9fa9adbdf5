package fill

import (
	"context"
	"fmt"

	"dummyfill/internal/fillcache"
	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

// Fill mode names for Options.Mode.
const (
	// ModeRect is the paper's continuous mode: candidate rectangles are
	// tiled from the free space and shrunk continuously by the sizing LP.
	ModeRect = "rect"
	// ModeSite is the filler-cell placement mode: candidates snap to the
	// layout's placement rows and sites, widths come from a discrete
	// master library, and sizing picks per-gap discrete widths instead of
	// shrinking continuously. Requires Layout.Sites.
	ModeSite = "site"
)

// fillMode is the strategy the window pipeline delegates its
// geometry-producing decisions to: how free pieces clip into windows,
// how much fill a piece can hold, how candidates are enumerated, and how
// a window's selection is sized down to its target areas. Everything
// else — window preparation, the two planning rounds, the cache and the
// reorder buffer — is mode-agnostic, which is what lets a new mode
// inherit the byte-identical determinism contract.
//
// Implementations must be deterministic functions of window content and
// engine options: no wall-clock, scheduling or worker-identity inputs
// (the nodeterm analyzer and the golden-hash tests police this).
type fillMode interface {
	// cacheID identifies the mode and its geometry-shaping parameters in
	// the engine cache fingerprint, so entries never migrate across modes
	// or mode configurations.
	cacheID() string
	// windowKeyExtra appends mode-specific per-window content to the
	// window cache key — anything beyond the free pieces and wire clips
	// that distinguishes two windows (e.g. the site-lattice phase).
	windowKeyExtra(w *window, h *fillcache.Hasher)
	// clipFree clips one fill-region piece into a window, applying the
	// mode's legality margin (spacing inset, padding keepout).
	clipFree(fr, win geom.Rect) geom.Rect
	// fillableArea bounds the fill area the mode could place in one
	// clipped free piece — the round-1 planning upper bound.
	fillableArea(fr geom.Rect) int64
	// selectCandidates populates w.sel from the window's free pieces
	// under the round-1 target densities td.
	selectCandidates(w *window, td []float64)
	// sizeWindow reduces the non-empty w.sel toward the per-layer target
	// areas; produceWindow has already applied the soft budget. cacheable
	// reports whether the result is a pure function of window content
	// (fit for the persistent cache); degraded results are not.
	sizeWindow(ctx context.Context, k int, w *window, targets []int64, sc *sizeScratch, hc *healthCollector) (cells []cell, cacheable bool, err error)
}

// newFillMode resolves Options.Mode against the layout.
func newFillMode(e *Engine) (fillMode, error) {
	switch e.opts.Mode {
	case "", ModeRect:
		return rectMode{e}, nil
	case ModeSite:
		if e.lay.Sites == nil {
			return nil, fmt.Errorf("fill: Mode %q requires a layout with a site grid (Layout.Sites)", ModeSite)
		}
		if e.opts.SitePad < 0 {
			return nil, fmt.Errorf("fill: SitePad must be >= 0, got %d", e.opts.SitePad)
		}
		lib := e.opts.SiteLib
		if lib == nil {
			lib = layout.DefaultFillLib()
		}
		if err := lib.Validate(); err != nil {
			return nil, err
		}
		return &siteMode{e: e, grid: *e.lay.Sites, lib: lib, pad: int64(e.opts.SitePad)}, nil
	default:
		return nil, fmt.Errorf("fill: unknown Options.Mode %q (want %q or %q)", e.opts.Mode, ModeRect, ModeSite)
	}
}

// rectMode is the paper's continuous-rect strategy: candidates tiled
// from the free pieces by Alg. 1 (zero-overlay region first on even
// layers) and widths shrunk continuously by the sizing LP.
type rectMode struct{ e *Engine }

func (m rectMode) cacheID() string { return ModeRect }

func (m rectMode) windowKeyExtra(*window, *fillcache.Hasher) {}

// clipFree insets every window-clipped piece by half the minimum spacing
// so cells tiled from it are pairwise legal from birth — including
// across window boundaries, which the per-window sizing LP could not
// repair.
func (m rectMode) clipFree(fr, win geom.Rect) geom.Rect {
	inset := (m.e.lay.Rules.MinSpace + 1) / 2
	return fr.Intersect(win).Expand(-inset)
}

// fillableArea is the closed-form tileable candidate area of one piece.
func (m rectMode) fillableArea(fr geom.Rect) int64 {
	return TileRegionArea(fr, m.e.lay.Rules)
}

// selectCandidates runs Alg. 1 (overlay-aware two-pass selection).
func (m rectMode) selectCandidates(w *window, td []float64) {
	w.selectCandidates(m.e.lay, td, m.e.opts.Lambda)
}

// sizeWindow shrinks the selection through the resilient LP fallback
// chain (worker's solver → one-shot SSP → simplex → no-shrink
// degradation).
func (m rectMode) sizeWindow(ctx context.Context, k int, w *window, targets []int64, sc *sizeScratch, hc *healthCollector) ([]cell, bool, error) {
	return m.e.sizeWindowResilient(ctx, k, w, targets, sc, hc)
}
