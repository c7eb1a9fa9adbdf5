// Package grid implements the fixed-dissection window grid the paper's
// density analysis is based on: the layout is divided into N×M square
// windows (Fig. 2(b)) and per-window densities drive planning and scoring.
package grid

import (
	"errors"
	"fmt"

	"dummyfill/internal/geom"
)

// Grid is a fixed dissection of a die area into square windows of size W.
// Windows at the top/right edge may be partial if the die is not an exact
// multiple of W; their density is normalized by their true area.
type Grid struct {
	Die geom.Rect
	W   int64
	NX  int // columns
	NY  int // rows
}

// MaxWindows caps the windows of one grid. Die extents and window sizes
// come straight off untrusted decks and query strings, and every stage
// allocates per window, so a tiny window over a large die would
// otherwise ask for tens of gigabytes. The cap is far above any real
// dissection (the largest benchmark design has 25,600 windows).
const MaxWindows = 1 << 22

// MaxCoord bounds the die's corners (|coord| ≤ MaxCoord) and MaxWindow
// the window size. Die and window extents then fit in 2^31 and their
// areas in int64, so no stage's extent or area arithmetic can overflow.
const (
	MaxCoord  = 1 << 30
	MaxWindow = 1 << 31
)

// MaxIncidences caps the (shape, window) incidences of one layer: the
// entries of its wires, padded by MinSpace as fill-region extraction
// bins them, plus those of its fill regions. Bin stores 4 bytes per
// incidence, and a die-spanning wire touches every window, so neither
// MaxWindows nor a shape count bounds the product. The cap equals the
// readers' default shape cap: a layer of that many shapes still fits if
// each touches one window on average. The largest benchmark layer, on
// design m, has 323,334 incidences: 0.5% of the cap.
const MaxIncidences = 1 << 26

// MaxWindowLayers caps windows × layers. The fill engine keeps state for
// every (window, layer) pair, about 110 bytes of it (the pair's working
// record, two bin offsets and its density-map entries), even for a layer
// without a single shape, so a layer count that costs a deck a few bytes
// would otherwise multiply MaxWindows into terabytes. At the cap that
// state stays under 500 MiB; a grid at MaxWindows may carry one layer. The
// largest benchmark design, the 25,600-window row design, uses 0.6% of
// it.
const MaxWindowLayers = 1 << 22

// ErrLimit is wrapped by every error that reports one of the grid's
// resource caps: MaxWindows, MaxCoord and MaxWindow, MaxIncidences or
// MaxWindowLayers. The message names the cap. layio.ErrLimit is the same
// value, so ingest and the fill engine report a grid cap as an exceeded
// resource limit of the input, not as malformed input.
var ErrLimit = errors.New("resource limit exceeded")

// New builds a grid over die with window size w. It fails with an error
// wrapping ErrLimit when the grid would exceed MaxWindows, or when die or
// w exceed MaxCoord or MaxWindow.
func New(die geom.Rect, w int64) (*Grid, error) {
	if die.Empty() {
		return nil, fmt.Errorf("grid: empty die %v", die)
	}
	if w <= 0 {
		return nil, fmt.Errorf("grid: window size must be positive, got %d", w)
	}
	nx, ny := windowsAcross(die.XL, die.XH, w), windowsAcross(die.YL, die.YH, w)
	if nx > MaxWindows || ny > MaxWindows/nx {
		return nil, fmt.Errorf("grid: %w: too many windows: window %d over die %v makes %d×%d, above MaxWindows %d", ErrLimit, w, die, nx, ny, MaxWindows)
	}
	if die.XL < -MaxCoord || die.YL < -MaxCoord || die.XH > MaxCoord || die.YH > MaxCoord || w > MaxWindow {
		return nil, fmt.Errorf("grid: %w: coordinates out of range: die %v or window %d beyond ±MaxCoord %d or MaxWindow %d", ErrLimit, die, w, MaxCoord, MaxWindow)
	}
	return &Grid{Die: die, W: w, NX: int(nx), NY: int(ny)}, nil
}

// windowsAcross returns ⌈(hi−lo)/w⌉ for lo < hi and w > 0, in unsigned
// arithmetic so that no int64 extent can overflow it.
func windowsAcross(lo, hi, w int64) uint64 {
	d, uw := uint64(hi)-uint64(lo), uint64(w)
	n := d / uw
	if d%uw != 0 {
		n++
	}
	return n
}

// NumWindows returns NX*NY.
func (g *Grid) NumWindows() int { return g.NX * g.NY }

// Window returns the rect of window (i,j) where i is the column and j the
// row, clipped to the die.
func (g *Grid) Window(i, j int) geom.Rect {
	r := geom.Rect{
		XL: g.Die.XL + int64(i)*g.W,
		YL: g.Die.YL + int64(j)*g.W,
		XH: g.Die.XL + int64(i+1)*g.W,
		YH: g.Die.YL + int64(j+1)*g.W,
	}
	return r.Intersect(g.Die)
}

// cellRange returns the inclusive window index ranges [i0,i1]×[j0,j1]
// overlapped by r; ok is false when r misses the die entirely. Every
// window in the range overlaps r. RangeOverlapping and Incidences share
// it, and Bin's index, whose cells are the windows, computes the same
// ranges, so all three see the same windows.
func (g *Grid) cellRange(r geom.Rect) (i0, j0, i1, j1 int, ok bool) {
	r = r.Intersect(g.Die)
	if r.Empty() {
		return 0, 0, 0, 0, false
	}
	i0 = int((r.XL - g.Die.XL) / g.W)
	j0 = int((r.YL - g.Die.YL) / g.W)
	i1 = int((r.XH - 1 - g.Die.XL) / g.W)
	j1 = int((r.YH - 1 - g.Die.YL) / g.W)
	return i0, j0, i1, j1, true
}

// RangeOverlapping calls fn(i, j, clip) for every window overlapping r,
// where clip is the part of r inside window (i,j).
func (g *Grid) RangeOverlapping(r geom.Rect, fn func(i, j int, clip geom.Rect)) {
	i0, j0, i1, j1, ok := g.cellRange(r)
	if !ok {
		return
	}
	r = r.Intersect(g.Die)
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			w := g.Window(i, j)
			c := r.Intersect(w)
			if !c.Empty() {
				fn(i, j, c)
			}
		}
	}
}

// Bins groups shape indices by window: Window(k) lists, in input order,
// the indices of the shapes whose padded rect overlaps window k
// (row-major, k = j*NX+i). All lists share one index array.
type Bins struct {
	off []int // window k's indices are idx[off[k]:off[k+1]]
	idx []int32
}

// Window returns window k's shape indices. The slice has no spare
// capacity, so appending to it never writes into a neighbour's list.
func (b Bins) Window(k int) []int32 {
	lo, hi := b.off[k], b.off[k+1]
	return b.idx[lo:hi:hi]
}

// Bin groups rects by the windows that each one, expanded by pad,
// overlaps: window k lists exactly the indices that
// RangeOverlapping(rects[i].Expand(pad)) visits at k, in input order. It
// is geom.NewIndex with one cell per window.
func (g *Grid) Bin(rects []geom.Rect, pad int64) Bins {
	off, idx := geom.NewIndex(g.Die, g.W, rects, pad).Buckets()
	return Bins{off: off, idx: idx}
}

// Incidences returns the number of indices Bin(rects, pad) stores,
// from the window-range arithmetic alone.
func (g *Grid) Incidences(rects []geom.Rect, pad int64) int64 {
	var n int64
	for _, r := range rects {
		if i0, j0, i1, j1, ok := g.cellRange(r.Expand(pad)); ok {
			n += int64(i1-i0+1) * int64(j1-j0+1)
		}
	}
	return n
}

// CheckIncidences fails with an error wrapping ErrLimit when
// one layer's wires, padded by space, and fill regions touch more than
// MaxIncidences windows in total. It allocates nothing, so callers run it
// before the first Bin of the layer.
func (g *Grid) CheckIncidences(wires, regions []geom.Rect, space int64) error {
	if n := g.Incidences(wires, space) + g.Incidences(regions, 0); n > MaxIncidences {
		return fmt.Errorf("grid: %w: too many shape-window incidences: %d, above MaxIncidences %d", ErrLimit, n, MaxIncidences)
	}
	return nil
}

// CheckLayers fails with an error wrapping ErrLimit when g
// with nl layers has more than MaxWindowLayers (window, layer) pairs.
// Callers run it before the first per-(window, layer) allocation.
func (g *Grid) CheckLayers(nl int) error {
	if nw := g.NumWindows(); nl > MaxWindowLayers/nw {
		return fmt.Errorf("grid: %w: too many window-layer pairs: %d windows × %d layers, above MaxWindowLayers %d", ErrLimit, nw, nl, MaxWindowLayers)
	}
	return nil
}

// Map is a per-window scalar field over a grid (densities, areas, bounds).
type Map struct {
	G *Grid
	V []float64 // row-major: V[j*NX+i]
}

// NewMap allocates a zero map over g.
func NewMap(g *Grid) *Map { return &Map{G: g, V: make([]float64, g.NumWindows())} }

// At returns the value at window (i,j).
func (m *Map) At(i, j int) float64 { return m.V[j*m.G.NX+i] }

// Set stores v at window (i,j).
func (m *Map) Set(i, j int, v float64) { m.V[j*m.G.NX+i] = v }

// Add accumulates v at window (i,j).
func (m *Map) Add(i, j int, v float64) { m.V[j*m.G.NX+i] += v }

// Clone returns a deep copy.
func (m *Map) Clone() *Map {
	out := NewMap(m.G)
	copy(out.V, m.V)
	return out
}

// Mean returns the average value.
func (m *Map) Mean() float64 {
	if len(m.V) == 0 {
		return 0
	}
	var s float64
	for _, v := range m.V {
		s += v
	}
	return s / float64(len(m.V))
}

// MinMax returns the extreme values.
func (m *Map) MinMax() (lo, hi float64) {
	if len(m.V) == 0 {
		return 0, 0
	}
	lo, hi = m.V[0], m.V[0]
	for _, v := range m.V[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return
}

// AreaMap accumulates, for each window, the area of the given rectangles
// clipped to that window. Overlaps among rects are counted multiple times;
// pass disjoint rect sets (wires after free-space extraction, fills after
// DRC) for exact densities.
func AreaMap(g *Grid, rects []geom.Rect) *Map {
	m := NewMap(g)
	for _, r := range rects {
		g.RangeOverlapping(r, func(i, j int, clip geom.Rect) {
			m.Add(i, j, float64(clip.Area()))
		})
	}
	return m
}

// DensityMap converts an area map into a density map by dividing by each
// window's true (clipped) area.
func DensityMap(area *Map) *Map {
	g := area.G
	out := NewMap(g)
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			wa := float64(g.Window(i, j).Area())
			if wa > 0 {
				out.Set(i, j, area.At(i, j)/wa)
			}
		}
	}
	return out
}
