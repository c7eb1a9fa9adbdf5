// Package baseline implements the traditional fill methods the paper
// compares against — stand-ins for the (closed) ICCAD 2014 contest top-3
// binaries that reproduce the same trade-off structure:
//
//   - TileLP: the classic fixed-dissection tile-based LP formulation
//     (Kahng et al. [4]-style) — good density uniformity, but many small
//     fills (large GDSII) and LP runtime that blows up with problem size;
//   - MonteCarlo: stochastic fill insertion ([8,9]-style) — fast but
//     noisier density and no overlay awareness;
//   - Greedy: insert every legal fill everywhere — maximum density, worst
//     overlay and file size.
package baseline

import (
	"fmt"
	"math/rand"
	"sort"

	"dummyfill/internal/fill"
	"dummyfill/internal/geom"
	"dummyfill/internal/grid"
	"dummyfill/internal/layout"
	"dummyfill/internal/lps"
)

// insetForSpacing shrinks a region piece by half the minimum spacing so
// that cells tiled from different pieces (which may abut) end up at least
// MinSpace apart. The baselines have no sizing stage to repair spacing, so
// they pay this area tax up front.
func insetForSpacing(r geom.Rect, rules layout.Rules) geom.Rect {
	return r.Expand(-(rules.MinSpace + 1) / 2)
}

// Filler is a fill method under comparison.
type Filler interface {
	Name() string
	Fill(lay *layout.Layout) (*layout.Solution, error)
}

// Greedy inserts every legal candidate cell in every fill region.
type Greedy struct{}

// Name implements Filler.
func (Greedy) Name() string { return "greedy" }

// Fill implements Filler.
func (Greedy) Fill(lay *layout.Layout) (*layout.Solution, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	sol := &layout.Solution{}
	for li, layer := range lay.Layers {
		for _, fr := range layer.FillRegions {
			for _, c := range fill.TileRegion(insetForSpacing(fr, lay.Rules), lay.Rules) {
				sol.Fills = append(sol.Fills, layout.Fill{Layer: li, Rect: c})
			}
		}
	}
	return sol, nil
}

// MonteCarlo inserts fills by randomly sampling windows biased toward the
// largest density deficit, in the spirit of the Monte-Carlo fill
// literature. Small cells are used (a quarter of the max fill dimension)
// so the density resolution is fine — at the cost of many shapes.
type MonteCarlo struct {
	Seed int64
}

// Name implements Filler.
func (MonteCarlo) Name() string { return "montecarlo" }

// Fill implements Filler.
func (mc MonteCarlo) Fill(lay *layout.Layout) (*layout.Solution, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	g, err := lay.Grid()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(mc.Seed + 17))
	rules := lay.Rules
	// Finer cells than the main engine uses.
	if rules.MaxFillDim > 4*rules.MinWidth {
		rules.MaxFillDim /= 4
	}

	sol := &layout.Solution{}
	for li := range lay.Layers {
		// Per-window candidate cells and wire densities.
		type winState struct {
			cells []geom.Rect
			dens  float64
			aw    float64
		}
		wires := lay.WireDensityMap(g, li)
		regions := lay.Layers[li].FillRegions
		bins := g.Bin(regions, 0)
		states := make([]winState, g.NumWindows())
		for k := range states {
			i, j := k%g.NX, k/g.NX
			w := g.Window(i, j)
			states[k].aw = float64(w.Area())
			states[k].dens = wires.V[k]
			for _, si := range bins.Window(k) {
				states[k].cells = append(states[k].cells, fill.TileRegion(insetForSpacing(regions[si].Intersect(w), rules), rules)...)
			}
		}
		// Target density: the maximum wire density (the classic min-fill
		// uniformity target).
		var target float64
		for k := range states {
			if states[k].dens > target {
				target = states[k].dens
			}
		}
		// Shuffle cells per window so insertion order is random.
		for k := range states {
			rng.Shuffle(len(states[k].cells), func(a, b int) {
				states[k].cells[a], states[k].cells[b] = states[k].cells[b], states[k].cells[a]
			})
		}
		// Monte-Carlo loop: sample a deficit window proportionally to its
		// deficit, insert one random cell.
		active := make([]int, 0, len(states))
		for k := range states {
			if states[k].dens < target && len(states[k].cells) > 0 {
				active = append(active, k)
			}
		}
		for len(active) > 0 {
			// Weighted pick by deficit.
			var totalDef float64
			for _, k := range active {
				totalDef += target - states[k].dens
			}
			r := rng.Float64() * totalDef
			pick := active[0]
			for _, k := range active {
				if r -= target - states[k].dens; r <= 0 {
					pick = k
					break
				}
			}
			st := &states[pick]
			c := st.cells[len(st.cells)-1]
			st.cells = st.cells[:len(st.cells)-1]
			sol.Fills = append(sol.Fills, layout.Fill{Layer: li, Rect: c})
			st.dens += float64(c.Area()) / st.aw
			// Refresh the active set lazily.
			next := active[:0]
			for _, k := range active {
				if states[k].dens < target && len(states[k].cells) > 0 {
					next = append(next, k)
				}
			}
			active = next
		}
	}
	return sol, nil
}

// TileLP is the fixed-dissection LP fill method: each window is split into
// TilesPerSide² tiles; an LP chooses the fill area of every tile to
// maximize the minimum window density (the classic uniformity objective),
// then fills are realized per tile. Large designs are solved in blocks of
// BlockWindows×BlockWindows windows to keep the dense simplex tractable —
// which is exactly the scalability wall the paper attributes to LP-based
// methods.
type TileLP struct {
	TilesPerSide int // tiles per window edge (paper's w/r); default 4
	BlockWindows int // windows per LP block edge; default 16
}

// Name implements Filler.
func (TileLP) Name() string { return "tile-lp" }

// Fill implements Filler.
func (t TileLP) Fill(lay *layout.Layout) (*layout.Solution, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	if t.TilesPerSide <= 0 {
		t.TilesPerSide = 4
	}
	if t.BlockWindows <= 0 {
		t.BlockWindows = 16
	}
	g, err := lay.Grid()
	if err != nil {
		return nil, err
	}
	sol := &layout.Solution{}
	for li := range lay.Layers {
		if err := t.fillLayer(lay, g, li, sol); err != nil {
			return nil, fmt.Errorf("baseline: tile LP on layer %d: %w", li, err)
		}
	}
	return sol, nil
}

// tile holds the per-tile capacity and realization state.
type tile struct {
	rect  geom.Rect
	cells []geom.Rect // legal candidate cells inside this tile
	cap   int64       // total cell area
}

func (t TileLP) fillLayer(lay *layout.Layout, g *grid.Grid, li int, sol *layout.Solution) error {
	wires := lay.WireDensityMap(g, li)
	r := t.TilesPerSide

	// Build tiles per window and distribute candidate cells into them.
	regions := lay.Layers[li].FillRegions
	bins := g.Bin(regions, 0)
	tiles := make([][]tile, g.NumWindows()) // window k -> its tiles
	for k := range tiles {
		i, j := k%g.NX, k/g.NX
		w := g.Window(i, j)
		tw := (w.W() + int64(r) - 1) / int64(r)
		th := (w.H() + int64(r) - 1) / int64(r)
		for ty := 0; ty < r; ty++ {
			for tx := 0; tx < r; tx++ {
				tr := geom.R(w.XL+int64(tx)*tw, w.YL+int64(ty)*th,
					min64(w.XL+int64(tx+1)*tw, w.XH), min64(w.YL+int64(ty+1)*th, w.YH))
				if !tr.Empty() {
					tiles[k] = append(tiles[k], tile{rect: tr})
				}
			}
		}
		for _, si := range bins.Window(k) {
			clip := regions[si].Intersect(w)
			for ti := range tiles[k] {
				sub := clip.Intersect(tiles[k][ti].rect)
				if sub.Empty() {
					continue
				}
				cs := fill.TileRegion(insetForSpacing(sub, lay.Rules), lay.Rules)
				tiles[k][ti].cells = append(tiles[k][ti].cells, cs...)
				for _, c := range cs {
					tiles[k][ti].cap += c.Area()
				}
			}
		}
	}

	// Solve block by block.
	bw := t.BlockWindows
	for bj := 0; bj < g.NY; bj += bw {
		for bi := 0; bi < g.NX; bi += bw {
			if err := t.solveBlock(lay, g, li, wires, tiles, bi, bj, bw, sol); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t TileLP) solveBlock(lay *layout.Layout, g *grid.Grid, li int, wires *grid.Map, tiles [][]tile, bi, bj, bw int, sol *layout.Solution) error {
	p := lps.NewProblem()
	type varRef struct {
		win, tile int
	}
	var refs []varRef
	varOf := map[varRef]int{}

	// Collect block windows.
	var wins []int
	for j := bj; j < bj+bw && j < g.NY; j++ {
		for i := bi; i < bi+bw && i < g.NX; i++ {
			wins = append(wins, j*g.NX+i)
		}
	}
	// M = minimum window density in the block (maximize). A tiny fill-area
	// penalty keeps the solution from inserting useless fills.
	mVar := p.AddVar(-1, 0, 1)
	const epsPenalty = 1e-9
	for _, k := range wins {
		coef := map[int]float64{mVar: -1}
		aw := float64(g.Window(k%g.NX, k/g.NX).Area())
		for ti := range tiles[k] {
			if tiles[k][ti].cap == 0 {
				continue
			}
			ref := varRef{k, ti}
			v := p.AddVar(epsPenalty, 0, float64(tiles[k][ti].cap))
			varOf[ref] = v
			refs = append(refs, ref)
			coef[v] = 1 / aw
		}
		// wireDens + Σ p_t/aw − M ≥ 0.
		p.AddConstraint(coef, lps.GE, -wires.V[k])
	}
	res, err := p.Solve()
	if err != nil {
		return err
	}
	// Realize each tile's assigned area.
	for _, ref := range refs {
		want := int64(res.X[varOf[ref]])
		if want <= 0 {
			continue
		}
		tl := &tiles[ref.win][ref.tile]
		realizeTile(tl, want, lay.Rules, li, sol)
	}
	return nil
}

// realizeTile inserts cells from the tile until the wanted area is
// (approximately) reached; the final cell is narrowed to limit overshoot.
func realizeTile(tl *tile, want int64, rules layout.Rules, li int, sol *layout.Solution) {
	// Insert larger cells first for fewer shapes.
	sort.Slice(tl.cells, func(a, b int) bool { return tl.cells[a].Area() > tl.cells[b].Area() })
	var placed int64
	for _, c := range tl.cells {
		if placed >= want {
			break
		}
		remain := want - placed
		if c.Area() > remain {
			// Narrow the cell to the remaining area (respecting minima).
			minW := rules.MinWidth
			if byArea := (rules.MinArea + c.H() - 1) / c.H(); byArea > minW {
				minW = byArea
			}
			w := remain / c.H()
			if w < minW {
				w = minW
			}
			if w < c.W() {
				c = geom.R(c.XL, c.YL, c.XL+w, c.YH)
			}
		}
		sol.Fills = append(sol.Fills, layout.Fill{Layer: li, Rect: c})
		placed += c.Area()
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
