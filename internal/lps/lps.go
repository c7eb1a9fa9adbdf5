// Package lps is a dense two-phase primal simplex solver for linear
// programs with bounded variables:
//
//	min  c·x
//	s.t. A x {<=,=,>=} b
//	     lo <= x <= hi   (entries may be ±Inf)
//
// It exists as the substrate for the tile-based LP fill baseline
// (Kahng et al.-style formulations the paper compares against) and as the
// runtime comparison point for the dual min-cost-flow solver: on the
// fill-sizing problems the constraint matrix is totally unimodular, so the
// LP optimum is integral and equals the ILP optimum.
//
// The implementation is the classic full-tableau simplex with the
// upper-bounding technique (bounds handled implicitly, not as rows) and a
// phase-1 artificial objective. It is deliberately simple, dense and
// deterministic; problem sizes in this repository stay in the low
// thousands of variables.
package lps

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sense of a linear constraint row.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // a·x <= b
	GE              // a·x >= b
	EQ              // a·x == b
)

// Problem is an LP instance under construction. Use NewProblem, AddVar and
// AddConstraint.
type Problem struct {
	c      []float64
	lo, hi []float64
	rows   []row
}

// coefTerm is one nonzero of a constraint row, stored as a slice sorted
// by variable index: the solver accumulates float sums over these terms,
// and a fixed order makes every rounding decision — and therefore every
// pivot sequence and every solution — reproducible across runs. (A map
// here once made the dense-simplex fallback tier the only nondeterministic
// solver in the chain.)
type coefTerm struct {
	j int
	v float64
}

type row struct {
	coef  []coefTerm
	sense Sense
	b     float64
}

// Inf is a convenience re-export for unbounded variable bounds.
var Inf = math.Inf(1)

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar appends a variable with the given objective coefficient and
// bounds, returning its index.
func (p *Problem) AddVar(cost, lo, hi float64) int {
	p.c = append(p.c, cost)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	return len(p.c) - 1
}

// AddConstraint appends a row Σ coef[i]·x_i (sense) b. The coefficient map
// is copied into a dense term list sorted by variable index, fixing the
// float accumulation order for the solver.
func (p *Problem) AddConstraint(coef map[int]float64, sense Sense, b float64) {
	cp := make([]coefTerm, 0, len(coef))
	for k, v := range coef { //filllint:allow nodeterm -- terms are sorted by index below
		cp = append(cp, coefTerm{k, v})
	}
	sort.Slice(cp, func(a, b int) bool { return cp[a].j < cp[b].j })
	p.rows = append(p.rows, row{cp, sense, b})
}

// Result is an LP solution.
type Result struct {
	X     []float64
	Obj   float64
	Iters int // total simplex pivots across both phases
}

// Solver failure modes.
var (
	ErrInfeasible = errors.New("lps: infeasible")
	ErrUnboundedP = errors.New("lps: unbounded")
	ErrNumerical  = errors.New("lps: numerical failure / iteration limit")
)

const eps = 1e-9

// Solve runs two-phase simplex and returns the optimal solution.
func (p *Problem) Solve() (*Result, error) {
	n := len(p.c)
	m := len(p.rows)
	if m == 0 {
		// Pure bound minimization.
		x := make([]float64, n)
		var obj float64
		for i := range x {
			switch {
			case p.c[i] > 0:
				x[i] = p.lo[i]
			case p.c[i] < 0:
				x[i] = p.hi[i]
			default:
				x[i] = p.lo[i]
			}
			if math.IsInf(x[i], 0) {
				return nil, ErrUnboundedP
			}
			obj += p.c[i] * x[i]
		}
		return &Result{X: x, Obj: obj}, nil
	}

	// Total variable layout: structural [0,n) | slack [n, n+m) | artificial
	// [n+m, n+2m) (artificials created lazily, one per row).
	t := newTableau(p)
	if err := t.phase1(); err != nil {
		return nil, err
	}
	if err := t.phase2(); err != nil {
		return nil, err
	}
	x := make([]float64, n)
	full := t.values()
	copy(x, full[:n])
	var obj float64
	for i := range x {
		obj += p.c[i] * x[i]
	}
	return &Result{X: x, Obj: obj, Iters: t.iters}, nil
}

// tableau is the dense simplex working state.
type tableau struct {
	m, n     int       // rows, total columns (structural+slack+artificial)
	ns       int       // structural count
	a        []float64 // m×n dense matrix, row-major (B^-1 A maintained in place)
	bval     []float64 // current basic variable values (length m)
	lo, hi   []float64 // per-column bounds
	cPhase2  []float64 // phase-2 costs per column
	basis    []int     // basic column per row
	atUpper  []bool    // nonbasic-at-upper flag per column
	xN       []float64 // cached nonbasic values per column (lo or hi)
	iters    int
	maxIters int
}

func newTableau(p *Problem) *tableau {
	m := len(p.rows)
	ns := len(p.c)
	n := ns + 2*m
	t := &tableau{
		m: m, n: n, ns: ns,
		a:       make([]float64, m*n),
		bval:    make([]float64, m),
		lo:      make([]float64, n),
		hi:      make([]float64, n),
		cPhase2: make([]float64, n),
		basis:   make([]int, m),
		atUpper: make([]bool, n),
		xN:      make([]float64, n),
	}
	t.maxIters = 2000 + 200*(m+ns)
	copy(t.cPhase2, p.c)
	copy(t.lo, p.lo)
	copy(t.hi, p.hi)
	for i := 0; i < m; i++ {
		r := p.rows[i]
		for _, term := range r.coef {
			t.a[i*t.n+term.j] = term.v
		}
		sl := ns + i
		art := ns + m + i
		// Slack bounds by sense: <=: s in [0,inf) with +1; >=: s in
		// (-inf,0]; =: s fixed 0.
		t.a[i*t.n+sl] = 1
		switch r.sense {
		case LE:
			t.lo[sl], t.hi[sl] = 0, Inf
		case GE:
			t.lo[sl], t.hi[sl] = math.Inf(-1), 0
		case EQ:
			t.lo[sl], t.hi[sl] = 0, 0
		}
		// Artificial column: created with coefficient set during phase-1
		// basis construction.
		t.a[i*t.n+art] = 1
		t.lo[art], t.hi[art] = 0, 0 // tightened to [0,inf) only if used
	}

	// Nonbasic structural vars start at their finite bound nearest zero.
	for j := 0; j < ns; j++ {
		t.xN[j] = t.startValue(j)
		t.atUpper[j] = !math.IsInf(t.hi[j], 1) && t.xN[j] == t.hi[j] && t.xN[j] != t.lo[j]
	}

	// Initial basis: prefer the slack; if the slack's bounds cannot absorb
	// the row residual, use the artificial.
	for i := 0; i < m; i++ {
		r := p.rows[i]
		resid := r.b
		for _, term := range r.coef {
			resid -= term.v * t.xN[term.j]
		}
		sl := ns + i
		art := ns + m + i
		if resid >= t.lo[sl]-eps && resid <= t.hi[sl]+eps {
			t.basis[i] = sl
			t.bval[i] = clamp(resid, t.lo[sl], t.hi[sl])
			// xN of the unused artificial stays fixed at 0.
		} else {
			// Slack pinned at its nearest bound; artificial absorbs the rest.
			sv := clamp(resid, t.lo[sl], t.hi[sl])
			if math.IsInf(sv, 0) {
				sv = 0
			}
			t.xN[sl] = sv
			t.atUpper[sl] = sv == t.hi[sl] && t.lo[sl] != t.hi[sl]
			gap := resid - sv
			if gap < 0 {
				t.a[i*t.n+art] = -1
				gap = -gap
			}
			t.lo[art], t.hi[art] = 0, Inf
			t.basis[i] = art
			t.bval[i] = gap
		}
	}
	return t
}

func (t *tableau) startValue(j int) float64 {
	lo, hi := t.lo[j], t.hi[j]
	switch {
	case !math.IsInf(lo, 0):
		return lo
	case !math.IsInf(hi, 0):
		return hi
	default:
		return 0
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// phase1 drives artificial variables to zero.
func (t *tableau) phase1() error {
	c := make([]float64, t.n)
	anyArt := false
	for i := 0; i < t.m; i++ {
		art := t.ns + t.m + i
		if t.hi[art] > 0 { // artificial in use
			c[art] = 1
			anyArt = true
		}
	}
	if !anyArt {
		return nil
	}
	if err := t.iterate(c); err != nil {
		if errors.Is(err, ErrUnboundedP) {
			return ErrNumerical // phase-1 objective is bounded below by 0
		}
		return err
	}
	// Check artificials are zero.
	var infeas float64
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.ns+t.m {
			infeas += math.Abs(t.bval[i])
		}
	}
	for j := t.ns + t.m; j < t.n; j++ {
		if !t.isBasic(j) && t.xN[j] != 0 {
			infeas += math.Abs(t.xN[j])
		}
	}
	if infeas > 1e-6 {
		return ErrInfeasible
	}
	// Freeze artificials at zero so phase 2 cannot reuse them.
	for j := t.ns + t.m; j < t.n; j++ {
		t.lo[j], t.hi[j] = 0, 0
		if !t.isBasic(j) {
			t.xN[j] = 0
			t.atUpper[j] = false
		}
	}
	return nil
}

func (t *tableau) isBasic(j int) bool {
	for _, b := range t.basis {
		if b == j {
			return true
		}
	}
	return false
}

// phase2 optimizes the true objective.
func (t *tableau) phase2() error {
	return t.iterate(t.cPhase2)
}

// iterate runs bounded-variable simplex pivots until optimality.
func (t *tableau) iterate(c []float64) error {
	m, n := t.m, t.n
	basicMark := make([]bool, n)
	y := make([]float64, m) // c_B
	for {
		t.iters++
		if t.iters > t.maxIters {
			return ErrNumerical
		}
		for j := range basicMark {
			basicMark[j] = false
		}
		for i, b := range t.basis {
			basicMark[b] = true
			y[i] = c[b]
		}
		// Reduced cost d_j = c_j - y·A_j (A is the current tableau, so
		// basic columns are unit vectors and y·A_j is a dot product).
		enter := -1
		var enterDir float64 // +1 increase from lower, -1 decrease from upper
		var bestScore float64 = -eps
		for j := 0; j < n; j++ {
			if basicMark[j] || t.lo[j] == t.hi[j] && t.lo[j] == 0 && j >= t.ns+t.m {
				continue
			}
			if t.lo[j] == t.hi[j] {
				continue // fixed variable can never improve
			}
			var d float64 = c[j]
			for i := 0; i < m; i++ {
				aij := t.a[i*n+j]
				if aij != 0 {
					d -= y[i] * aij
				}
			}
			if !t.atUpper[j] && d < bestScore {
				enter, enterDir, bestScore = j, +1, d
			} else if t.atUpper[j] && -d < bestScore {
				enter, enterDir, bestScore = j, -1, -d
			}
		}
		if enter == -1 {
			return nil // optimal
		}

		// Ratio test: how far can x_enter move (delta >= 0 in direction
		// enterDir) before a basic variable or the entering variable's
		// opposite bound blocks?
		limit := math.Inf(1)
		if !math.IsInf(t.hi[enter], 1) && !math.IsInf(t.lo[enter], -1) {
			limit = t.hi[enter] - t.lo[enter]
		}
		leave := -1 // row index; -1 means bound flip
		leaveToUpper := false
		for i := 0; i < m; i++ {
			aij := t.a[i*n+enter] * enterDir
			if math.Abs(aij) < eps {
				continue
			}
			bi := t.basis[i]
			// x_B[i] moves by -aij * delta.
			var bound float64
			toUpper := false
			if aij > 0 {
				bound = t.lo[bi] // decreasing basic var hits lower bound
			} else {
				bound = t.hi[bi]
				toUpper = true
			}
			if math.IsInf(bound, 0) {
				continue
			}
			ratio := (t.bval[i] - bound) / aij
			if ratio < -eps {
				ratio = 0
			}
			if ratio < 0 {
				ratio = 0
			}
			if ratio < limit-eps {
				limit = ratio
				leave = i
				leaveToUpper = toUpper
			} else if ratio < limit+eps && leave != -1 && t.basis[i] > t.basis[leave] {
				// Bland-ish tie-break on variable index for determinism.
				leave = i
				leaveToUpper = toUpper
			}
		}
		if math.IsInf(limit, 1) {
			return ErrUnboundedP
		}
		delta := limit * enterDir

		// Update basic values.
		for i := 0; i < m; i++ {
			t.bval[i] -= t.a[i*n+enter] * delta
		}
		if leave == -1 {
			// Bound flip: entering variable moves to its other bound.
			t.atUpper[enter] = enterDir > 0
			if enterDir > 0 {
				t.xN[enter] = t.hi[enter]
			} else {
				t.xN[enter] = t.lo[enter]
			}
			continue
		}
		// Pivot: entering becomes basic in row 'leave'.
		lv := t.basis[leave]
		t.atUpper[lv] = leaveToUpper
		if leaveToUpper {
			t.xN[lv] = t.hi[lv]
		} else {
			t.xN[lv] = t.lo[lv]
		}
		newVal := t.valueOf(enter) + delta
		t.pivot(leave, enter)
		t.basis[leave] = enter
		t.bval[leave] = newVal
	}
}

// valueOf returns the current value of column j (basic or nonbasic).
func (t *tableau) valueOf(j int) float64 {
	for i, b := range t.basis {
		if b == j {
			return t.bval[i]
		}
	}
	return t.xN[j]
}

// pivot performs Gaussian elimination making column 'col' a unit vector
// with 1 in row 'prow'.
func (t *tableau) pivot(prow, col int) {
	n := t.n
	pv := t.a[prow*n+col]
	inv := 1 / pv
	prowBase := prow * n
	for j := 0; j < n; j++ {
		t.a[prowBase+j] *= inv
	}
	t.a[prowBase+col] = 1
	for i := 0; i < t.m; i++ {
		if i == prow {
			continue
		}
		f := t.a[i*n+col]
		if f == 0 {
			continue
		}
		base := i * n
		for j := 0; j < n; j++ {
			t.a[base+j] -= f * t.a[prowBase+j]
		}
		t.a[base+col] = 0
	}
}

// values reconstructs the full variable vector.
func (t *tableau) values() []float64 {
	x := make([]float64, t.n)
	for j := 0; j < t.n; j++ {
		x[j] = t.xN[j]
	}
	for i, b := range t.basis {
		x[b] = t.bval[i]
	}
	return x
}

// String summarises the problem dimensions (debug aid).
func (p *Problem) String() string {
	return fmt.Sprintf("lps.Problem{vars: %d, rows: %d}", len(p.c), len(p.rows))
}
