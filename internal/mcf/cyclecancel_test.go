package mcf

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestCycleCancelingBasics(t *testing.T) {
	g := NewGraph(4)
	g.SetSupply(0, 10)
	g.SetSupply(3, -10)
	g.AddArc(0, 1, 10, 1)
	g.AddArc(1, 3, 10, 1)
	g.AddArc(0, 2, 10, 5)
	g.AddArc(2, 3, 10, 5)
	res, err := g.SolveCycleCanceling()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 20 {
		t.Fatalf("cost = %d, want 20", res.Cost)
	}
	if _, err := g.Validate(res); err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyOptimal(res); err != nil {
		t.Fatal(err)
	}
}

func TestCycleCancelingInfeasible(t *testing.T) {
	g := NewGraph(3)
	g.SetSupply(0, 5)
	g.SetSupply(2, -5)
	g.AddArc(0, 1, 10, 1)
	if _, err := g.SolveCycleCanceling(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestThreeSolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for it := 0; it < 120; it++ {
		n := 2 + rng.Intn(7)
		g := randomInstance(rng, n, rng.Intn(10))
		r1, e1 := g.solveSSP()
		r2, e2 := g.SolveNetworkSimplex()
		r3, e3 := g.SolveCycleCanceling()
		if (e1 == nil) != (e2 == nil) || (e1 == nil) != (e3 == nil) {
			t.Fatalf("it %d: feasibility disagreement: %v / %v / %v", it, e1, e2, e3)
		}
		if e1 != nil {
			continue
		}
		if r1.Cost != r2.Cost || r1.Cost != r3.Cost {
			t.Fatalf("it %d: costs differ: %d / %d / %d", it, r1.Cost, r2.Cost, r3.Cost)
		}
		if _, err := g.Validate(r3); err != nil {
			t.Fatalf("it %d: cycle-canceling flow invalid: %v", it, err)
		}
		if err := g.VerifyOptimal(r3); err != nil {
			t.Fatalf("it %d: cycle-canceling not optimal: %v", it, err)
		}
	}
}

func TestSolversAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for it := 0; it < 60; it++ {
		// Very small instances so exhaustive enumeration is tractable.
		n := 2 + rng.Intn(3)
		g := NewGraph(n)
		m := 1 + rng.Intn(4)
		for k := 0; k < m; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			g.AddArc(u, v, int64(rng.Intn(4)), int64(rng.Intn(11)-5))
		}
		var tot int64
		for i := 0; i < n-1; i++ {
			s := int64(rng.Intn(5) - 2)
			g.SetSupply(i, s)
			tot += s
		}
		g.SetSupply(n-1, -tot)

		want, feasible := g.bruteForceMinCost(4)
		res, err := g.solveSSP()
		if !feasible {
			if err == nil {
				t.Fatalf("it %d: brute says infeasible, SSP cost %d", it, res.Cost)
			}
			continue
		}
		if err != nil {
			// Brute found a feasible flow, solver must too — unless the
			// instance is unbounded (negative cycle), which brute cannot
			// detect. Distinguish: unbounded instances have a negative
			// cycle with capacity.
			if errors.Is(err, ErrUnbounded) {
				continue
			}
			t.Fatalf("it %d: SSP error %v but brute found cost %d", it, err, want)
		}
		if res.Cost != want {
			t.Fatalf("it %d: SSP cost %d, brute %d", it, res.Cost, want)
		}
	}
}

func BenchmarkCycleCancelingMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomInstance(rng, 200, 800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.SolveCycleCanceling(); err != nil {
			b.Fatal(err)
		}
	}
}

// SolveCycleCanceling solves the min-cost flow problem with Klein's
// negative-cycle-canceling algorithm: first establish any feasible flow
// (cost-blind augmentation), then repeatedly cancel negative-cost
// residual cycles until none remain. It is asymptotically the slowest of
// the three solvers but structurally independent of both SSP and network
// simplex, which makes it a valuable cross-validation oracle. It lives in
// a test file because only the tests call it.
func (g *Graph) SolveCycleCanceling() (*Result, error) {
	if err := g.checkSolvable(); err != nil {
		return nil, err
	}
	n := len(g.supply)
	m := len(g.arcs)

	res := make([]int64, 2*m)
	head := make([]int, 2*m)
	cost := make([]int64, 2*m)
	first := make([]int, n)
	next := make([]int, 2*m)
	for i := range first {
		first[i] = -1
	}
	for i, a := range g.arcs {
		f, b := 2*i, 2*i+1
		res[f], res[b] = a.Cap, 0
		head[f], head[b] = a.To, a.From
		cost[f], cost[b] = a.Cost, -a.Cost
		next[f] = first[a.From]
		first[a.From] = f
		next[b] = first[a.To]
		first[a.To] = b
	}

	// Phase 1: feasible flow via BFS augmentation from excess nodes to
	// deficit nodes, ignoring costs.
	excess := make([]int64, n)
	copy(excess, g.supply)
	parent := make([]int, n)
	for {
		src := -1
		for i, e := range excess {
			if e > 0 {
				src = i
				break
			}
		}
		if src == -1 {
			break
		}
		// BFS over residual arcs.
		for i := range parent {
			parent[i] = -1
		}
		queue := []int{src}
		parent[src] = -2
		sink := -1
		for len(queue) > 0 && sink == -1 {
			u := queue[0]
			queue = queue[1:]
			for e := first[u]; e != -1; e = next[e] {
				if res[e] <= 0 {
					continue
				}
				v := head[e]
				if parent[v] != -1 {
					continue
				}
				parent[v] = e
				if excess[v] < 0 {
					sink = v
					break
				}
				queue = append(queue, v)
			}
		}
		if sink == -1 {
			return nil, ErrInfeasible
		}
		amt := excess[src]
		if -excess[sink] < amt {
			amt = -excess[sink]
		}
		for v := sink; v != src; {
			e := parent[v]
			if res[e] < amt {
				amt = res[e]
			}
			v = head[e^1]
		}
		for v := sink; v != src; {
			e := parent[v]
			res[e] -= amt
			res[e^1] += amt
			v = head[e^1]
		}
		excess[src] -= amt
		excess[sink] += amt
	}

	// Phase 2: cancel negative residual cycles (reuses the SSP helper).
	if err := cancelNegativeCycles(n, first, next, head, cost, res); err != nil {
		return nil, err
	}

	out := &Result{Flow: make([]int64, m)}
	for i, a := range g.arcs {
		out.Flow[i] = a.Cap - res[2*i]
		out.Cost += out.Flow[i] * a.Cost
	}
	pot, err := residualPotentials(n, first, next, head, cost, res)
	if err != nil {
		return nil, err
	}
	out.Potential = pot
	return out, nil
}

// bruteForceMinCost exhaustively enumerates integer flows for tiny
// instances (every arc capacity and every |supply| small). Exposed for
// tests only via the mcf package's internal test file; kept here so the
// enumeration logic stays close to the data structures it validates.
func (g *Graph) bruteForceMinCost(maxFlowPerArc int64) (int64, bool) {
	m := len(g.arcs)
	flow := make([]int64, m)
	best := int64(math.MaxInt64)
	found := false
	var rec func(i int)
	rec = func(i int) {
		if i == m {
			imb := make([]int64, len(g.supply))
			copy(imb, g.supply)
			var c int64
			for k, a := range g.arcs {
				imb[a.From] -= flow[k]
				imb[a.To] += flow[k]
				c += flow[k] * a.Cost
			}
			for _, v := range imb {
				if v != 0 {
					return
				}
			}
			if c < best {
				best = c
				found = true
			}
			return
		}
		limit := g.arcs[i].Cap
		if limit > maxFlowPerArc {
			limit = maxFlowPerArc
		}
		for f := int64(0); f <= limit; f++ {
			flow[i] = f
			rec(i + 1)
		}
		flow[i] = 0
	}
	rec(0)
	return best, found
}

// cancelNegativeCycles repeatedly finds a negative-cost cycle in the
// residual graph via Bellman-Ford with parent tracking and saturates it.
// Cycles whose bottleneck is effectively infinite indicate an unbounded
// objective. Used by the cycle-canceling oracle.
func cancelNegativeCycles(n int, first, next, head []int, cost, res []int64) error {
	dist := make([]int64, n)
	parentArc := make([]int, n)
	for {
		for i := range dist {
			dist[i] = 0 // virtual source to all nodes at cost 0
			parentArc[i] = -1
		}
		cycleNode := -1
		for iter := 0; iter < n; iter++ {
			changed := false
			for u := 0; u < n; u++ {
				du := dist[u]
				for e := first[u]; e != -1; e = next[e] {
					if res[e] <= 0 {
						continue
					}
					v := head[e]
					if nd := du + cost[e]; nd < dist[v] {
						dist[v] = nd
						parentArc[v] = e
						changed = true
						if iter == n-1 {
							cycleNode = v
						}
					}
				}
			}
			if !changed {
				return nil // no negative cycle
			}
		}
		if cycleNode == -1 {
			return nil
		}
		// Walk parents n times to land inside the cycle, then extract it.
		v := cycleNode
		for i := 0; i < n; i++ {
			v = head[parentArc[v]^1]
		}
		var cyc []int
		start := v
		for {
			e := parentArc[v]
			cyc = append(cyc, e)
			v = head[e^1]
			if v == start {
				break
			}
		}
		var bottleneck int64 = math.MaxInt64
		for _, e := range cyc {
			if res[e] < bottleneck {
				bottleneck = res[e]
			}
		}
		if bottleneck >= InfCap/2 {
			return ErrUnbounded
		}
		for _, e := range cyc {
			res[e] -= bottleneck
			res[e^1] += bottleneck
		}
	}
}

// residualPotentials runs Bellman-Ford from a virtual source connected to
// all nodes by zero-cost arcs over residual arcs (res > 0) and returns
// -dist as potentials. Used by the cycle-canceling oracle.
func residualPotentials(n int, first, next, head []int, cost, res []int64) ([]int64, error) {
	dist := make([]int64, n)
	// Virtual source: dist starts at 0 for all nodes.
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			du := dist[u]
			for e := first[u]; e != -1; e = next[e] {
				if res[e] <= 0 {
					continue
				}
				v := head[e]
				if nd := du + cost[e]; nd < dist[v] {
					dist[v] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if iter == n-1 && changed {
			return nil, ErrUnbounded
		}
	}
	pot := make([]int64, n)
	for i := range pot {
		pot[i] = -dist[i]
	}
	return pot, nil
}
