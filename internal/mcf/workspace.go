package mcf

import (
	"context"
	"math"
)

// Workspace is the reusable arena of the successive-shortest-path solver:
// the residual graph, the shortest-path buffers and the node potentials.
// Reusing one Workspace across many solves of similarly-sized problems
// keeps the hot path allocation-free. Nothing else carries over: every
// solve seeds its potentials from scratch, so its result depends on the
// instance alone.
//
// A Workspace is not safe for concurrent use; give each goroutine its own.
// The zero value is ready to use.
type Workspace struct {
	// Residual representation: arc i of the input graph becomes forward
	// residual res[2i] and backward residual res[2i+1]; costs negate on the
	// backward side, head[e] is the target node and e^1 the reverse arc.
	res, cost  []int64
	head, next []int
	first      []int

	excess  []int64
	dist    []int64
	pot     []int64
	prevArc []int

	// SPFA state.
	inQueue  []bool
	relaxCnt []int32
	queue    []int

	// Dijkstra state.
	heap    []heapEntry
	visited []bool
}

type heapEntry struct {
	dist int64
	node int
}

// grow (re)sizes the workspace buffers for n nodes and m arcs without
// shrinking capacity.
func (ws *Workspace) grow(n, m int) {
	ws.res = growI64(ws.res, 2*m)
	ws.cost = growI64(ws.cost, 2*m)
	ws.head = growInt(ws.head, 2*m)
	ws.next = growInt(ws.next, 2*m)
	ws.first = growInt(ws.first, n)
	ws.excess = growI64(ws.excess, n)
	ws.dist = growI64(ws.dist, n)
	ws.pot = growI64(ws.pot, n)
	ws.prevArc = growInt(ws.prevArc, n)
	if cap(ws.inQueue) < n {
		ws.inQueue = make([]bool, n)
	}
	ws.inQueue = ws.inQueue[:n]
	if cap(ws.relaxCnt) < n {
		ws.relaxCnt = make([]int32, n)
	}
	ws.relaxCnt = ws.relaxCnt[:n]
	if cap(ws.visited) < n {
		ws.visited = make([]bool, n)
	}
	ws.visited = ws.visited[:n]
	ws.queue = ws.queue[:0]
	ws.heap = ws.heap[:0]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// ctxCheckStride is how many augmentations (or SPFA scan rounds) pass
// between cancellation checks — frequent enough that a cancelled solve
// returns within microseconds, rare enough to stay off the profile.
const ctxCheckStride = 64

// SolveSSP solves g by successive shortest paths into out, reusing the
// workspace buffers. Node potentials are seeded once with SPFA
// (queue-based Bellman-Ford, so negative arc costs need no
// pre-transformation), negative residual cycles are cancelled (or
// reported as ErrUnbounded when uncapacitated), and every augmentation
// then runs Dijkstra over reduced costs.
//
// The context is honoured mid-solve: cancellation is checked every
// ctxCheckStride augmentations, so a runaway instance can be abandoned
// promptly. A cancelled solve returns a SolverError unwrapping to
// ctx.Err().
//
// out's slices are resized in place, so a caller that reuses one Result
// across solves performs no allocations in steady state.
func (ws *Workspace) SolveSSP(ctx context.Context, g *Graph, out *Result) error {
	if err := g.checkSolvable(); err != nil {
		return err
	}
	n := len(g.supply)
	m := len(g.arcs)
	ws.grow(n, m)

	for i := 0; i < n; i++ {
		ws.first[i] = -1
	}
	for i, a := range g.arcs {
		f, b := 2*i, 2*i+1
		ws.res[f], ws.res[b] = a.Cap, 0
		ws.head[f], ws.head[b] = a.To, a.From
		ws.cost[f], ws.cost[b] = a.Cost, -a.Cost
		ws.next[f] = ws.first[a.From]
		ws.first[a.From] = f
		ws.next[b] = ws.first[a.To]
		ws.first[a.To] = b
	}
	copy(ws.excess, g.supply)

	if err := ws.initPotentials(ctx, n); err != nil {
		return err
	}

	// Successive shortest paths: repeatedly send flow from an excess node
	// to its nearest deficit node along a shortest path in reduced costs.
	src := 0
	augment := 0
	for {
		for src < n && ws.excess[src] <= 0 {
			src++
		}
		if src == n {
			break
		}
		if augment++; augment%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return &SolverError{Op: "ssp", Err: err}
			}
		}
		sink, err := ws.dijkstra(n, src)
		if err != nil {
			return err
		}
		dt := ws.dist[sink]
		// Potential update keeps all residual reduced costs non-negative
		// and zeroes them along the augmenting path.
		for v := 0; v < n; v++ {
			d := ws.dist[v]
			if d > dt {
				d = dt
			}
			ws.pot[v] -= d
		}
		// Bottleneck along the path, then augment.
		amt := ws.excess[src]
		if -ws.excess[sink] < amt {
			amt = -ws.excess[sink]
		}
		for v := sink; v != src; {
			e := ws.prevArc[v]
			if ws.res[e] < amt {
				amt = ws.res[e]
			}
			v = ws.head[e^1]
		}
		for v := sink; v != src; {
			e := ws.prevArc[v]
			ws.res[e] -= amt
			ws.res[e^1] += amt
			v = ws.head[e^1]
		}
		ws.excess[src] -= amt
		ws.excess[sink] += amt
	}

	// Extract flows and potentials into out, reusing its slices.
	out.Flow = growI64(out.Flow, m)
	out.Potential = growI64(out.Potential, n)
	out.Cost = 0
	for i, a := range g.arcs {
		f := a.Cap - ws.res[2*i]
		out.Flow[i] = f
		out.Cost += f * a.Cost
	}
	copy(out.Potential, ws.pot)
	return nil
}

// initPotentials runs SPFA from a virtual source reaching every node at
// distance zero over the (all-forward) residual graph and sets pot = -dist.
// Negative cycles are detected via relaxation counting; finite-capacity
// cycles are cancelled and the search restarts, infinite ones are reported
// as ErrUnbounded.
func (ws *Workspace) initPotentials(ctx context.Context, n int) error {
restart:
	for i := 0; i < n; i++ {
		ws.dist[i] = 0
		ws.inQueue[i] = true
		ws.relaxCnt[i] = 0
		ws.prevArc[i] = -1
	}
	ws.queue = ws.queue[:0]
	for i := 0; i < n; i++ {
		ws.queue = append(ws.queue, i)
	}
	for qi := 0; qi < len(ws.queue); qi++ {
		if qi%(ctxCheckStride*64) == 0 && qi > 0 {
			if err := ctx.Err(); err != nil {
				return &SolverError{Op: "ssp", Err: err}
			}
		}
		u := ws.queue[qi]
		ws.inQueue[u] = false
		du := ws.dist[u]
		for e := ws.first[u]; e != -1; e = ws.next[e] {
			if ws.res[e] <= 0 {
				continue
			}
			v := ws.head[e]
			if nd := du + ws.cost[e]; nd < ws.dist[v] {
				ws.dist[v] = nd
				ws.prevArc[v] = e
				if !ws.inQueue[v] {
					ws.relaxCnt[v]++
					if int(ws.relaxCnt[v]) > n+1 {
						// Negative cycle somewhere: cancel all of them (or
						// report unbounded), then redo the search.
						if err := ws.cancelNegativeCycles(ctx, n); err != nil {
							return err
						}
						goto restart
					}
					ws.queue = append(ws.queue, v)
					ws.inQueue[v] = true
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		ws.pot[i] = -ws.dist[i]
	}
	return nil
}

// cancelNegativeCycles repeatedly finds a negative-cost cycle in the
// residual graph via Bellman-Ford with parent tracking and saturates it.
// A node still relaxed in the n-th iteration has a parent chain of length
// >= n, which with n nodes must contain a cycle, so the n-step parent walk
// below always lands inside one. Cycles whose bottleneck is effectively
// infinite indicate an unbounded objective. This is the rare path: it runs
// only when the SPFA initialization detects a cycle (infeasible or
// adversarial instances), never on well-formed sizing LPs.
func (ws *Workspace) cancelNegativeCycles(ctx context.Context, n int) error {
	for {
		if err := ctx.Err(); err != nil {
			return &SolverError{Op: "ssp", Err: err}
		}
		for i := 0; i < n; i++ {
			ws.dist[i] = 0 // virtual source to all nodes at cost 0
			ws.prevArc[i] = -1
		}
		cycleNode := -1
		for iter := 0; iter < n; iter++ {
			changed := false
			for u := 0; u < n; u++ {
				du := ws.dist[u]
				for e := ws.first[u]; e != -1; e = ws.next[e] {
					if ws.res[e] <= 0 {
						continue
					}
					v := ws.head[e]
					if nd := du + ws.cost[e]; nd < ws.dist[v] {
						ws.dist[v] = nd
						ws.prevArc[v] = e
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
			v = ws.head[ws.prevArc[v]^1]
		}
		start := v
		var bottleneck int64 = math.MaxInt64
		for {
			e := ws.prevArc[v]
			if ws.res[e] < bottleneck {
				bottleneck = ws.res[e]
			}
			v = ws.head[e^1]
			if v == start {
				break
			}
		}
		if bottleneck >= InfCap/2 {
			return ErrUnbounded
		}
		for {
			e := ws.prevArc[v]
			ws.res[e] -= bottleneck
			ws.res[e^1] += bottleneck
			v = ws.head[e^1]
			if v == start {
				break
			}
		}
	}
}

// dijkstra computes shortest distances from src over residual arcs with
// reduced costs (non-negative by the potential invariant), stopping once
// the nearest deficit node is finalized. It returns that node or
// ErrInfeasible if no deficit is reachable. dist holds tentative distances
// capped usage: unvisited entries beyond the sink's distance are only used
// via min(dist, dist[sink]) by the caller.
func (ws *Workspace) dijkstra(n, src int) (int, error) {
	const inf = math.MaxInt64
	for i := 0; i < n; i++ {
		ws.dist[i] = inf
		ws.visited[i] = false
		ws.prevArc[i] = -1
	}
	ws.heap = ws.heap[:0]
	ws.dist[src] = 0
	ws.heapPush(heapEntry{0, src})
	for len(ws.heap) > 0 {
		it := ws.heapPop()
		u := it.node
		if ws.visited[u] || it.dist > ws.dist[u] {
			continue
		}
		ws.visited[u] = true
		if ws.excess[u] < 0 {
			return u, nil
		}
		du := ws.dist[u]
		pu := ws.pot[u]
		for e := ws.first[u]; e != -1; e = ws.next[e] {
			if ws.res[e] <= 0 {
				continue
			}
			v := ws.head[e]
			if ws.visited[v] {
				continue
			}
			// Reduced cost: cost - pot[u] + pot[v] >= 0.
			nd := du + ws.cost[e] - pu + ws.pot[v]
			if nd < ws.dist[v] {
				ws.dist[v] = nd
				ws.prevArc[v] = e
				ws.heapPush(heapEntry{nd, v})
			}
		}
	}
	return 0, ErrInfeasible
}

func (ws *Workspace) heapPush(it heapEntry) {
	ws.heap = append(ws.heap, it)
	i := len(ws.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if ws.heap[p].dist <= ws.heap[i].dist {
			break
		}
		ws.heap[p], ws.heap[i] = ws.heap[i], ws.heap[p]
		i = p
	}
}

func (ws *Workspace) heapPop() heapEntry {
	top := ws.heap[0]
	last := len(ws.heap) - 1
	ws.heap[0] = ws.heap[last]
	ws.heap = ws.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(ws.heap) && ws.heap[l].dist < ws.heap[s].dist {
			s = l
		}
		if r < len(ws.heap) && ws.heap[r].dist < ws.heap[s].dist {
			s = r
		}
		if s == i {
			break
		}
		ws.heap[i], ws.heap[s] = ws.heap[s], ws.heap[i]
		i = s
	}
	return top
}
