package main

// Answer checks computed apart from the program: every function here reads
// only the input graph's edge lists, never a program reference or a stored
// copy of an earlier output.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// inf marks an unreached node, as the program's level and distance arrays do.
const inf = int32(1) << 30

// adj is the benchmark's own adjacency structure: per-node edge lists.
type adj struct {
	dst [][]int32
	w   [][]int32
}

func adjFromCSR(g *graph.CSR) *adj {
	n := int(g.NumNodes())
	a := &adj{dst: make([][]int32, n), w: make([][]int32, n)}
	for u := 0; u < n; u++ {
		lo, hi := g.RowPtr[u], g.RowPtr[u+1]
		a.dst[u] = append([]int32(nil), g.EdgeDst[lo:hi]...)
		if g.Weight != nil {
			a.w[u] = append([]int32(nil), g.Weight[lo:hi]...)
		} else {
			a.w[u] = make([]int32, hi-lo)
			for i := range a.w[u] {
				a.w[u][i] = 1
			}
		}
	}
	return a
}

func (a *adj) n() int { return len(a.dst) }

func (a *adj) edges() int {
	m := 0
	for _, d := range a.dst {
		m += len(d)
	}
	return m
}

// clone deep-copies a so later mutation folds leave it intact.
func (a *adj) clone() *adj {
	c := &adj{dst: make([][]int32, a.n()), w: make([][]int32, a.n())}
	for u := range a.dst {
		c.dst[u] = append([]int32(nil), a.dst[u]...)
		c.w[u] = append([]int32(nil), a.w[u]...)
	}
	return c
}

// apply folds one mutation: an insert appends the edge, a delete removes
// every parallel copy of it.
func (a *adj) apply(op graph.MutOp) {
	if op.Op == graph.OpInsert {
		a.dst[op.Src] = append(a.dst[op.Src], op.Dst)
		a.w[op.Src] = append(a.w[op.Src], op.W)
		return
	}
	d, w := a.dst[op.Src][:0], a.w[op.Src][:0]
	for i, v := range a.dst[op.Src] {
		if v != op.Dst {
			d = append(d, v)
			w = append(w, a.w[op.Src][i])
		}
	}
	a.dst[op.Src], a.w[op.Src] = d, w
}

// undirected mirrors every edge, drops self loops and keeps one copy of
// each pair at its minimum weight, with sorted neighbour lists.
func (a *adj) undirected() *adj {
	type key struct{ u, v int32 }
	best := map[key]int32{}
	for u := range a.dst {
		for i, v := range a.dst[u] {
			if int32(u) == v {
				continue
			}
			for _, k := range []key{{int32(u), v}, {v, int32(u)}} {
				if old, ok := best[k]; !ok || a.w[u][i] < old {
					best[k] = a.w[u][i]
				}
			}
		}
	}
	s := &adj{dst: make([][]int32, a.n()), w: make([][]int32, a.n())}
	for k := range best {
		s.dst[k.u] = append(s.dst[k.u], k.v)
	}
	for u := range s.dst {
		sort.Slice(s.dst[u], func(i, j int) bool { return s.dst[u][i] < s.dst[u][j] })
		s.w[u] = make([]int32, len(s.dst[u]))
		for i, v := range s.dst[u] {
			s.w[u][i] = best[key{int32(u), v}]
		}
	}
	return s
}

// sameEdges reports whether g holds exactly the edge multiset of a, row by
// row, regardless of the order within a row.
func sameEdges(a *adj, g *graph.CSR) error {
	if int(g.NumNodes()) != a.n() {
		return fmt.Errorf("graph has %d nodes, want %d", g.NumNodes(), a.n())
	}
	b := adjFromCSR(g)
	for u := range a.dst {
		x, y := pairs(a, u), pairs(b, u)
		if len(x) != len(y) {
			return fmt.Errorf("node %d has %d edges, want %d", u, len(y), len(x))
		}
		for i := range x {
			if x[i] != y[i] {
				return fmt.Errorf("node %d edge %d is %v, want %v", u, i, y[i], x[i])
			}
		}
	}
	return nil
}

func pairs(a *adj, u int) [][2]int32 {
	p := make([][2]int32, len(a.dst[u]))
	for i, v := range a.dst[u] {
		p[i] = [2]int32{v, a.w[u][i]}
	}
	sort.Slice(p, func(i, j int) bool {
		if p[i][0] != p[j][0] {
			return p[i][0] < p[j][0]
		}
		return p[i][1] < p[j][1]
	})
	return p
}

// bfsLevels is a queue-based breadth-first search.
func bfsLevels(a *adj, src int32) []int32 {
	lvl := make([]int32, a.n())
	for i := range lvl {
		lvl[i] = inf
	}
	lvl[src] = 0
	q := []int32{src}
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		for _, v := range a.dst[u] {
			if lvl[v] == inf {
				lvl[v] = lvl[u] + 1
				q = append(q, v)
			}
		}
	}
	return lvl
}

type distItem struct{ node, dist int32 }
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// dijkstra computes shortest-path distances with a binary heap.
func dijkstra(a *adj, src int32) []int32 {
	dist := make([]int32, a.n())
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	h := &distHeap{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.dist > dist[it.node] {
			continue
		}
		for i, v := range a.dst[it.node] {
			if d := it.dist + a.w[it.node][i]; d < dist[v] {
				dist[v] = d
				heap.Push(h, distItem{v, d})
			}
		}
	}
	return dist
}

// unionFind returns each node's component root, treating edges as
// undirected.
func unionFind(a *adj) []int32 {
	parent := make([]int32, a.n())
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := range a.dst {
		for _, v := range a.dst[u] {
			if ru, rv := find(int32(u)), find(v); ru != rv {
				parent[ru] = rv
			}
		}
	}
	for i := range parent {
		parent[i] = find(int32(i))
	}
	return parent
}

func countDistinct(xs []int32) int {
	seen := make(map[int32]struct{}, 64)
	for _, x := range xs {
		seen[x] = struct{}{}
	}
	return len(seen)
}

// samePartition checks that labels and roots group the nodes identically.
func samePartition(labels, roots []int32) error {
	if len(labels) != len(roots) {
		return fmt.Errorf("%d labels for %d nodes", len(labels), len(roots))
	}
	fwd := map[int32]int32{}
	back := map[int32]int32{}
	for i := range labels {
		if r, ok := fwd[labels[i]]; ok && r != roots[i] {
			return fmt.Errorf("label %d spans two components (node %d)", labels[i], i)
		}
		if l, ok := back[roots[i]]; ok && l != labels[i] {
			return fmt.Errorf("one component carries labels %d and %d (node %d)", l, labels[i], i)
		}
		fwd[labels[i]], back[roots[i]] = roots[i], labels[i]
	}
	return nil
}

// triangles counts u<v<w triangles of an undirected graph by merging
// sorted neighbour lists.
func triangles(s *adj) int64 {
	var t int64
	for u := range s.dst {
		for _, v := range s.dst[u] {
			if v <= int32(u) {
				continue
			}
			a, b := s.dst[u], s.dst[v]
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					if a[i] > v {
						t++
					}
					i++
					j++
				}
			}
		}
	}
	return t
}

// checkMIS checks that state (1 in, 2 out) is an independent set that is
// maximal: every excluded node has an included neighbour.
func checkMIS(s *adj, state []int32) error {
	if len(state) != s.n() {
		return fmt.Errorf("mis: %d states for %d nodes", len(state), s.n())
	}
	for u := range s.dst {
		switch state[u] {
		case 1:
			for _, v := range s.dst[u] {
				if state[v] == 1 {
					return fmt.Errorf("mis: adjacent nodes %d and %d both in the set", u, v)
				}
			}
		case 2:
			covered := false
			for _, v := range s.dst[u] {
				covered = covered || state[v] == 1
			}
			if !covered {
				return fmt.Errorf("mis: node %d is out but has no neighbour in the set", u)
			}
		default:
			return fmt.Errorf("mis: node %d undecided (state %d)", u, state[u])
		}
	}
	return nil
}

// kruskal returns the minimum spanning forest weight of an undirected graph.
func kruskal(s *adj) int64 {
	type we struct{ w, u, v int32 }
	var es []we
	for u := range s.dst {
		for i, v := range s.dst[u] {
			if int32(u) < v {
				es = append(es, we{s.w[u][i], int32(u), v})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].w < es[j].w })
	parent := make([]int32, s.n())
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var total int64
	for _, e := range es {
		if ru, rv := find(e.u), find(e.v); ru != rv {
			parent[ru] = rv
			total += int64(e.w)
		}
	}
	return total
}

// PageRank as the program defines it: push-style, damping 0.85, no dangling
// redistribution, stop once the L1 change of an iteration is at most 1e-3 or
// after 60 iterations. The benchmark iterates in float64.
const (
	prDamping = 0.85
	prEps     = 1e-3
	prMaxIter = 60
	// A float32 rank may differ from the float64 iteration's by 1e-3 of the
	// rank plus 1e-3/n: the two can stop one iteration apart near the
	// convergence threshold.
	prRelTol = 1e-3
	prAbsTol = 1e-3
)

func pagerank(a *adj) []float64 {
	n := a.n()
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < prMaxIter; it++ {
		for i := range next {
			next[i] = 0
		}
		for u := range a.dst {
			if d := len(a.dst[u]); d > 0 {
				c := rank[u] / float64(d)
				for _, v := range a.dst[u] {
					next[v] += c
				}
			}
		}
		var l1 float64
		for i := range rank {
			r := (1-prDamping)/float64(n) + prDamping*next[i]
			l1 += math.Abs(r - rank[i])
			rank[i] = r
		}
		if l1 <= prEps {
			break
		}
	}
	return rank
}

func rankClose(got float32, want float64, n int) bool {
	return math.Abs(float64(got)-want) <= prRelTol*want+prAbsTol/float64(n)
}

func checkRanks(got []float32, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pr: %d ranks for %d nodes", len(got), len(want))
	}
	for i := range want {
		if !rankClose(got[i], want[i], len(want)) {
			return fmt.Errorf("pr: rank of node %d = %g, want %g", i, got[i], want[i])
		}
	}
	return nil
}

// checkTopK checks a served top-k list: ranks agree with want, the list is
// ordered, and no node left out ranks clearly above the last one kept.
func checkTopK(nodes []int32, ranks []float32, k int, want []float64) error {
	n := len(want)
	if len(nodes) != len(ranks) || len(nodes) != min(k, n) {
		return fmt.Errorf("pr: top-k has %d entries, want %d", len(nodes), min(k, n))
	}
	in := map[int32]bool{}
	for i, v := range nodes {
		if v < 0 || int(v) >= n || in[v] {
			return fmt.Errorf("pr: top-k entry %d names node %d", i, v)
		}
		in[v] = true
		if !rankClose(ranks[i], want[v], n) {
			return fmt.Errorf("pr: top-k rank of node %d = %g, want %g", v, ranks[i], want[v])
		}
		if i > 0 && ranks[i] > ranks[i-1] {
			return fmt.Errorf("pr: top-k out of order at entry %d", i)
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	last := float64(ranks[len(ranks)-1])
	for v := range want {
		if !in[int32(v)] && want[v] > last+prRelTol*last+prAbsTol/float64(n) {
			return fmt.Errorf("pr: node %d (rank %g) missing from top-k ending at %g", v, want[v], last)
		}
	}
	return nil
}

func sameInts(what string, got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values for %d nodes", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s of node %d = %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}

func reachedCount(xs []int32) int32 {
	var r int32
	for _, x := range xs {
		if x >= 0 && x < inf {
			r++
		}
	}
	return r
}
