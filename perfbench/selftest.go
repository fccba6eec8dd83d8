package main

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernels"
)

// selfTest shows, on small graphs, that every checker accepts the program's
// verified answer and rejects a corrupted copy of it. Every run starts with
// it, so a checker that lets everything through cannot go unnoticed.
func selfTest() error {
	inputs := map[string]*graph.CSR{
		"road": graph.Road(12, 12, 16, 7),
		"rmat": graph.RMAT(7, 8, 16, 7),
	}
	for _, k := range suiteKernels {
		b, err := kernels.ByName(k)
		if err != nil {
			return err
		}
		for name, g := range inputs {
			pg := core.PrepareGraph(b, g)
			cfg := egacsConfig()
			cfg.Src = pg.MaxDegreeNode()
			res, err := core.RunVerified(b, pg, cfg)
			if err != nil {
				return fmt.Errorf("self-test: %s on %s: %w", k, name, err)
			}
			check := expectAnswer(k, pg)
			out := resultOutput(res)
			if err := check(out); err != nil {
				return fmt.Errorf("self-test: %s checker rejects a verified answer on %s: %w", k, name, err)
			}
			for i, bad := range corruptions(k, out) {
				if check(bad) == nil {
					return fmt.Errorf("self-test: %s checker accepts corruption %d on %s", k, i, name)
				}
			}
		}
	}
	if err := selfTestServe(inputs["road"]); err != nil {
		return fmt.Errorf("self-test: %w", err)
	}
	fold := adjFromCSR(inputs["rmat"])
	if sameEdges(fold, inputs["rmat"]) != nil {
		return fmt.Errorf("self-test: recovery check rejects an identical graph")
	}
	heavier := fold.clone()
	for u := range heavier.w {
		if len(heavier.w[u]) > 0 {
			heavier.w[u][0]++
			break
		}
	}
	fold.apply(graph.MutOp{Op: graph.OpInsert, Src: 1, Dst: 2, W: 3})
	if sameEdges(fold, inputs["rmat"]) == nil || sameEdges(heavier, inputs["rmat"]) == nil {
		return fmt.Errorf("self-test: recovery check accepts a graph that differs from the acked fold")
	}
	return nil
}

// nextRanked is the highest-ranked node in want that top does not list.
func nextRanked(want []float64, top []topEntry) int32 {
	in := map[int32]bool{}
	for _, e := range top {
		in[e.Node] = true
	}
	best := int32(-1)
	for v := range want {
		if !in[int32(v)] && (best < 0 || want[v] > want[best]) {
			best = int32(v)
		}
	}
	return best
}

// corruptions returns copies of out, each with kernel k's answer changed in
// one way a checker must notice.
func corruptions(k string, out output) []output {
	// with copies the named int array, lets edit change it, and returns the
	// output reading the copy.
	with := func(name string, edit func([]int32)) output {
		arr := append([]int32(nil), out.i(name)...)
		edit(arr)
		return output{i: func(n string) []int32 {
			if n == name {
				return arr
			}
			return out.i(n)
		}, f: out.f, src: out.src}
	}
	// firstWhere is the first index whose value satisfies ok, or 0.
	firstWhere := func(arr []int32, ok func(int, int32) bool) int {
		for i, v := range arr {
			if ok(i, v) {
				return i
			}
		}
		return 0
	}
	// labels splits a component (the last node gets a label of its own)
	// and, where there are two components, merges two (it gets the label
	// of the first node outside its own).
	labels := func(name string) []output {
		split := with(name, func(a []int32) { a[len(a)-1] = int32(len(a)) })
		arr := out.i(name)
		last := arr[len(arr)-1]
		other := firstWhere(arr, func(_ int, v int32) bool { return v != last })
		if arr[other] == last {
			return []output{split}
		}
		return []output{split, with(name, func(a []int32) { a[len(a)-1] = a[other] })}
	}
	switch k {
	case "bfs-wl", "bfs-cx", "bfs-tp", "bfs-hb", "sssp-nf":
		name := "lvl"
		if k == "sssp-nf" {
			name = "dist"
		}
		return []output{with(name, func(a []int32) {
			a[firstWhere(a, func(i int, v int32) bool { return int32(i) != out.src && v < inf })]++
		})}
	case "cc":
		return labels("comp")
	case "tri":
		return []output{with("count", func(a []int32) { a[0]++ })}
	case "mst":
		return append(labels("comp"), with("mstwt", func(a []int32) { a[0]++ }))
	case "mis":
		return []output{
			with("state", func(a []int32) { a[firstWhere(a, func(_ int, v int32) bool { return v == 1 })] = 2 }),
			with("state", func(a []int32) { a[firstWhere(a, func(_ int, v int32) bool { return v == 2 })] = 1 }),
		}
	case "pr":
		rank := append([]float32(nil), out.f("rank")...)
		rank[0] *= 1.05
		return []output{{i: out.i, f: func(string) []float32 { return rank }, src: out.src}}
	}
	return nil
}

// selfTestServe serves one query of each kind on g and checks that the
// response checker accepts it and rejects each corrupted field.
func selfTestServe(g *graph.CSR) error {
	r := &run{}
	h, err := boot(r, g, nil, "")
	if err != nil {
		return err
	}
	defer h.stop()
	c := newAnswers(adjFromCSR(g))
	for i, k := range queryKinds {
		o := h.query(0, querySpec{kind: k, src: int32(3 * i), node: int32(5 + i)}, time.Now())
		if o.status != http.StatusOK {
			return fmt.Errorf("%s query: status %d", k, o.status)
		}
		if err := c.checkOne(&o); err != nil {
			return fmt.Errorf("%s response checker rejects a served answer: %w", k, err)
		}
		var bad []func(*queryResp)
		bump := func(p **int32) func(*queryResp) {
			return func(*queryResp) { v := **p + 1; *p = &v }
		}
		switch k {
		case "bfs", "sssp":
			bad = append(bad, bump(&o.resp.Reached), bump(&o.resp.Value))
		case "cc":
			bad = append(bad, bump(&o.resp.Components), bump(&o.resp.Value))
		case "pr":
			bad = append(bad,
				func(q *queryResp) { q.TopK = append([]topEntry(nil), q.TopK...); q.TopK[0].Rank *= 1.05 },
				func(q *queryResp) { q.TopK = append([]topEntry(nil), q.TopK[1:]...) },
				func(q *queryResp) {
					q.TopK = append([]topEntry(nil), q.TopK...)
					q.TopK[len(q.TopK)-1].Node = q.TopK[len(q.TopK)-1].Node + 1
				},
				func(q *queryResp) {
					q.TopK = append([]topEntry(nil), q.TopK...)
					q.TopK[0], q.TopK[1] = q.TopK[1], q.TopK[0]
				},
				func(q *queryResp) { // the k+1st node, with its true rank, replaces the kth
					next := nextRanked(c.pr, q.TopK)
					q.TopK = append([]topEntry(nil), q.TopK...)
					q.TopK[len(q.TopK)-1] = topEntry{Node: next, Rank: float32(c.pr[next])}
				})
		}
		orig := o.resp
		for j, f := range bad {
			o.resp = orig
			f(&o.resp)
			if c.checkOne(&o) == nil {
				return fmt.Errorf("%s response checker accepts corruption %d", k, j)
			}
		}
	}
	return nil
}
