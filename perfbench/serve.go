package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// Serving workloads. Both drive Server.Handler() in process with at most two
// clients (the box has two CPUs), so admission is configured to keep every
// query on the normal rung: with max-inflight 4 and at most two requests in
// flight, occupancy stays at or below 0.5, and shed-verify-at and scalar-at
// are set to 1.0.
const (
	maxInflight = 4
	shedAt      = 1.0
	scalarAt    = 1.0
	topK        = 10
	maxWeight   = 64

	// serve-road: a 64x64 road grid; BFS depth ~90, so each query runs
	// hundreds of pipe-loop iterations over small frontiers. Two closed-loop
	// clients complete 110-210 q/s on the reference box, whose speed drifts
	// from minute to minute. The open-loop rate stays near a fifth of the
	// slowest figure, so queries rarely queue: at 40-100 q/s a slow minute
	// queued them up, and the tail followed the box rather than the program.
	roadSide     = 64
	roadRate     = 25.0 // q/s offered in the open-loop phase
	roadOpenFrac = 0.6  // share of the run spent open loop; the rest is closed loop
	roadClients  = 2

	// serve-rmat-mutate: rmat13, 16-op batches, auto-compaction every 64
	// batches, a stream with half deletes so the edge count stays put. A
	// query takes ~25 ms here, so one client at 15 q/s is about half busy.
	rmatScale      = 13
	batchOps       = 16
	compactEvery   = 64
	deleteFrac     = 0.5
	burstFrac      = 0.4    // share of the run spent in the writer-alone burst
	mixedBatchRate = 40.0   // batches/s the paced writer sends in the mixed phase
	mixedRate      = 15.0   // q/s offered beside the writer
	streamOps      = 320000 // the burst ends early if it would eat the mixed phase's share

	// fsyncEvery is the WAL group-commit interval (egacs-serve -fsync-every).
	// With 1, the default, every ack waits for an fsync, and the shared disk
	// of the reference box took 0.11-0.75 ms per fsync from one second to
	// the next: ack latency then measured the disk's neighbours. Every 16th
	// ack pays the fsync here, and a compaction flushes the tail first.
	fsyncEvery = 16
)

// Tail percentiles: each is the highest that leaves at least ten samples
// beyond it, per query kind, over its phase at the counts a 30-second run
// collects (README.md lists them).
const (
	roadTailQ  = 0.90
	mixedTailQ = 0.85
	ackTailQ   = 0.99
)

var queryKinds = []string{"bfs", "sssp", "cc", "pr"}

type querySpec struct {
	kind      string
	src, node int32
}

// mix is the deterministic query sequence: kinds in rotation, sources and
// lookup nodes drawn by index from the seed, so concurrency never changes
// which queries a run sends.
type mix struct {
	seed uint64
	srcs []int32 // candidate sources: nodes with outgoing edges
	n    int32
}

func newMix(seed uint64, g *graph.CSR) *mix {
	m := &mix{seed: seed, n: g.NumNodes()}
	for u := int32(0); u < g.NumNodes(); u++ {
		if g.Degree(u) > 0 {
			m.srcs = append(m.srcs, u)
		}
	}
	return m
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (m *mix) at(i int) querySpec {
	h := splitmix(m.seed ^ uint64(i)*0x2545f4914f6cdd1d)
	return querySpec{
		kind: queryKinds[i%len(queryKinds)],
		src:  m.srcs[h%uint64(len(m.srcs))],
		node: int32(splitmix(h) % uint64(m.n)),
	}
}

type topEntry struct {
	Node int32   `json:"node"`
	Rank float32 `json:"rank"`
}

type queryResp struct {
	Kind       string     `json:"kind"`
	Level      string     `json:"level"`
	TimeMS     float64    `json:"time_ms"`
	WallMS     float64    `json:"wall_ms"`
	Reached    *int32     `json:"reached"`
	Value      *int32     `json:"value"`
	Components *int32     `json:"components"`
	TopK       []topEntry `json:"topk"`
}

type queryObs struct {
	spec   querySpec
	id     string
	due    time.Time // open loop: when it was due; closed loop: when sent
	done   time.Time
	req    time.Duration // Handler().ServeHTTP wall
	status int
	resp   queryResp
}

func (o *queryObs) latency() float64 { return ms(o.done.Sub(o.due)) }

type mutAck struct {
	Seq       uint64 `json:"seq"`
	Epoch     uint64 `json:"epoch"`
	Compacted bool   `json:"compacted"`
}

type batchObs struct {
	ops      []graph.MutOp
	due      time.Time
	done     time.Time
	status   int
	ack      mutAck
	call     time.Duration // traced: the Server.Mutate call's wall
	walBytes int64         // traced: WAL growth of a batch that did not compact
}

// harness is one in-process server and the client-side record of a run.
type harness struct {
	r     *run
	srv   *serve.Server
	h     http.Handler
	log   *bytes.Buffer // request log; written under the server's lock
	store *graph.MutStore
	dir   string
	ids   atomic.Int64
}

func serveOptions(log *bytes.Buffer, st *graph.MutStore) serve.Options {
	return serve.Options{
		MaxInflight: maxInflight, ShedVerifyAt: shedAt, ScalarAt: scalarAt,
		RequestLog: log, Store: st, CompactEvery: compactEvery,
	}
}

// boot builds a server on g (or on the store's base), passes its self-check
// and sends one warm-up query of each kind, so engine pools and the lazy
// symmetrized view exist before timing starts.
func boot(r *run, g *graph.CSR, st *graph.MutStore, dir string) (*harness, error) {
	h := &harness{r: r, log: &bytes.Buffer{}, store: st, dir: dir}
	if st != nil {
		g = st.Delta().Base()
	}
	srv, err := serve.New(g, serveOptions(h.log, st))
	if err != nil {
		return nil, err
	}
	if err := srv.SelfCheck(context.Background()); err != nil {
		return nil, err
	}
	h.srv, h.h = srv, srv.Handler()
	for _, k := range queryKinds {
		rec := httptest.NewRecorder()
		h.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?kind="+k, nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("warm-up %s query: status %d: %s", k, rec.Code, rec.Body.String())
		}
	}
	h.log.Reset()
	return h, nil
}

// stop drains the server and closes its store.
func (h *harness) stop() error {
	if err := h.srv.Drain(context.Background()); err != nil {
		return err
	}
	if h.store != nil {
		return h.store.Close()
	}
	return nil
}

func (h *harness) query(lane int, spec querySpec, due time.Time) queryObs {
	o := queryObs{spec: spec, id: fmt.Sprintf("q%d", h.ids.Add(1)), due: due}
	url := fmt.Sprintf("/query?kind=%s&src=%d&node=%d&k=%d", spec.kind, spec.src, spec.node, topK)
	req := httptest.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("X-Request-ID", o.id)
	rec := httptest.NewRecorder()
	ref, end := h.r.tr.root(o.id, lane).begin()
	t0 := time.Now()
	h.h.ServeHTTP(rec, req)
	o.done = time.Now()
	o.req = o.done.Sub(t0)
	end("serve.request")
	o.status = rec.Code
	if o.status == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &o.resp); err != nil {
			o.status = -1
		}
		ref.derived("core.chain", o.done, time.Duration(o.resp.WallMS*float64(time.Millisecond)))
	}
	return o
}

// mutate sends one batch. Untraced, it goes through the /mutate handler.
// Traced, the benchmark does the handler's two steps itself, parsing the
// same text body and calling Server.Mutate, so that call can be timed.
func (h *harness) mutate(ops []graph.MutOp, due time.Time) batchObs {
	o := batchObs{ops: ops, due: due, status: http.StatusOK}
	var body bytes.Buffer
	if err := graph.WriteMutations(&body, ops); err != nil {
		o.status = -1
		return o
	}
	if !h.r.traced() {
		rec := httptest.NewRecorder()
		h.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/mutate", &body))
		o.done = time.Now()
		o.status = rec.Code
		if o.status == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &o.ack) != nil {
			o.status = -1
		}
		return o
	}
	ref, end := h.r.tr.root(fmt.Sprintf("m%d", h.ids.Add(1)), 1).begin()
	parsed, err := graph.ParseMutations(&body, h.srv.Graph().NumNodes())
	if err != nil {
		o.status = http.StatusBadRequest
		end("serve.mutate")
		return o
	}
	before := h.srv.MutStats().WALBytes
	_, cend := ref.begin()
	t0 := time.Now()
	res, err := h.srv.Mutate(context.Background(), parsed)
	o.call = time.Since(t0)
	if err != nil {
		cend("graph.append")
		end("serve.mutate")
		o.status = http.StatusInternalServerError
		return o
	}
	if res.Compacted {
		cend("graph.compact")
	} else {
		cend("graph.append")
		o.walBytes = h.srv.MutStats().WALBytes - before
	}
	end("serve.mutate")
	o.done = time.Now()
	o.ack = mutAck{Seq: res.Seq, Epoch: res.Epoch, Compacted: res.Compacted}
	return o
}

// epochs reads the request log back: the epoch each request ran against.
func (h *harness) epochs() (map[string]uint64, error) {
	out := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(h.log.String()), "\n") {
		if line == "" {
			continue
		}
		var e struct {
			ID    string `json:"request_id"`
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("request log: %w", err)
		}
		out[e.ID] = e.Epoch
	}
	return out, nil
}

// openLoop fires n requests due at start + i/rate from a fixed set of
// clients and reports how late the latest one was sent.
func openLoop(clients int, rate float64, n int, fire func(lane, i int, due time.Time)) time.Duration {
	start := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	var late time.Duration
	var wg sync.WaitGroup
	for lane := 0; lane < clients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				l := time.Since(due)
				mu.Lock()
				late = max(late, l)
				mu.Unlock()
				fire(lane, i, due)
			}
		}(lane)
	}
	wg.Wait()
	return late
}

// closedLoop runs clients that each send their next request once the last
// returns, until dur has passed.
func closedLoop(clients int, dur time.Duration, fire func(lane, i int)) {
	deadline := time.Now().Add(dur)
	var next atomic.Int64
	var wg sync.WaitGroup
	for lane := 0; lane < clients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				fire(lane, int(next.Add(1)-1))
			}
		}(lane)
	}
	wg.Wait()
}

func serveRoad(r *run) error {
	h, setup, err := setupMedian(setupReps, func() (*harness, func(), error) {
		h, err := boot(r, graph.Road(roadSide, roadSide, maxWeight, r.seed), nil, "")
		if err != nil {
			return nil, nil, err
		}
		return h, func() { h.stop() }, nil
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	g := h.srv.Graph()
	m := newMix(r.seed, g)
	total := time.Duration(r.seconds * float64(time.Second))

	openDur := time.Duration(float64(total) * roadOpenFrac)
	n := int(roadRate * openDur.Seconds())
	open := make([]queryObs, n)
	late := openLoop(roadClients, roadRate, n, func(lane, i int, due time.Time) {
		open[i] = h.query(lane, m.at(i), due)
	})
	var mu sync.Mutex
	var closed []queryObs
	closedStart := time.Now()
	closedLoop(roadClients, total-openDur, func(lane, i int) {
		o := h.query(lane, m.at(n+i), time.Now())
		mu.Lock()
		closed = append(closed, o)
		mu.Unlock()
	})
	r.e2e["peak_rss_mb"] = peakRSSMB()
	if err := h.stop(); err != nil {
		return err
	}
	all := append(append([]queryObs(nil), open...), closed...)
	r.attempted = len(all)
	countFailed(r, all)
	kinds := byKind(open)
	r.e2e["latency_ms"] = kindGeomean(kinds, 0.5)
	r.e2e["tail_ms"] = blockTail(open, roadTailQ)
	var finished []time.Time
	for _, o := range closed {
		if o.status == http.StatusOK {
			finished = append(finished, o.done)
		}
	}
	r.e2e["throughput_per_s"] = windowRate(closedStart, finished)
	fmt.Printf("serve-road: open loop %d queries at %.0f q/s, closed loop %d queries with %d clients\n",
		len(open), roadRate, len(closed), roadClients)
	for _, k := range queryKinds {
		v := kinds[k]
		fmt.Printf("  %-4s n=%d p50 %.2f ms p%.0f %.2f ms\n", k, len(v), median(v), 100*roadTailQ, quantile(v, roadTailQ))
	}

	r.layer["serve.query_p50_ms"] = r.e2e["latency_ms"]
	r.layer["serve.query_tail_ms"] = r.e2e["tail_ms"]
	r.layer["bench.traced_latency_ms"] = r.e2e["latency_ms"]
	r.layer["bench.generator_late_ms"] = ms(late)
	queryLayers(r, open, all)
	if r.traced() {
		if err := compileProbeKinds(r); err != nil {
			return err
		}
	}

	ep, err := h.epochs()
	if err != nil {
		return err
	}
	a := adjFromCSR(g)
	c := newAnswers(a)
	r.tr.root("check", 0).do("bench.check", func(spanRef) {
		for i := range all {
			o := &all[i]
			if o.status != http.StatusOK {
				continue
			}
			if e := ep[o.id]; e != 1 {
				r.wrongf("%s: ran against epoch %d on a graph that never changes", o.id, e)
				continue
			}
			c.check(r, o)
		}
	})
	return nil
}

// tailBlocks is how many equal stretches of the open-loop phase blockTail
// takes the tail of.
const tailBlocks = 3

// blockTail is the median, over tailBlocks equal stretches of the open-loop
// phase, of each stretch's kindGeomean q-quantile. A burst of slow seconds
// on the box lifts the tail of one stretch, not of the median stretch.
func blockTail(obs []queryObs, q float64) float64 {
	per := make([][]queryObs, tailBlocks)
	for i := range obs {
		b := i * tailBlocks / len(obs) // queries are due at a fixed rate
		per[b] = append(per[b], obs[i])
	}
	var tails []float64
	for _, b := range per {
		tails = append(tails, kindGeomean(byKind(b), q))
	}
	return median(tails)
}

// kindGeomean is the geometric mean over query kinds of each kind's q-quantile
// latency. Kinds differ in cost several-fold, so a quantile over the mixed
// sample would sit in the gap between two kinds and jump with the mix.
func kindGeomean(kinds map[string][]float64, q float64) float64 {
	var xs []float64
	for _, v := range kinds {
		xs = append(xs, quantile(v, q))
	}
	return geomean(xs)
}

// byKind groups the latencies of served queries by query kind.
func byKind(obs []queryObs) map[string][]float64 {
	out := map[string][]float64{}
	for i := range obs {
		if obs[i].status == http.StatusOK {
			out[obs[i].spec.kind] = append(out[obs[i].spec.kind], obs[i].latency())
		}
	}
	return out
}

// countFailed counts the queries that did not return 200 as failed.
func countFailed(r *run, obs []queryObs) {
	for i := range obs {
		if obs[i].status != http.StatusOK {
			r.failed++
		}
	}
}

// queryLayers fills the serve and core per-layer metrics from the fixed-rate
// queries, and the rung counts from every query.
func queryLayers(r *run, fixed, all []queryObs) {
	var req, chain, outside []float64
	modeled := map[string][]float64{}
	for _, o := range fixed {
		if o.status != http.StatusOK {
			continue
		}
		req = append(req, ms(o.req))
		chain = append(chain, o.resp.WallMS)
		outside = append(outside, ms(o.req)-o.resp.WallMS)
		modeled[o.spec.kind] = append(modeled[o.spec.kind], o.resp.TimeMS)
	}
	r.layer["serve.request_ms"] = median(req)
	r.layer["core.chain_ms"] = median(chain)
	r.layer["serve.outside_chain_ms"] = median(outside)
	for k, v := range modeled {
		r.layer["core.modeled_ms."+k] = median(v)
	}
	for _, o := range all {
		switch o.resp.Level {
		case "shed-verify":
			r.layer["serve.rung_shed_verify"]++
		case "scalar":
			r.layer["serve.rung_scalar"]++
		}
	}
}

// compileProbeKinds times opt.Apply + codegen.Compile for the query kinds'
// kernels, the step every request repeats.
func compileProbeKinds(r *run) error {
	per := map[string][]float64{}
	for i := 0; i < 5; i++ {
		if err := compileProbe(r, r.tr.root("compile", 0), servedKernels, per); err != nil {
			return err
		}
	}
	r.layer["codegen.compile_ms"] = medianGeomean(per)
	return nil
}

var servedKernels = []string{"bfs-wl", "sssp-nf", "cc", "pr"}

// answers computes and memoizes the benchmark's own answers on one graph.
type answers struct {
	a     *adj
	roots []int32
	mins  map[int32]int32 // component root -> smallest node id in it
	comps int
	pr    []float64
	bfs   map[int32][]int32
	sssp  map[int32][]int32
}

func newAnswers(a *adj) *answers {
	c := &answers{a: a, bfs: map[int32][]int32{}, sssp: map[int32][]int32{}}
	return c
}

func (c *answers) check(r *run, o *queryObs) {
	if err := c.checkOne(o); err != nil {
		r.wrongf("%s (%s src %d node %d): %v", o.id, o.spec.kind, o.spec.src, o.spec.node, err)
	}
}

func (c *answers) checkOne(o *queryObs) error {
	resp := &o.resp
	if resp.Kind != o.spec.kind {
		return fmt.Errorf("response kind %q", resp.Kind)
	}
	switch o.spec.kind {
	case "bfs", "sssp":
		memo, f := c.bfs, bfsLevels
		if o.spec.kind == "sssp" {
			memo, f = c.sssp, dijkstra
		}
		want, ok := memo[o.spec.src]
		if !ok {
			want = f(c.a, o.spec.src)
			memo[o.spec.src] = want
		}
		if resp.Reached == nil || *resp.Reached != reachedCount(want) {
			return fmt.Errorf("reached %v, want %d", deref(resp.Reached), reachedCount(want))
		}
		if resp.Value == nil || *resp.Value != want[o.spec.node] {
			return fmt.Errorf("value %v, want %d", deref(resp.Value), want[o.spec.node])
		}
	case "cc":
		if c.roots == nil {
			c.roots = unionFind(c.a)
			c.comps = countDistinct(c.roots)
			c.mins = map[int32]int32{}
			for v := len(c.roots) - 1; v >= 0; v-- {
				c.mins[c.roots[v]] = int32(v)
			}
		}
		if resp.Components == nil || int(*resp.Components) != c.comps {
			return fmt.Errorf("components %v, want %d", deref(resp.Components), c.comps)
		}
		if want := c.mins[c.roots[o.spec.node]]; resp.Value == nil || *resp.Value != want {
			return fmt.Errorf("label %v, want %d (smallest id in the component)", deref(resp.Value), want)
		}
	case "pr":
		if c.pr == nil {
			c.pr = pagerank(c.a)
		}
		nodes := make([]int32, len(resp.TopK))
		ranks := make([]float32, len(resp.TopK))
		for i, e := range resp.TopK {
			nodes[i], ranks[i] = e.Node, e.Rank
		}
		return checkTopK(nodes, ranks, topK, c.pr)
	}
	return nil
}

func deref(p *int32) any {
	if p == nil {
		return "missing"
	}
	return *p
}

func serveRMATMutate(r *run) error {
	type state struct {
		h   *harness
		g   *graph.CSR
		ops []graph.MutOp
	}
	nth := 0
	st, setup, err := setupMedian(setupReps, func() (state, func(), error) {
		g := graph.RMAT(rmatScale, 8, maxWeight, r.seed)
		ops, err := graph.GenMutations(g, r.seed, graph.MutGenOptions{Count: streamOps, DeleteFrac: deleteFrac, MaxWeight: maxWeight})
		if err != nil {
			return state{}, nil, err
		}
		nth++
		dir := filepath.Join(r.dir, fmt.Sprintf("wal-%d", nth))
		store, err := graph.CreateMutStore(dir, g, graph.StoreOptions{FsyncEvery: fsyncEvery})
		if err != nil {
			return state{}, nil, err
		}
		h, err := boot(r, g, store, dir)
		if err != nil {
			return state{}, nil, err
		}
		return state{h, g, ops}, func() { h.stop(); os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	fmt.Printf("serve-rmat-mutate: WAL on %s, fsync every %d batches\n", fsName(st.h.dir), fsyncEvery)
	h, ops := st.h, st.ops
	total := time.Duration(r.seconds * float64(time.Second))
	var batches []batchObs
	next := 0
	nextBatch := func() []graph.MutOp {
		next += batchOps
		return ops[next-batchOps : next]
	}

	// Burst: the writer alone, closed loop, until its time is up or it has
	// used every batch the mixed phase does not need.
	burstDur := time.Duration(float64(total) * burstFrac)
	mixedDur := total - burstDur
	mixedN := int(mixedBatchRate * mixedDur.Seconds())
	burstMax := len(ops)/batchOps - mixedN
	burstStart := time.Now()
	for time.Since(burstStart) < burstDur && len(batches) < burstMax {
		batches = append(batches, h.mutate(nextBatch(), time.Now()))
	}
	burstElapsed := time.Since(burstStart)
	burstN := len(batches)

	// Restart: close the store, reopen it from disk, and serve from the
	// recovered store.
	if err := h.stop(); err != nil {
		return err
	}
	var reopened *graph.MutStore
	var recoverMS float64
	r.tr.root("restart", 0).do("graph.recover", func(spanRef) {
		t0 := time.Now()
		reopened, err = graph.OpenMutStore(h.dir, graph.StoreOptions{FsyncEvery: fsyncEvery})
		recoverMS = ms(time.Since(t0))
	})
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	recovered, err := reopened.Delta().Compact()
	if err != nil {
		return fmt.Errorf("fold recovered store: %w", err)
	}
	h2, err := boot(r, nil, reopened, h.dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(h.dir)

	// Mixed: the writer paced at a fixed batch rate beside the open-loop
	// query mix, one client each.
	m := newMix(r.seed, st.g)
	nq := int(mixedRate * mixedDur.Seconds())
	qs := make([]queryObs, nq)
	var wg sync.WaitGroup
	var mixedBatches []batchObs
	var writerLate time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		writerLate = openLoop(1, mixedBatchRate, mixedN, func(_, _ int, due time.Time) {
			mixedBatches = append(mixedBatches, h2.mutate(nextBatch(), due))
		})
	}()
	queryLate := openLoop(1, mixedRate, nq, func(_, i int, due time.Time) {
		qs[i] = h2.query(0, m.at(i), due)
	})
	wg.Wait()
	batches = append(batches, mixedBatches...)
	r.e2e["peak_rss_mb"] = peakRSSMB()
	if err := h2.stop(); err != nil {
		return err
	}

	r.attempted = len(batches) + len(qs)
	var acks []float64
	var appendMS, compactMS []float64
	var walBytes, walOps float64
	for i := range batches {
		b := &batches[i]
		if b.status != http.StatusOK {
			r.failed++
			continue
		}
		if b.ack.Compacted {
			r.layer["graph.compactions"]++
			compactMS = append(compactMS, ms(b.call))
		} else {
			appendMS = append(appendMS, ms(b.call))
			walBytes += float64(b.walBytes)
			walOps += float64(len(b.ops))
		}
		if i < burstN {
			acks = append(acks, ms(b.done.Sub(b.due)))
		}
	}
	countFailed(r, qs)
	// The burst alternates 64 appends with one compaction, so per-second
	// counts come in steps of 1,024 ops; the whole burst's rate has none.
	r.e2e["latency_ms"] = median(acks)
	r.e2e["tail_ms"] = quantile(acks, ackTailQ)
	r.e2e["throughput_per_s"] = float64(len(acks)*batchOps) / burstElapsed.Seconds()
	fmt.Printf("serve-rmat-mutate: burst %d batches (p%.0f tail), mixed %d batches at %.0f/s beside %d queries at %.0f q/s (p%.0f tail), %d compactions\n",
		burstN, 100*ackTailQ, len(mixedBatches), mixedBatchRate, len(qs), mixedRate, 100*mixedTailQ, int(r.layer["graph.compactions"]))

	mixed := byKind(qs)
	r.layer["serve.query_p50_ms"] = kindGeomean(mixed, 0.5)
	r.layer["serve.query_tail_ms"] = kindGeomean(mixed, mixedTailQ)
	r.layer["bench.traced_latency_ms"] = r.e2e["latency_ms"]
	r.layer["bench.generator_late_ms"] = ms(max(writerLate, queryLate))
	r.layer["graph.append_ms"] = median(appendMS)
	r.layer["graph.compact_ms"] = median(compactMS)
	r.layer["graph.recover_ms"] = recoverMS
	if walOps > 0 {
		r.layer["graph.wal_bytes_per_op"] = walBytes / walOps
	}
	queryLayers(r, qs, qs)

	return checkMutations(r, st.g, batches, burstN, recovered, qs, []*harness{h, h2})
}

// checkMutations folds the acked batches with the benchmark's own edge
// lists. The store reopened after the burst must hold exactly the burst's
// fold, and every query must match the benchmark's answers on the graph of
// the epoch it names.
func checkMutations(r *run, base *graph.CSR, batches []batchObs, burstN int, recovered *graph.CSR, qs []queryObs, hs []*harness) error {
	ep := map[string]uint64{}
	for _, h := range hs {
		e, err := h.epochs()
		if err != nil {
			return err
		}
		for k, v := range e {
			ep[k] = v
		}
	}
	// byEpoch groups the queries by the epoch they ran against.
	byEpoch := map[uint64][]*queryObs{}
	for i := range qs {
		if qs[i].status == http.StatusOK {
			byEpoch[ep[qs[i].id]] = append(byEpoch[ep[qs[i].id]], &qs[i])
		}
	}
	var fail error
	r.tr.root("check", 0).do("bench.check", func(spanRef) {
		fold := adjFromCSR(base)
		initial := fold.edges()
		epoch := uint64(1)
		checkEpoch := func() {
			if len(byEpoch[epoch]) == 0 {
				return
			}
			c := newAnswers(fold.clone())
			for _, o := range byEpoch[epoch] {
				c.check(r, o)
			}
			delete(byEpoch, epoch)
		}
		checkEpoch()
		for i := range batches {
			b := &batches[i]
			if b.status != http.StatusOK {
				continue
			}
			if want := uint64(i + 1); b.ack.Seq != want {
				fail = fmt.Errorf("batch %d acked with seq %d", want, b.ack.Seq)
				return
			}
			for _, op := range b.ops {
				fold.apply(op)
			}
			if b.ack.Compacted {
				if b.ack.Epoch != epoch+1 {
					fail = fmt.Errorf("batch %d compacted into epoch %d after epoch %d", b.ack.Seq, b.ack.Epoch, epoch)
					return
				}
				epoch++
				checkEpoch()
			}
			if i == burstN-1 {
				if err := sameEdges(fold, recovered); err != nil {
					r.wrongf("recovered store differs from the acked burst: %v", err)
				}
			}
		}
		for e, q := range byEpoch {
			r.wrongf("%d queries name epoch %d, which no acked compaction produced", len(q), e)
		}
		r.layer["graph.edge_drift"] = math.Abs(float64(fold.edges())/float64(initial) - 1)
	})
	return fail
}

// fsName names the filesystem type holding dir, for the run log.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	switch st.Type {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("filesystem type %#x", st.Type)
}
