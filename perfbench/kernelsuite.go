package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/spmd"
)

// suiteKernels are the paper's ten kernels, in egacs's order.
var suiteKernels = []string{"bfs-wl", "bfs-cx", "bfs-tp", "bfs-hb", "sssp-nf", "cc", "tri", "mis", "pr", "mst"}

var families = []string{"road", "rmat", "random"}

// Kernel-suite inputs. Each family fits in L2 (2 MiB per core) as a CSR;
// RMAT is sized for tri, whose cost grows far faster than the graph.
const (
	suiteRoadSide   = 64 // road-64x64: 4096 nodes, ~16.6k edges
	suiteRMATScale  = 12 // rmat12: 4096 nodes, 32768 edges
	suiteRandomN    = 4096
	suiteRandomM    = 32768
	suiteMaxWeight  = 64
	suiteFixedSeed  = 42 // generator seed of the mst-on-rmat cell's graph
	suiteKnownFault = "mst/rmat"
)

// suiteInputs generates the three families from the run's seed, plus the
// fixed-seed RMAT graph the known-failing mst cell runs on: that cell fails
// on every input tried, but a fixed input keeps the failed share the same
// in every run whatever the seed.
func suiteInputs(seed uint64) map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"road":     graph.Road(suiteRoadSide, suiteRoadSide, suiteMaxWeight, seed),
		"rmat":     graph.RMAT(suiteRMATScale, 8, suiteMaxWeight, seed),
		"random":   graph.Random(suiteRandomN, suiteRandomM, suiteMaxWeight, seed),
		"mst/rmat": graph.RMAT(suiteRMATScale, 8, suiteMaxWeight, suiteFixedSeed),
	}
}

// egacsConfig is the configuration egacs runs a benchmark with by default:
// compiled backend where covered, auto layout, parallel host execution, all
// optimizations, checkpointing off.
func egacsConfig() core.Config {
	m := machine.Intel8()
	o := opt.All()
	return core.Config{Machine: m, Opts: &o, Backend: core.BackendAuto, Layout: core.LayoutAuto, HostExec: core.HostParallel}
}

// cellSample is one timed egacs run of one kernel on one input.
type cellSample struct {
	wall, prepare, run, verify time.Duration
	allocMB                    float64
	res                        *core.Result // dropped once checked
	modeledMS                  float64
	stats                      spmd.Stats
	width                      int
}

func kernelSuite(r *run) error {
	inputs, setup, err := setupMedian(setupReps, func() (map[string]*graph.CSR, func(), error) {
		return suiteInputs(r.seed), func() {}, nil
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	cfg := egacsConfig()

	expected := map[string]func(output) error{}
	compileMS := map[string][]float64{}
	samples := map[string][]cellSample{}
	var roundWall []float64 // summed cell walls of each round
	rounds := 0
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	for rounds == 0 || time.Now().Before(deadline) {
		root := r.tr.root(fmt.Sprintf("round-%d", rounds), 0)
		roundWall = append(roundWall, 0)
		if r.traced() {
			if err := compileProbe(r, root, suiteKernels, compileMS); err != nil {
				return err
			}
		}
		for _, k := range suiteKernels {
			b, err := kernels.ByName(k)
			if err != nil {
				return err
			}
			for _, f := range families {
				cell := k + "/" + f
				g := inputs[f]
				if cell == suiteKnownFault {
					g = inputs[suiteKnownFault]
				}
				s, pg, runErr := runCell(r, root, b, g, cfg)
				r.attempted++
				roundWall[rounds] += ms(s.wall)
				check := expected[cell]
				if check == nil {
					check = expectAnswer(k, pg)
					expected[cell] = check
				}
				var ownErr error
				r.tr.root(cell, 0).do("bench.check", func(spanRef) {
					if s.res != nil {
						ownErr = check(resultOutput(s.res))
					}
				})
				switch {
				case runErr != nil && (s.res == nil || ownErr != nil):
					r.failed++ // the program and the benchmark agree the answer is wrong
					if rounds == 0 {
						fmt.Printf("failed cell %s: %v\n", cell, runErr)
					}
				case runErr != nil:
					r.wrongf("%s: program rejected an answer the benchmark accepts: %v", cell, runErr)
				case ownErr != nil:
					r.wrongf("%s: %v", cell, ownErr)
				}
				if s.res != nil {
					s.modeledMS, s.stats, s.width = s.res.TimeMS, s.res.Stats, s.res.Engine.Width()
					s.res = nil
				}
				samples[cell] = append(samples[cell], s)
			}
		}
		rounds++
	}
	elapsed := time.Since(start)
	fmt.Printf("kernel-suite: %d rounds of %d cells in %.2fs\n", rounds, len(suiteKernels)*len(families), elapsed.Seconds())

	var cellWall, prep, runs, verify, modeled, alloc []float64
	var stats struct{ instr, launches, barriers, atomics, items, inner, innerLanes, sellCols, sellLanes int64 }
	var wallNS, cycles float64
	for _, k := range suiteKernels {
		b, _ := kernels.ByName(k)
		for _, f := range families {
			ss := samples[k+"/"+f]
			pick := func(get func(cellSample) float64) float64 {
				xs := make([]float64, len(ss))
				for i, s := range ss {
					xs[i] = get(s)
				}
				return median(xs)
			}
			cellWall = append(cellWall, pick(func(s cellSample) float64 { return ms(s.wall) }))
			rm := pick(func(s cellSample) float64 { return ms(s.run) })
			runs = append(runs, rm)
			r.layer["core.run_ms."+k+"."+f] = rm
			verify = append(verify, pick(func(s cellSample) float64 { return ms(s.verify) }))
			alloc = append(alloc, pick(func(s cellSample) float64 { return s.allocMB }))
			if b.NeedsSymmetric {
				prep = append(prep, pick(func(s cellSample) float64 { return ms(s.prepare) }))
			}
			// Modeled time and counters repeat exactly from round to round.
			if s := ss[0]; s.width > 0 {
				modeled = append(modeled, s.modeledMS)
				st := s.stats
				stats.instr += st.Instructions
				stats.launches += st.Launches
				stats.barriers += st.Barriers
				stats.atomics += st.Atomics
				stats.items += st.WorkItems
				stats.inner += st.InnerVectorOps * int64(s.width)
				stats.innerLanes += st.InnerActiveLanes
				stats.sellCols += st.SellColumns * int64(s.width)
				stats.sellLanes += st.SellActiveLanes
				wallNS += rm * 1e6
				cycles += cfg.Machine.NSToCycles(s.modeledMS * 1e6)
			}
		}
	}
	r.e2e["latency_ms"] = geomean(cellWall)
	r.e2e["tail_ms"] = maxOf(cellWall)
	r.e2e["throughput_per_s"] = float64(len(cellWall)) / (median(roundWall) / 1e3)
	r.e2e["peak_rss_mb"] = peakRSSMB()

	r.layer["bench.traced_latency_ms"] = r.e2e["latency_ms"]
	r.layer["codegen.compile_ms"] = medianGeomean(compileMS)
	r.layer["graph.prepare_ms"] = geomean(prep)
	r.layer["core.run_ms"] = geomean(runs)
	r.layer["kernels.verify_ms"] = geomean(verify)
	r.layer["core.modeled_ms"] = geomean(modeled)
	r.layer["core.alloc_mb"] = geomean(alloc)
	r.layer["spmd.ns_per_cycle"] = wallNS / cycles
	r.layer["spmd.instructions"] = float64(stats.instr)
	r.layer["spmd.launches"] = float64(stats.launches)
	r.layer["spmd.barriers"] = float64(stats.barriers)
	r.layer["spmd.atomics"] = float64(stats.atomics)
	r.layer["worklist.work_items"] = float64(stats.items)
	r.layer["spmd.lane_utilization"] = float64(stats.innerLanes) / float64(stats.inner)
	r.layer["spmd.sell_lane_utilization"] = float64(stats.sellLanes) / float64(stats.sellCols)
	return nil
}

// runCell runs one cell the way egacs does: PrepareGraph, Run, Verify, timed
// together as the cell's wall. It returns the prepared graph and the first
// error the program reported.
func runCell(r *run, parent spanRef, b *kernels.Benchmark, g *graph.CSR, cfg core.Config) (cellSample, *graph.CSR, error) {
	var (
		s      cellSample
		pg     *graph.CSR
		err    error
		before runtime.MemStats
	)
	if r.traced() {
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	parent.do("bench.cell", func(c spanRef) {
		c.do("graph.prepare", func(spanRef) { pg = core.PrepareGraph(b, g) })
		t1 := time.Now()
		s.prepare = t1.Sub(t0)
		cfg.Src = pg.MaxDegreeNode()
		c.do("core.run", func(spanRef) { s.res, err = core.Run(b, pg, cfg) })
		t2 := time.Now()
		s.run = t2.Sub(t1)
		if err == nil {
			c.do("kernels.verify", func(spanRef) { err = core.Verify(b, pg, s.res) })
		}
		s.verify = time.Since(t2)
	})
	s.wall = time.Since(t0)
	if r.traced() {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	return s, pg, err
}

// compileProbe times opt.Apply + codegen.Compile for each named kernel, the
// step core.Run repeats on every call, appending to per.
func compileProbe(r *run, parent spanRef, names []string, per map[string][]float64) error {
	for _, k := range names {
		b, err := kernels.ByName(k)
		if err != nil {
			return err
		}
		t0 := time.Now()
		parent.do("codegen.compile", func(spanRef) {
			var prog *ir.Program
			if prog, err = opt.Apply(b.Prog, opt.All()); err == nil {
				_, err = codegen.Compile(prog)
			}
		})
		if err != nil {
			return fmt.Errorf("compile %s: %w", k, err)
		}
		per[k] = append(per[k], ms(time.Since(t0)))
	}
	return nil
}

// medianGeomean is the geometric mean over keys of each key's median.
func medianGeomean(per map[string][]float64) float64 {
	var xs []float64
	for _, v := range per {
		xs = append(xs, median(v))
	}
	return geomean(xs)
}

// output is a kernel run's result arrays and source node.
type output struct {
	i   func(string) []int32
	f   func(string) []float32
	src int32
}

func resultOutput(res *core.Result) output {
	return output{i: res.Instance.ArrayI, f: res.Instance.ArrayF, src: res.Instance.Params["src"]}
}

// expectAnswer computes kernel k's answer on the prepared graph pg with the
// benchmark's own algorithms and returns a checker for the program's output.
func expectAnswer(k string, pg *graph.CSR) func(output) error {
	a := adjFromCSR(pg)
	switch k {
	case "bfs-wl", "bfs-cx", "bfs-tp", "bfs-hb", "sssp-nf":
		memo := map[int32][]int32{}
		return func(o output) error {
			want, ok := memo[o.src]
			if !ok {
				if k == "sssp-nf" {
					want = dijkstra(a, o.src)
				} else {
					want = bfsLevels(a, o.src)
				}
				memo[o.src] = want
			}
			if k == "sssp-nf" {
				return sameInts("sssp distance", o.i("dist"), want)
			}
			return sameInts("bfs level", o.i("lvl"), want)
		}
	case "cc":
		roots := unionFind(a)
		return func(o output) error { return samePartition(o.i("comp"), roots) }
	case "tri":
		want := triangles(a.undirected())
		return func(o output) error {
			if got := int64(o.i("count")[0]); got != want {
				return fmt.Errorf("tri: count %d, want %d", got, want)
			}
			return nil
		}
	case "mis":
		s := a.undirected()
		return func(o output) error { return checkMIS(s, o.i("state")) }
	case "mst":
		s := a.undirected()
		weight, roots := kruskal(s), unionFind(s)
		return func(o output) error {
			if got := int64(o.i("mstwt")[0]); got != weight {
				return fmt.Errorf("mst: weight %d, want %d", got, weight)
			}
			if err := samePartition(o.i("comp"), roots); err != nil {
				return fmt.Errorf("mst: %w", err)
			}
			return nil
		}
	case "pr":
		want := pagerank(a)
		return func(o output) error { return checkRanks(o.f("rank"), want) }
	}
	return func(output) error { return fmt.Errorf("no check for kernel %s", k) }
}
