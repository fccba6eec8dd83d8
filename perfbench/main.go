// Command perfbench is the repository's benchmark: it drives the serving
// layer, the mutation pipeline and the egacs batch path through their public
// entry points, checks every answer against computations of its own, and
// prints one JSON result line. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// catalog is the metric list of BENCHMARK.json, the one place metric names
// and units are declared.
type catalog struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadCatalog(path string) (*catalog, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// run carries one benchmark invocation's settings and results.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	tr       *tracer // nil unless --trace 1
	dir      string  // scratch directory inside the checkout

	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	wrong     []string // answers that disagreed with the benchmark's own
}

func (r *run) traced() bool { return r.tr != nil }

// wrongf records an answer the program served that the benchmark's own
// computation contradicts.
func (r *run) wrongf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.wrong) < 20 {
		fmt.Fprintln(os.Stderr, "WRONG:", msg)
	}
	r.wrong = append(r.wrong, msg)
}

// setupReps is how many times each run sets up; setup_s is the median.
const setupReps = 5

// setupMedian runs build n times and returns the last result with the median
// build time in seconds; earlier results are released with their cleanup.
func setupMedian[T any](n int, build func() (T, func(), error)) (T, float64, error) {
	var (
		last    T
		cleanup func()
		secs    []float64
	)
	for i := 0; i < n; i++ {
		if cleanup != nil {
			cleanup()
		}
		runtime.GC()
		t0 := time.Now()
		v, c, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last, cleanup = v, c
	}
	runtime.GC()
	return last, median(secs), nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var workloads = map[string]func(*run) error{
	"serve-road":        serveRoad,
	"serve-rmat-mutate": serveRMATMutate,
	"kernel-suite":      kernelSuite,
}

func main() {
	name := flag.String("workload", "", "workload: serve-road|serve-rmat-mutate|kernel-suite")
	seed := flag.Uint64("seed", 1, "input seed: graphs, query sources and mutation streams derive from it")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := benchmark(wl, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchmark runs the checker self-test, then the workload, and reports.
func benchmark(wl func(*run) error, name string, seed uint64, seconds float64, traced bool) error {
	cat, err := loadCatalog("BENCHMARK.json")
	if err != nil {
		return err
	}
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	r := &run{
		workload: name, seed: seed, seconds: seconds,
		dir:   filepath.Join(base, fmt.Sprintf("perfbench-%d", os.Getpid())),
		e2e:   map[string]float64{},
		layer: map[string]float64{},
	}
	if traced {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.dir)
	if err := selfTest(); err != nil {
		return err
	}
	if err := wl(r); err != nil {
		return err
	}
	if traced {
		if err := r.traceLayers(filepath.Join(base, "perfbench-trace-"+name+".json")); err != nil {
			return err
		}
	}
	return r.report(os.Stdout, cat, traced)
}

// traceLayers writes the span file and derives per-layer self times from it,
// per attempted operation.
func (r *run) traceLayers(path string) error {
	if err := r.tr.writeFile(path); err != nil {
		return err
	}
	self, n, err := selfTimes(path)
	if err != nil {
		return err
	}
	for l, v := range self {
		r.layer["trace.self_ms."+l] = v / float64(r.attempted)
	}
	fmt.Printf("trace: %d spans in %s\n", n, path)
	return nil
}

// report prints every metric of the selected set by name and unit, then the
// JSON result as the last line.
func (r *run) report(w *os.File, cat *catalog, traced bool) error {
	want, got := cat.EndToEnd, r.e2e
	if traced {
		want, got = cat.PerLayer, r.layer
	}
	out := map[string]metric{}
	for _, m := range want {
		out[m.Name] = metric{Value: got[m.Name], Unit: m.Unit}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.Name, got[m.Name], m.Unit)
	}
	for k := range got {
		if _, ok := out[k]; !ok {
			return fmt.Errorf("metric %q is not declared in BENCHMARK.json", k)
		}
	}
	if len(r.wrong) > 0 {
		fmt.Fprintf(w, "wrong answers: %d (first: %s)\n", len(r.wrong), r.wrong[0])
	}
	fmt.Fprintf(w, "workload %s seed %d: attempted %d, failed %d\n", r.workload, r.seed, r.attempted, r.failed)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.wrong) == 0 && r.attempted > 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
