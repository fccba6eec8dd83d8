package main

// Spans recorded by the benchmark around its calls into each layer. They
// live in memory, are written once as a Chrome trace-event file, and the
// per-layer self times are read back from that file.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

type span struct {
	Name   string
	Start  time.Duration // since the tracer's origin
	Dur    time.Duration
	ID     int64
	Parent int64 // 0 for a root span
	Req    string
	Lane   int
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is where a child span hangs: the parent's id, the request it
// belongs to and the client lane that issued it. The zero value with a nil
// tracer records nothing.
type spanRef struct {
	tr   *tracer
	id   int64
	req  string
	lane int
}

func (t *tracer) root(req string, lane int) spanRef { return spanRef{tr: t, req: req, lane: lane} }

// begin opens a child span of r; end closes it under the given name (the
// name may depend on the call's outcome).
func (r spanRef) begin() (spanRef, func(name string)) {
	if r.tr == nil {
		return r, func(string) {}
	}
	id := r.tr.newID()
	start := time.Now()
	child := spanRef{tr: r.tr, id: id, req: r.req, lane: r.lane}
	return child, func(name string) {
		r.tr.add(span{Name: name, Start: start.Sub(r.tr.t0), Dur: time.Since(start), ID: id, Parent: r.id, Req: r.req, Lane: r.lane})
	}
}

// do wraps f in a child span of r.
func (r spanRef) do(name string, f func(spanRef)) {
	c, end := r.begin()
	f(c)
	end(name)
}

// derived records a span whose duration the program reported rather than
// the benchmark timed (the resilient chain's wall inside a request). It is
// placed at the end of its parent, which it cannot outlast.
func (r spanRef) derived(name string, parentEnd time.Time, dur time.Duration) {
	if r.tr == nil {
		return
	}
	r.tr.add(span{Name: name, Start: parentEnd.Add(-dur).Sub(r.tr.t0), Dur: dur, ID: r.tr.newID(), Parent: r.id, Req: r.req, Lane: r.lane})
}

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// layerOf is the layer a span name belongs to: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// writeFile writes every span as a Chrome trace-event file.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	evs := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = traceEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		}
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes reads a trace file back and returns each layer's self time in
// milliseconds: a span's duration less the durations of its children.
func selfTimes(path string) (map[string]float64, int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("trace: %w", err)
	}
	var f struct {
		TraceEvents []struct {
			Cat  string  `json:"cat"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID     int64 `json:"id"`
				Parent int64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, 0, fmt.Errorf("trace: %s: %w", path, err)
	}
	childUS := map[int64]float64{}
	for _, e := range f.TraceEvents {
		if e.Args.Parent != 0 {
			childUS[e.Args.Parent] += e.Dur
		}
	}
	self := map[string]float64{}
	for _, e := range f.TraceEvents {
		self[e.Cat] += (e.Dur - childUS[e.Args.ID]) / 1e3
	}
	return self, len(f.TraceEvents), nil
}
