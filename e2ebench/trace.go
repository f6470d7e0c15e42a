package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps one span per public-function call the benchmark makes,
// in memory, and writes them out when the run ends. A nil *tracer
// records nothing, so the untraced run pays one nil check per call.
//
// Spans are recorded from the benchmark's own files, around the calls
// into each layer; the program itself is not instrumented.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string][]float64 // per-call counters (allocations, set and rule counts)
}

// span is one timed call: its name, its start and end in nanoseconds
// since the run began, and the span that caused it (0 for none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string][]float64{}}
}

// open starts a span under parent and returns the function that ends
// it, or a no-op on a nil tracer.
func (t *tracer) open(name string, parent int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.nextID.Add(1)
	start := time.Since(t.t0).Nanoseconds()
	return id, func() {
		stop := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: stop})
		t.mu.Unlock()
	}
}

// count records one sample of a per-call counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

// durations returns the durations of every span with the name, in
// seconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// childSums returns, for every span with the name, the summed duration
// of its direct children in seconds, beside its own duration.
func (t *tracer) childSums(name string) (own, children []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := map[int64]int64{}
	for _, s := range t.spans {
		sum[s.Parent] += s.End - s.Start
	}
	for _, s := range t.spans {
		if s.Name == name {
			own = append(own, float64(s.End-s.Start)/1e9)
			children = append(children, float64(sum[s.ID])/1e9)
		}
	}
	return own, children
}

// write stores the spans and counters as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(struct {
		Spans  []span               `json:"spans"`
		Counts map[string][]float64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// allocs reads the process's cumulative heap allocation count. Unlike
// runtime.ReadMemStats it does not stop the world.
func allocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
