package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public function.
// Spans of one request share Req; Parent is the span that caused this one
// (0 for a root). Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req,omitempty"`
	Name   string        `json:"name"`
	Tag    string        `json:"tag,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs fn inside a leaf span.
func (t *tracer) do(name, tag string, parent, req int64, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Tag: tag, Start: start, End: end})
}

// open starts a span whose children are recorded before it ends (a request
// root); close it with the returned function.
func (t *tracer) open(name, tag string, req int64) (id int64, done func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.epoch)
	t.mu.Lock()
	id = int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Req: req, Name: name, Tag: tag, Start: start})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// durations returns the durations, in milliseconds, of every span with the
// given name (and tag, when tag is non-empty).
func (t *tracer) durations(name, tag string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// spanCost measures what recording one span adds to the call it wraps:
// the time of n traced empty calls minus n untraced ones, per call.
func spanCost(n int) time.Duration {
	var sink int
	fn := func() { sink++ }
	var off *tracer
	t0 := time.Now()
	for i := 0; i < n; i++ {
		off.do("cost", "", 0, 0, fn)
	}
	untraced := time.Since(t0)
	on := newTracer()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		on.do("cost", "", 0, 0, fn)
	}
	traced := time.Since(t0)
	return (traced - untraced) / time.Duration(n)
}

// count is the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
