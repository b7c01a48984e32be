package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one request
// share Trace (the daemon's query id, or a replay name); Parent is the
// ID of the span that caused this one (0 for a root).
type span struct {
	Trace  string         `json:"trace"`
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"` // since the run started
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until write. A nil tracer records
// nothing, so untraced runs share the traced code path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID (0 on a nil tracer).
func (t *tracer) add(trace string, parent int, name string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Attrs: attrs,
	})
	return id
}

// timed runs f inside a span.
func (t *tracer) timed(trace string, parent int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(trace, parent, name, start, end, nil)
	return end.Sub(start)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
