package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one benchmark operation
// share Op (the id of the operation's root span); Parent is the span that
// made the call, 0 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the benchmark's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call site.
// Each goroutine records into its own lane; lanes are merged when the spans
// are written, so recording takes no lock.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*lane
}

// lane is one goroutine's span buffer. Span ids are unique across lanes:
// the lane index occupies the high bits.
type lane struct {
	t     *tracer
	base  uint64
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane returns a new span buffer for the calling goroutine, or nil when t is
// nil.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t: t, base: uint64(len(t.lanes)+1) << 40}
	t.lanes = append(t.lanes, l)
	return l
}

// now returns the span clock: monotonic nanoseconds since the tracer began
// (0 on a nil lane).
func (l *lane) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.t.epoch))
}

// newID allocates a span id, for a span recorded once its children are (0
// on a nil lane).
func (l *lane) newID() uint64 {
	if l == nil {
		return 0
	}
	l.next++
	return l.base | l.next
}

// add appends a finished span; a nil lane drops it.
func (l *lane) add(s span) {
	if l != nil {
		l.spans = append(l.spans, s)
	}
}

// record appends a finished span and returns its id. parent 0 makes it a
// root, and a root's op id is its own id.
func (l *lane) record(name string, parent, op uint64, start, end int64) uint64 {
	id := l.newID()
	if parent == 0 {
		op = id
	}
	l.add(span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// timed runs fn inside a span named name under parent and returns the span
// id. On a nil lane it just runs fn.
func (l *lane) timed(name string, parent, op uint64, fn func()) uint64 {
	if l == nil {
		fn()
		return 0
	}
	start := l.now()
	fn()
	return l.record(name, parent, op, start, l.now())
}

// all returns every recorded span, lane by lane.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// byName groups span durations by span name.
func byName(spans []span) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// meanNs is the mean duration of ds in nanoseconds (NaN when empty).
func meanNs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return mean(xs)
}

// write stores the host fingerprint and every span as JSON lines in path.
func (t *tracer) write(path string, host hostInfo) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": host}); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
