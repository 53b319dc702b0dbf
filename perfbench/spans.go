package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed public call. Spans nest by call order on the single
// benchmark goroutine, so the open-span stack gives each its parent.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Root   int    `json:"root"`   // index of the enclosing root span
	Self   int64  `json:"self_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory when on; when off every call is a no-op
// beyond the clock reads the caller needs anyway.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its start time.
func (t *tracer) begin(name string) time.Time {
	now := time.Now()
	if !t.on {
		return now
	}
	parent, root := -1, len(t.spans)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		root = t.spans[parent].Root
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(now.Sub(t.t0)), Parent: parent, Root: root})
	return now
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end(start time.Time) time.Duration {
	now := time.Now()
	if t.on {
		i := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[i].End = int64(now.Sub(t.t0))
	}
	return now.Sub(start)
}

// timed runs fn inside a span named name.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	start := t.begin(name)
	err := fn()
	return t.end(start), err
}

// finish computes every span's self time: its duration minus the union of
// its children's intervals.
func (t *tracer) finish() {
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - unionLen(kids[i])
	}
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, lo, hi int64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return total + hi - lo
}

// perRoot sums the durations of spans named name under each root span named
// root, in root order: one value per unit (or per set-up, or per replay).
func (t *tracer) perRoot(root, name string) []float64 {
	idx := make(map[int]int)
	var out []float64
	for i, s := range t.spans {
		if s.Parent < 0 && s.Name == root {
			idx[i] = len(out)
			out = append(out, 0)
		}
	}
	for _, s := range t.spans {
		if k, ok := idx[s.Root]; ok && s.Name == name {
			out[k] += s.dur().Seconds()
		}
	}
	return out
}

// selfPerRoot returns the self time of each root span named root: the time
// the benchmark spent outside every timed call under it.
func (t *tracer) selfPerRoot(root string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == root {
			out = append(out, float64(s.Self)/1e9)
		}
	}
	return out
}

// write stores the spans as JSON under dir; an empty dir writes nothing.
func (t *tracer) write(dir, file string) error {
	if dir == "" || !t.on {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), b, 0o644)
}
