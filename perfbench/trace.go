package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// request share Trace; Parent is the ID of the span that caused this
// one (0 for a root).
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Add records a finished span and returns its ID (0 on a nil tracer).
func (t *Tracer) Add(trace uint64, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// SetEnd closes a span recorded open (with End == Start), for a parent
// whose ID its children need before it finishes.
func (t *Tracer) SetEnd(id int, end time.Time) {
	if t == nil || id < 1 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(end.Sub(t.epoch))
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans, stamped with the run's provenance, as one
// JSON object.
func (t *Tracer) WriteFile(path string, provenance map[string]any) error {
	b, err := json.Marshal(struct {
		Provenance map[string]any `json:"provenance"`
		Spans      []Span         `json:"spans"`
	}{provenance, t.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes maps each span ID to its self time: the span's duration
// minus the part of its interval covered by its children (overlapping
// children are counted once, and child time outside the parent's
// interval is ignored).
func selfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName collects the self times (in ns) of every span named name.
func selfByName(spans []Span, self map[int]int64, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}
