package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the index of the enclosing span, -1 for a root.
type Span struct {
	Name   string        `json:"name"`
	Trace  uint64        `json:"trace"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends; times are offsets from
// the tracer's creation on the monotonic clock.
type Tracer struct {
	t0    time.Time
	spans []Span
}

func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span and returns its index for End and for children.
func (t *Tracer) Start(trace uint64, parent int, name string) int {
	t.spans = append(t.spans, Span{Name: name, Trace: trace, Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// End closes span i.
func (t *Tracer) End(i int) { t.spans[i].End = time.Since(t.t0) }

// Add records a span measured elsewhere, such as a phase a layer reports
// as a duration: it starts at start and lasts d.
func (t *Tracer) Add(trace uint64, parent int, name string, start time.Time, d time.Duration) int {
	s := start.Sub(t.t0)
	t.spans = append(t.spans, Span{Name: name, Trace: trace, Parent: parent, Start: s, End: s + d})
	return len(t.spans) - 1
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span { return t.spans }

// WriteJSON writes the spans as JSON lines, each with its own index as id.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		rec := struct {
			ID int `json:"id"`
			Span
		}{i, s}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children count once,
// and a child's time outside its parent's interval is not subtracted.
func SelfTimes(spans []Span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.Dur() - covered(s, spans, kids[i])
	}
	return self
}

// covered is the length of the union of children's intervals clipped to
// the parent's.
func covered(p Span, spans []Span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, start, end time.Duration
	for i, x := range ivs {
		if i == 0 || x.a > end {
			total += end - start
			start, end = x.a, x.b
			continue
		}
		end = max(end, x.b)
	}
	return total + end - start
}
