package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// call. Replays of the layer below the one an op calls are recorded as child
// spans of that op's span, so a layer's self time is its span's duration
// minus its child's. The child runs after its parent on the same bytes; it
// does not nest inside the parent's interval.
type Span struct {
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// spanLog records spans in memory for one goroutine. A nil *spanLog records
// nothing, which is how untraced rounds pay for tracing: one nil check.
type spanLog struct {
	t0    time.Time
	phase string
	ids   *atomic.Int64 // shared by every log of a run
	spans []Span
}

// begin opens a span and returns its index, or -1 on a nil log.
func (l *spanLog) begin(name string, op, parent int64, bytes int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, Span{
		Name: name, Phase: l.phase, Op: op, ID: l.ids.Add(1), Parent: parent,
		Start: int64(time.Since(l.t0)), Bytes: bytes,
	})
	return len(l.spans) - 1
}

// end closes the span begin returned and gives its id, for children.
func (l *spanLog) end(i int) int64 {
	if l == nil || i < 0 {
		return 0
	}
	l.spans[i].End = int64(time.Since(l.t0))
	return l.spans[i].ID
}

// drop removes the span begin returned, when the op it timed failed its
// gate: a wrong answer keeps no timing.
func (l *spanLog) drop(i int) {
	if l != nil && i >= 0 {
		l.spans = l.spans[:i]
	}
}

// spanSet is every span of a run, with self times derived from the tree.
type spanSet struct {
	spans []Span
	child map[int64]int64 // parent id -> summed child duration
}

func mergeSpans(logs ...*spanLog) *spanSet {
	s := &spanSet{child: map[int64]int64{}}
	for _, l := range logs {
		if l != nil {
			s.spans = append(s.spans, l.spans...)
		}
	}
	for _, sp := range s.spans {
		if sp.Parent != 0 {
			s.child[sp.Parent] += sp.dur()
		}
	}
	return s
}

// selfNS is a span's duration minus the durations of its child spans.
func (s *spanSet) selfNS(sp Span) int64 { return sp.dur() - s.child[sp.ID] }

// named returns the spans with the given name, in the given phase when
// phase is not empty.
func (s *spanSet) named(name, phase string) []Span {
	var out []Span
	for _, sp := range s.spans {
		if sp.Name == name && (phase == "" || sp.Phase == phase) {
			out = append(out, sp)
		}
	}
	return out
}

// medianSelfUS is the median self time of the named spans, in µs.
func (s *spanSet) medianSelfUS(name, phase string) float64 {
	var xs []float64
	for _, sp := range s.named(name, phase) {
		xs = append(xs, float64(s.selfNS(sp))/1e3)
	}
	return median(xs)
}

// medianDurUS is the median duration of the named spans, in µs.
func (s *spanSet) medianDurUS(name, phase string) float64 {
	var xs []float64
	for _, sp := range s.named(name, phase) {
		xs = append(xs, float64(sp.dur())/1e3)
	}
	return median(xs)
}

// nsPerByte is the summed duration of the named spans over their summed
// bytes; selfOnly subtracts child time first.
func (s *spanSet) nsPerByte(name, phase string, selfOnly bool) float64 {
	var ns, bytes int64
	for _, sp := range s.named(name, phase) {
		d := sp.dur()
		if selfOnly {
			d = s.selfNS(sp)
		}
		ns += d
		bytes += int64(sp.Bytes)
	}
	if bytes == 0 {
		return 0
	}
	return float64(ns) / float64(bytes)
}

func (s *spanSet) write(path string) error {
	data, err := json.Marshal(s.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
