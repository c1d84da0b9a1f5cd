package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval around a call into a layer. Spans of one
// iteration (simulator workloads) or one served job share a trace id.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass shares the traced pass's code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; ids start at 1, and parent 0 marks
// a root span.
func (t *tracer) begin(trace, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores the spans one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
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

// selfTimes returns each span's self time in ns, indexed like spans: its
// duration minus the part of its interval that its children cover.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// spanStats groups the self times of a trace's spans, in seconds, by span
// name and, for sim.Step, by the window that holds it.
type spanStats map[string][]float64

func statsOf(spans []span) spanStats {
	self := selfTimes(spans)
	out := spanStats{}
	for i, s := range spans {
		key := s.Name
		if s.Name == "sim.Step" {
			key = spans[s.Parent-1].Name + "/sim.Step"
		}
		out[key] = append(out[key], float64(self[i])/1e9)
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the percentile rule for reported tails: the highest
// quantile up to want that leaves at least ten samples beyond it, and never
// below the median.
func tailQuantile(n int, want float64) float64 {
	q := 1 - 10/float64(n)
	if n == 0 || q < 0.5 {
		return 0.5
	}
	return math.Min(q, want)
}

// pctName renders a quantile as the label the output lines use ("p95").
func pctName(q float64) string { return fmt.Sprintf("p%g", math.Round(q*1000)/10) }
