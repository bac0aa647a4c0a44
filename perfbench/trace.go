package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer started; Parent is the index of the enclosing span,
// -1 at the root. Spans of one run share Run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    uint64 `json:"run"`
}

// layer is the span name's prefix up to the first dot: "simnet.Join"
// belongs to simnet.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory and writes them when the run ends. A nil
// tracer records nothing, so untraced runs pass nil and pay one branch
// per call.
type tracer struct {
	t0    time.Time
	run   uint64
	spans []span
}

func newTracer(run uint64) *tracer {
	return &tracer{t0: time.Now(), run: run, spans: make([]span, 0, 1<<14)}
}

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums each layer's self time: a span's duration minus the part
// of it its child spans cover (children that overlap each other are
// counted once). Open spans are ignored.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		covered := coveredNs(s.Start, s.End, spans, kids[i])
		out[s.layer()] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNs is the length of [lo, hi) covered by the union of the given
// child spans, each clipped to the interval.
func coveredNs(lo, hi int64, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		if c.End < c.Start {
			continue
		}
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
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

// spanDurations returns the durations (ns) of every closed span named
// name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}
