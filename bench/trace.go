package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public entry point, recorded
// from the benchmark's side of the call. Spans of one request share Req;
// Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid no-op, so the in-process replay and the untraced local reference
// it doubles as are one code path. It is used by one goroutine at a
// time: the replay is single-threaded and every HTTP client owns its own.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the spans begun and not yet ended
	req   int
	// firstID offsets span IDs so several tracers merge into one file
	// without collisions.
	firstID int
}

func newTracer(t0 time.Time, firstID int) *tracer {
	return &tracer{t0: t0, firstID: firstID}
}

// request sets the request ID that subsequently begun spans carry.
func (t *tracer) request(req int) {
	if t != nil {
		t.req = req
	}
}

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{
		ID: t.firstID + len(t.spans), Parent: parent, Req: t.req, Name: name,
		Start: int64(time.Since(t.t0)),
	})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = now
}

// add records an already finished root span (the HTTP clients' view of a
// request).
func (t *tracer) add(name string, req int, start, end time.Time) {
	t.spans = append(t.spans, span{
		ID: t.firstID + len(t.spans), Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	self  time.Duration // durations minus what direct children cover
	total time.Duration
	calls int
}

// spanTotals aggregates spans by name. A span's self time is its
// duration minus the part its direct children cover; a tracer is used by
// one goroutine, so siblings never overlap and the covered part is the
// plain sum of the children's durations.
func spanTotals(spans []span) map[string]spanTotal {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	by := make(map[string]spanTotal)
	for _, s := range spans {
		t := by[s.Name]
		t.total += time.Duration(s.End - s.Start)
		t.self += time.Duration(s.End - s.Start - covered[s.ID])
		t.calls++
		by[s.Name] = t
	}
	return by
}

// traceFile is the document written to bench/out/trace_<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(&traceFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
