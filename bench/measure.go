package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Request kinds. Every timed sample carries one, so latency metrics can
// pool exactly the kinds their definition names.
const (
	kindOp uint8 = iota // corpus: build -> run -> report of one program
	kindSimulate
	kindNew
	kindJump
	kindStepFwd // +1 and +16 steps
	kindStepBack
	kindCheckpoint
	kindRestore
	kindClose
	numKinds
)

// clientSpanNames are the names of the client spans of the traced HTTP
// phase, by request kind.
var clientSpanNames = [numKinds]string{
	"client.op", "client.simulate", "client.session_new", "client.jump", "client.step_fwd",
	"client.step_back", "client.checkpoint", "client.restore", "client.close",
}

// sample is one timed operation: when it ended relative to the window
// start, how long the caller waited, and how many simulated cycles it
// advanced.
type sample struct {
	end    time.Duration
	dur    time.Duration
	cycles uint64
	kind   uint8
}

// recorder is one closed-loop client's private tally: samples plus the
// attempted/failed counts. Clients never share one, so it needs no lock.
type recorder struct {
	outcome
	t0      time.Time
	samples []sample
	// spans, when non-nil, additionally receives one client span per
	// request (traced HTTP phase).
	spans *tracer
}

func newRecorder(t0 time.Time) *recorder {
	// Pre-sized so append growth does not show up in alloc_kb_per_op.
	return &recorder{t0: t0, samples: make([]sample, 0, 1<<17)}
}

// note books one operation. A non-nil err — transport failure, non-2xx
// reply, shed, or a checker mismatch — makes it a failed op; failed ops
// contribute no latency sample.
func (r *recorder) note(kind uint8, req int, start time.Time, cycles uint64, err error) {
	end := time.Now()
	r.attempted++
	if err != nil {
		r.fail(err)
		return
	}
	r.samples = append(r.samples, sample{end: end.Sub(r.t0), dur: end.Sub(start), cycles: cycles, kind: kind})
	if r.spans != nil {
		r.spans.add(clientSpanNames[kind], req, start, end)
	}
}

// outcome counts operations and keeps the first failure for the report.
type outcome struct {
	attempted int
	failed    int
	firstErr  error
}

// fail books one failed operation (or one failed post-window check).
func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// failedOutcome is the outcome of a phase that could not run at all.
func failedOutcome(err error) outcome { return outcome{attempted: 1, failed: 1, firstErr: err} }

// absorb adds another tally's counts.
func (o *outcome) absorb(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
}

// runClients runs fn on n goroutines and waits for all of them.
func runClients(n int, fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// numClients is the closed-loop client count: min(nproc, 2).
func numClients() int { return min(runtime.NumCPU(), 2) }

// tally is a window's outcome before it is reduced to metrics.
type tally struct {
	outcome
	window  time.Duration
	samples []sample
	host    hostDelta
}

func mergeRecorders(recs []*recorder, window time.Duration, host hostDelta) *tally {
	t := &tally{window: window, host: host}
	for _, r := range recs {
		t.samples = append(t.samples, r.samples...)
		t.absorb(r.outcome)
	}
	return t
}

// endToEnd reduces a window to the end-to-end metrics. The throughput
// metrics are the whole window's rate: the work completed inside it over
// its length. Latency percentiles pool every in-window sample of the
// given kinds. (The reference box is shared and its speed drifts by
// several percent over tens of seconds; against that noise the
// whole-window rate repeated better than a median of segment rates, which
// discards samples.)
func (t *tally) endToEnd(latencyKinds ...uint8) map[string]float64 {
	var ops, cycles float64
	var lat []float64
	for _, s := range t.samples {
		if s.end > t.window {
			continue // completed after the cut: attempted, not measured
		}
		ops++
		cycles += float64(s.cycles)
		for _, k := range latencyKinds {
			if s.kind == k {
				lat = append(lat, s.dur.Seconds()*1e3)
			}
		}
	}
	sort.Float64s(lat)
	return map[string]float64{
		"req_per_s":         ops / t.window.Seconds(),
		"sim_mcycles_per_s": cycles / t.window.Seconds() / 1e6,
		"latency_p50_ms":    quantile(lat, 0.50),
		"latency_p90_ms":    quantile(lat, 0.90),
		"alloc_kb_per_op":   float64(t.host.allocBytes) / 1024 / max(ops, 1),
	}
}

// latencyOf returns the sorted latencies (ms) of one kind.
func latencyOf(samples []sample, kind uint8) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == kind {
			out = append(out, s.dur.Seconds()*1e3)
		}
	}
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quantile interpolates linearly in an already sorted slice; 0 when the
// slice is empty (a per-layer metric its workload does not exercise).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default exclusive method), which is how the acceptance procedure
// measures run-to-run spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// hostSnap is a point reading of the process's own resource counters.
type hostSnap struct {
	ms  runtime.MemStats
	cpu time.Duration
}

// hostDelta is what the process spent between two readings.
type hostDelta struct {
	allocBytes uint64
	mallocs    uint64
	gcPause    time.Duration
	cpu        time.Duration
}

func snapHost() hostSnap {
	var s hostSnap
	runtime.ReadMemStats(&s.ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

func (a hostSnap) until(b hostSnap) hostDelta {
	return hostDelta{
		allocBytes: b.ms.TotalAlloc - a.ms.TotalAlloc,
		mallocs:    b.ms.Mallocs - a.ms.Mallocs,
		gcPause:    time.Duration(b.ms.PauseTotalNs - a.ms.PauseTotalNs),
		cpu:        b.cpu - a.cpu,
	}
}

// referenceWindow opens every traced run: an untraced window of a quarter
// of the run length. It returns the host.* per-layer group read over it
// (heap after a forced collection, so it is what the process retains, not
// what it has yet to free), the window's rate — what tracing overhead is
// measured against — and its outcome.
func referenceWindow(b bench, d time.Duration) (layers map[string]float64, rate float64, out outcome) {
	ref := b.measure(d / 4)
	ops := float64(max(len(ref.samples), 1))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layers = map[string]float64{
		"host.allocs_per_op":    float64(ref.host.mallocs) / ops,
		"host.gc_pause_ms":      ref.host.gcPause.Seconds() * 1e3,
		"host.heap_retained_mb": float64(ms.HeapAlloc) / (1 << 20),
		"host.cpu_s":            ref.host.cpu.Seconds(),
	}
	return layers, b.endToEnd(ref)["req_per_s"], ref.outcome
}

// overheadPct is host.trace_overhead_pct: how much slower the traced
// phase ran than the untraced reference window, as a share of the latter.
func overheadPct(untracedRate, tracedRate float64) float64 {
	if untracedRate <= 0 {
		return 0
	}
	return (untracedRate - tracedRate) / untracedRate * 100
}
