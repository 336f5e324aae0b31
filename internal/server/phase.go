package server

import (
	"context"
	"sync/atomic"
	"time"
)

// phase is one stage of the request path (docs/architecture.md "Request
// path"). Every moment of a request is booked to at most one phase, so
// the phases of a request sum to no more than its total.
type phase int

const (
	phaseQueue    phase = iota // waiting for an admission slot
	phaseDecode                // reading and parsing the request body
	phaseBuild                 // compile, assemble, instantiate
	phaseSimulate              // work on a built machine: runs, rewinds, checkpoint, restore, render
	phaseReport                // building the reply document from the machine
	phaseEncode                // serializing the reply
	phaseStoreGet              // sessionStore.load: reading a stored checkpoint back into a machine
	phaseStorePut              // sessionStore.save: sealing and writing a checkpoint to the store
	numPhases
)

// phaseNames are the phases' keys in api.Metrics.PhaseNanos.
var phaseNames = [numPhases]string{"queue", "decode", "build", "simulate", "report", "encode", "store-get", "store-put"}

// phaseTimer is one request's ledger. The adapter (Server.mount) starts
// it, the request context carries it to whatever code does the phase's
// work, and counters.book closes it. It is owned by one goroutine: a
// fan-out gives each worker a timer of its own and joins them afterwards.
// Timing on a nil timer books nothing, so helpers called outside a
// request (tests) need no special case.
type phaseTimer struct {
	start time.Time
	ns    [numPhases]time.Duration
}

func startTimer() *phaseTimer { return &phaseTimer{start: time.Now()} }

// span is a phase being timed.
type span struct {
	t     *phaseTimer
	p     phase
	start time.Time
}

// begin starts timing p; the time until end is booked to it. Spans must
// not nest: a phase that contains another would book the inner time twice.
func (t *phaseTimer) begin(p phase) span {
	if t == nil {
		return span{}
	}
	return span{t, p, time.Now()}
}

func (sp span) end() {
	if sp.t != nil {
		sp.t.ns[sp.p] += time.Since(sp.start)
	}
}

// join books a fan-out's workers, which ran side by side, into t: the
// mean of their time in each phase. A worker is busy for at most the
// fan-out's wall time, so the request's ledger keeps accounting for each
// moment once — a batch on eight cores books its wall time divided in the
// workers' proportions, not eight times it.
func (t *phaseTimer) join(workers []phaseTimer) {
	for i := range workers {
		for p, d := range workers[i].ns {
			t.ns[p] += d / time.Duration(len(workers))
		}
	}
}

type timerKey struct{}

func withTimer(ctx context.Context, t *phaseTimer) context.Context {
	return context.WithValue(ctx, timerKey{}, t)
}

// timerFrom returns the request's timer, or nil outside a request.
func timerFrom(ctx context.Context) *phaseTimer {
	t, _ := ctx.Value(timerKey{}).(*phaseTimer)
	return t
}

// counter indexes the server's one block of instrumentation counters.
type counter int

const (
	ctrRequests counter = iota
	ctrTotalNs
	ctrBatchReqs
	ctrBatchSims
	ctrSuiteReqs
	ctrSuiteRuns
	ctrStreamEvents
	ctrDeadlineHits
	ctrPhaseNs  // the first of numPhases per-phase sums
	numCounters = ctrPhaseNs + counter(numPhases)
)

// counters is every counter the server keeps itself (atomics: handlers
// run concurrently). Metrics reads it and ResetMetrics clears it as one
// block, so a counter cannot be reported and not reset.
type counters [numCounters]atomic.Uint64

// book closes a request's timer into the block. It is the only place the
// request count, the total and the phase sums are booked.
func (c *counters) book(t *phaseTimer) {
	c[ctrRequests].Add(1)
	c[ctrTotalNs].Add(uint64(time.Since(t.start)))
	for p, d := range t.ns {
		c[ctrPhaseNs+counter(p)].Add(uint64(d))
	}
}

func (c *counters) reset() {
	for i := range c {
		c[i].Store(0)
	}
}
